"""Byte-level goldens: the sha256 of ``algctl`` stdout for seeded documents
of every kind and for two ``gen`` runs, in-process through ``cli.main``.

A refactor must leave every digest unchanged.  When an output change is
intended, ``PYTHONPATH=src python tests/test_goldens.py`` prints the
digests of the current code.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from algdual.algebra import permute_algebra
from algdual.cli import main
from algdual.documents import dumps_document
from algdual.duality import (
    FiniteSpace,
    GRSpaceWithInvolution,
    dual_of_bsl,
    dual_of_ibsl,
    lift_functor_dir_to_inv,
)
from algdual.generate import (
    random_boolean_algebra,
    random_bsl,
    random_direct_system,
    random_distributive_lattice,
    random_ibsl,
    random_join_semilattice,
    random_permutation,
    random_poset,
)
from algdual.lattices import lift_system_dl_to_posets, plonka_decompose_bsl
from algdual.systems import plonka_decompose


def _documents() -> dict:
    """Document name -> (object, kind); every carrier has at most 16
    elements."""
    ibsl = random_ibsl(Random(7), 4, 2)       # n=14 over four fibers
    small = random_ibsl(Random(5), 3, 2)      # n=7 over a chain
    bsl = random_bsl(Random(6), 3, 3)         # n=14 over three fibers
    ba = random_boolean_algebra(Random(0), 3, min_atoms=3)
    dl = random_distributive_lattice(Random(5), 3)
    bounded = random_direct_system(Random(3), "dl", 3, 2, bounded=True)
    objects = {
        "ibsl": (ibsl, "ibsl"),
        "ibsl-b": (permute_algebra(ibsl, random_permutation(Random(1), 14)),
                   "ibsl"),
        "ibsl-small": (small, "ibsl"),
        "bsl": (bsl, "bsl"),
        "bsl-b": (permute_algebra(bsl, random_permutation(Random(2), 14)),
                  "bsl"),
        "ba": (ba, "ba"),
        "ba-b": (permute_algebra(ba, random_permutation(Random(3), 8)), "ba"),
        "dl": (dl, "dl"),
        "dl-b": (permute_algebra(dl, random_permutation(Random(4), dl.size)),
                 "dl"),
        "sl": (random_join_semilattice(Random(0), 6).algebra, "sl"),
        "gr": (dual_of_bsl(random_bsl(Random(5), 3, 3)), None),
        "gr-b": (dual_of_bsl(permute_algebra(
            random_bsl(Random(5), 3, 3), random_permutation(Random(5), 6))),
            None),
        "igr": (dual_of_ibsl(small), None),
        "igr-b": (dual_of_ibsl(permute_algebra(
            small, random_permutation(Random(6), 7))), None),
        "poset": (random_poset(Random(5), 4), None),
        "space": (FiniteSpace(3), None),
        "system-ba": (plonka_decompose(ibsl), None),
        "system-dl": (plonka_decompose_bsl(bsl), None),
        "inverse-spaces": (lift_functor_dir_to_inv(plonka_decompose(ibsl)),
                           None),
        "system-dl-bounded": (bounded, None),
        "inverse-posets": (lift_system_dl_to_posets(bounded), None),
        # involutions that pass G1-G4 on the dual of a BSL; the first fails
        # G5 alone, the second also has no join-neutral hom, so fails G6
        "igr-g5": (GRSpaceWithInvolution(dual_of_bsl(random_bsl(
            Random(1), 2, 2)), (3, 2, 1, 0, 4)), None),
        "igr-g6": (GRSpaceWithInvolution(dual_of_bsl(random_bsl(
            Random(35), 2, 2)), (3, 2, 1, 0, 5, 4, 6)), None),
    }
    return {name: dumps_document(obj, kind)
            for name, (obj, kind) in objects.items()}


# (argv with {document} placeholders) -> (exit code, sha256 of stdout)
GOLDENS = {
    "check {igr-g5}":
        [1, "b21b33f1ee6b097798129c12cf41ed74bb75b05ac8852c9902bb49085085f73f"],
    "check {igr-g5} --format json":
        [1, "a83501f9d4cb5e99222c9c20aa9025f8344534611ec8c8615196d2fe1fe59ccb"],
    "check {igr-g6}":
        [1, "62700988dd20726a97cc98b9bf768eb3e6233684636425f5f464abdb71c43a98"],
    "check {igr-g6} --format json":
        [1, "a8404e5e04c51bc24821f9170d39f5898a37456f58ab93df75c04b739010353f"],
    "dual {ibsl}":
        [0, "a742eaa8d2283bcf9df249f6e58f88de395ce0ff104a51670e2efc3c51b20101"],
    "dual {ibsl-small}":
        [0, "590dece3c3e2408ef8336cb2e5d94ea9f476a18fcaa43dbc54bd0ce75b0230ab"],
    "dual {bsl}":
        [0, "0b88bcaf309afecf807198d5bcd4b025df032e4a490f590b557764604f662ba3"],
    "dual {ba}":
        [0, "92cdc3cce947095747cf2957153cf11c81fecee641207ecf8391f6de59c8445f"],
    "dual {dl}":
        [0, "5c5e97d15a7acaf1b81ec9a0be54de11906e063458b61eb5d36d73f4b349a453"],
    "dual {gr}":
        [0, "3c11f1db357c26004406f1fd730dad32b7c6c7a374287d5bc2652fce3e91a6ba"],
    "dual {igr}":
        [0, "70a4694216290f5a25c6f04d2a3db253f9bf79aa03a7c4a9a69cfe0074ff027b"],
    "dual {poset}":
        [0, "d0ea0a832310c5dd17e77cc70c56e5fa300a92b34c4da6b5fa2353df9b87f206"],
    "dual {space}":
        [0, "2ebb6f7bb307d5453115a1fb5a0dc40b55fc89a76105e1ed28971858c90583a0"],
    "dual {system-ba}":
        [0, "27007e5ca0adae0811a8113fb877ba7088d1a81d1748498dd2bb0c25b81d6537"],
    "dual {system-dl}":
        [1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "dual {system-dl-bounded}":
        [0, "78e2b079baa723e872f1f2256387237502504ca7729247926d57e19b05af6a84"],
    "dual {inverse-spaces}":
        [0, "23592596736637da467b76861d8c71ac16d0a763faca29ced36c6b31f95db61b"],
    "dual {inverse-posets}":
        [0, "83d63dead83d25c3efc305ab9262459d7220bf0e0931a4c82b7e7712f8fe09ea"],
    "plonka decompose {ibsl}":
        [0, "545a76e100541125c6c4c22c499018aca3167d45fed854018c5ef817349bb549"],
    "plonka decompose {ibsl-small}":
        [0, "d5d8c7274fe850b47011c2c0b7536e86f047df25795f752b3b309f7e58a38077"],
    "plonka decompose {bsl}":
        [0, "a62d2fa6e54f23688d87e469f2e09af99eadfd6c301f283f222d8840e9a901c1"],
    "plonka sum {system-ba}":
        [0, "f03ce6fc72b39ffd0db28c98097ab7244dc4d0644ccb0e36348f768a20bd5867"],
    "plonka sum {system-dl}":
        [0, "06201e7a8d7cf0fff121789ef400931ea364fe7ed1596d85496282ac10d9258e"],
    "plonka sum {system-dl-bounded}":
        [0, "ec6959385869a30eb91405be5a41a91a7bbc8a4f0e4a8828f3fd668f51d9d219"],
    "roundtrip {ibsl}":
        [0, "e496217174b6d3ad4b28120749138d3d19110c6842b6554ca0c3a886c89d22c3"],
    "roundtrip {ibsl-small}":
        [0, "e496217174b6d3ad4b28120749138d3d19110c6842b6554ca0c3a886c89d22c3"],
    "roundtrip {bsl}":
        [0, "c3aa96c4b68563a777f4bbba71a94f13e1303ffd1c7d8073bbe43eaa0fc3c699"],
    "roundtrip {ba}":
        [0, "bff2e905b2d52458c9fcc5da7d36302cb328bb3cbe84dda75e4fcbfa6ffc264f"],
    "roundtrip {dl}":
        [0, "698e01e51a534bd754d9b6386defa83fa39ff7aa835a25c18c51d920f9418743"],
    "roundtrip {poset}":
        [0, "5ef030879a5fdf024db43a58d6cd88e08f1fe5393a32b64f1de1f21e4d9e02e6"],
    "roundtrip {igr}":
        [0, "0fb61b91ad7ce75ccd4dcc7c46e8ebb5683a04e585e45683207f943c8751adc6"],
    "roundtrip {ibsl} --format json":
        [0, "5925624ef2793d97f34dfbffbeae50f9c8a57b18fae90c6e2a68b3d4837aa825"],
    "hom {ibsl-small} {ibsl-small} --kind ibsl --list":
        [0, "15ecdb5fc3a4e1a222aba3fc1a16773bddcc6f43039b936a46fb1410f2c7c79e"],
    "hom {bsl} {bsl} --kind bsl --list":
        [0, "d28706c2712d3038c5a705633b974a0b57396076d9d4a6426f9d29c63e6bc51d"],
    "hom {ba} {ba-b} --kind ba --list":
        [0, "f8110c27dab64ebcc44cec8d0b03173d6be9182c2c4d921e8796f5878d1252ab"],
    "hom {dl} {dl-b} --kind dl --list":
        [0, "bdafc6d59e134318fe79ddd4cb8564fe69b975d19077231987fdce60ef6ed28e"],
    "hom {sl} {sl} --kind sl --list":
        [0, "1e04f93ee682fa4a8ff890a8aaafd292389b2e011e115a4188c8e03acd37222d"],
    "hom {gr} {gr-b} --kind gr --list":
        [0, "9c1f4e2494b6bfa89833c7016e2e7d7570a92a3610f0ebc404901ffe03ca997b"],
    "hom {igr} {igr-b} --kind igr --list":
        [0, "59529fea7ac1c01e255d315b2d7fd4264c5e925bc5b8b079f6625658c10bd37e"],
    "iso {ibsl-small} {ibsl-small} --kind ibsl":
        [0, "a96d7d4d1ffd96eb33a21ee6cc1122af48b24c7b910a8cf72a7a69c14b125cd1"],
    "iso {bsl} {bsl} --kind bsl":
        [0, "34274618b30e4653f46682b799ef84f440b6c374084aedd8eaf3ebbf808c184e"],
    "iso {ba} {ba-b} --kind ba":
        [0, "c75c982c7f5b3a9855ed42dd2e3656983735fe1320e4bec8b25378ca6bd562db"],
    "iso {dl} {dl-b} --kind dl":
        [0, "35aacc0cf20bf2cbbaa0a01fee07ec1e103cf8c89067f3422169c327e8954322"],
    "iso {sl} {sl} --kind sl":
        [0, "36f210a5dd370d550e7e91c6d8895e95a9028bee710bf5a96455602bf99e350f"],
    "iso {gr} {gr-b} --kind gr":
        [0, "bdef6bbfcfad453c9eaf6ab5dc0427adb93629f9c9f1b628701ce34b7c9e5f85"],
    "iso {igr} {igr-b} --kind igr":
        [0, "f58900720752bfeac62b006746e3d7587e2e2ddf2c5475985f08d4d554411369"],
    "iso {ibsl} {ibsl-b} --kind ibsl":
        [0, "32ff79a905b4019ab16f79946b66df7d0016ba89eafec0f33a8a669a6eaec9ee"],
    "iso {bsl} {bsl-b} --kind bsl":
        [0, "7a82a33685de34652c8b0f624ea771b64cc8f6c18ef1cbc31088ba8d0dab6fc5"],
    "iso {ibsl} {ibsl-small} --kind ibsl":
        [1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"],
    "gen --seed 11":
        [0, "dafe678c3d750a6d59df5715c46d86140f8ee8e3b7412d9001988044c470ceeb"],
    "gen --size 64 --seed 0 --fibers 4":
        [0, "f77f7e3d1c2ef3bef66ddac1b3e3e4356325e170277c1a84d52c2e65ef00e21a"],
}


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _commands() -> list[str]:
    commands = [f"check {{{d}}}{fmt}" for d in ("igr-g5", "igr-g6")
                for fmt in ("", " --format json")]
    commands += [f"dual {{{d}}}" for d in (
        "ibsl", "ibsl-small", "bsl", "ba", "dl", "gr", "igr", "poset",
        "space", "system-ba", "system-dl", "system-dl-bounded",
        "inverse-spaces", "inverse-posets")]
    commands += [f"plonka decompose {{{d}}}" for d in ("ibsl", "ibsl-small",
                                                      "bsl")]
    commands += [f"plonka sum {{{d}}}" for d in ("system-ba", "system-dl",
                                                   "system-dl-bounded")]
    commands += [f"roundtrip {{{d}}}" for d in ("ibsl", "ibsl-small", "bsl",
                                                "ba", "dl", "poset", "igr")]
    commands.append("roundtrip {ibsl} --format json")
    pairs = [("ibsl-small", "ibsl-small", "ibsl"), ("bsl", "bsl", "bsl"),
             ("ba", "ba-b", "ba"), ("dl", "dl-b", "dl"), ("sl", "sl", "sl"),
             ("gr", "gr-b", "gr"), ("igr", "igr-b", "igr")]
    commands += [f"hom {{{a}}} {{{b}}} --kind {k} --list" for a, b, k in pairs]
    pairs += [("ibsl", "ibsl-b", "ibsl"), ("bsl", "bsl-b", "bsl"),
              ("ibsl", "ibsl-small", "ibsl")]
    commands += [f"iso {{{a}}} {{{b}}} --kind {k}" for a, b, k in pairs]
    # the generator's own documents, which no other golden pins
    commands += ["gen --seed 11", "gen --size 64 --seed 0 --fibers 4"]
    return commands


def _digests(folder: Path) -> dict:
    paths = {}
    for name, text in _documents().items():
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return {command: _run(command.format(**paths).split())
            for command in _commands()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("goldens"))


def test_goldens_cover_every_command(digests):
    assert set(digests) == set(GOLDENS)


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_stdout_matches_golden(digests, command):
    assert list(digests[command]) == GOLDENS[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        table = _digests(Path(folder))
    json.dump({c: list(v) for c, v in table.items()}, sys.stdout, indent=4)
    sys.stdout.write("\n")
