"""The Plonka round trip checks the bijection that the decomposition names
(``systems.plonka_layout``) and searches for an isomorphism only when that
check fails, with the verdict and message of the search."""

import json
from random import Random

import pytest

from algdual import algebra, systems
from algdual.algebra import (
    FiniteAlgebra,
    builtin,
    permute_algebra,
    validate_ibsl,
)
from algdual.cli import main
from algdual.documents import KIND_TABLE, dumps_document
from algdual.generate import (
    _chain_index,
    random_direct_system,
    random_ibsl,
    random_permutation,
    random_presheaf_system,
)

# (system kind, seed, max_fibers, max_atoms, carrier size) of the documents
# of the benchmark's dual ladder
LADDER = [("ba", 99, 3, 3, 12), ("ba", 212, 4, 3, 21), ("ba", 68, 4, 3, 32),
          ("ba", 1, 4, 4, 48), ("dl", 10, 3, 3, 10), ("dl", 225, 3, 4, 14)]


def _ladder_document(kind, seed, fibers, atoms, size) -> tuple[str, str]:
    rng = Random(seed)
    total = systems.plonka_sum(random_direct_system(rng, kind, fibers, atoms))
    assert total.size == size
    moved = permute_algebra(total, random_permutation(rng, size))
    doc_kind = KIND_TABLE[kind].get("sum_kind", kind)
    return dumps_document(moved, doc_kind), doc_kind


@pytest.fixture
def searches(monkeypatch):
    """The kinds of the isomorphism searches the round trip starts."""
    calls = []
    search = algebra.find_isomorphism

    def spy(*args, **kwargs):
        calls.append(args[2])
        return search(*args, **kwargs)

    monkeypatch.setattr(algebra, "find_isomorphism", spy)
    return calls


def _roundtrip(capsys, path) -> tuple[int, dict]:
    code = main(["roundtrip", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return code, {c["name"]: c for c in report["checks"]}


@pytest.mark.parametrize("source", LADDER, ids=lambda s: f"{s[0]}{s[4]}")
def test_roundtrip_of_the_ladder_does_not_search(capsys, tmp_path, searches,
                                                 source):
    text, _ = _ladder_document(*source)
    path = tmp_path / "ladder.json"
    path.write_text(text, encoding="utf-8")
    code, checks = _roundtrip(capsys, path)
    assert code == 0
    assert checks["plonka-roundtrip"]["holds"]
    assert searches == []


def test_roundtrip_of_gen64_does_not_search(capsys, tmp_path, searches):
    path = tmp_path / "gen64.json"
    assert main(["gen", "--size", "64", "--seed", "0", "--fibers", "4",
                 "-o", str(path)]) == 0
    code, checks = _roundtrip(capsys, path)
    assert code == 0
    assert checks["plonka-roundtrip"]["holds"]
    assert searches == []


@pytest.mark.parametrize("k", [16, 32])
def test_plonka_witness_on_the_chain_ladder_does_not_search(searches, k):
    # n=128 and n=247: the search took 0.14 s and 3.9 s here
    total = systems.plonka_sum(
        random_presheaf_system(Random(3), _chain_index(k), 4))
    b = permute_algebra(total, random_permutation(Random(5), total.size))
    systems.plonka_roundtrip(b, "ibsl")
    assert searches == []


@pytest.mark.parametrize("source", [LADDER[1], LADDER[5]],
                         ids=("ibsl", "bsl"))
def test_corrupted_witness_falls_back_to_the_search(capsys, tmp_path,
                                                    monkeypatch, searches,
                                                    source):
    text, kind = _ladder_document(*source)
    path = tmp_path / "ladder.json"
    path.write_text(text, encoding="utf-8")
    layout = systems.plonka_layout

    def corrupted(b, kind):
        out = layout(b, kind)
        out[0], out[-1] = out[-1], out[0]
        return out

    monkeypatch.setattr(systems, "plonka_layout", corrupted)
    code, checks = _roundtrip(capsys, path)
    assert code == 0
    assert checks["plonka-roundtrip"]["holds"]
    assert searches == [kind]


def _non_isomorphic_pair():
    """Two IBSLs of one size whose fiber sizes differ."""
    seen = {}
    for seed in range(100):
        b = random_ibsl(Random(seed), 3, 2)
        system = systems.plonka_decompose(b)
        fibers = sorted(system.fiber(i).size for i in range(system.index.size))
        for other, other_fibers in seen.get(b.size, []):
            if other_fibers != fibers:
                return b, other
        seen.setdefault(b.size, []).append((b, fibers))
    raise AssertionError("no pair in 100 seeds")


def test_non_isomorphic_sum_still_fails(capsys, tmp_path, monkeypatch,
                                        searches):
    b, other = _non_isomorphic_pair()
    path = tmp_path / "ibsl.json"
    path.write_text(dumps_document(b, "ibsl"), encoding="utf-8")
    monkeypatch.setattr(systems, "plonka_sum", lambda system: other)
    code, checks = _roundtrip(capsys, path)
    assert code == 1
    assert checks["plonka-roundtrip"] == {
        "name": "plonka-roundtrip", "holds": False, "witness": None,
        "note": "sum of decomposition not isomorphic"}
    assert searches == ["ibsl"]


def test_sum_with_a_wrong_meet_fails(capsys, monkeypatch):
    """An ``ibsl`` hom preserves join, neg and zero only, so a sum whose
    meet table is wrong must fail on its tables, not pass as isomorphic."""
    plonka_sum = systems.plonka_sum

    def corrupted(system):
        total = plonka_sum(system)
        meet = [list(row) for row in total.binary("meet")]
        meet[0][1] = (meet[0][1] + 1) % total.size
        return FiniteAlgebra(total.size, {**total.binary_ops, "meet": meet},
                             total.unary_ops, total.constants, total.names)

    monkeypatch.setattr(systems, "plonka_sum", corrupted)
    assert not validate_ibsl(corrupted(
        systems.plonka_decompose(builtin("wk")))).ok
    code, checks = _roundtrip(capsys, "builtin:wk")
    assert code == 1
    assert checks["plonka-roundtrip"] == {
        "name": "plonka-roundtrip", "holds": False, "witness": None,
        "note": "sum of decomposition is not a valid 'ibsl': "
                "['I5', 'I6', 'derived-join-de-morgan']"}
