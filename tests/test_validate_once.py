"""Each object is validated once.

The five algebra validators and the two GR validators keep their verdict
per object in one weak memo (``algebra.validated_once``).  These tests
compare every memoized validator with the function it wraps, on lawful
tables, on tables with one cell changed and on fresh objects equal to ones
already validated; check that a repeat costs no identity check and that the
memo keeps no object alive, not even until the next garbage collection; and
pin the identity checks and validator runs of the ``dual`` and
``roundtrip`` pipelines, the labellings of the Stone double dual and the
down-set listings of the way back from an inverse system.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from random import Random

import pytest

from algdual import algebra, duality, systems
from algdual.algebra import FiniteAlgebra, builtin, validate_ibsl
from algdual.duality import (
    GRSpace,
    GRSpaceWithInvolution,
    dual_of_bsl,
    dual_of_ibsl,
    gr_three,
    validate_gr_involution,
    validate_gr_space,
    wk_space,
)
from algdual.generate import (
    random_boolean_algebra,
    random_bsl,
    random_distributive_lattice,
    random_ibsl,
    random_join_semilattice,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _lawful_algebras(kind, rng):
    if kind == "ibsl":
        return [builtin("wk"), builtin("two"), builtin("s2"),
                random_ibsl(rng, 3, 2)]
    if kind == "ba":
        return [builtin("two"), random_boolean_algebra(rng, 3, min_atoms=2)]
    if kind == "bsl":
        return [builtin("three"), random_bsl(rng, 3, 2)]
    if kind == "dl":
        return [random_distributive_lattice(rng, 3) for _ in range(2)]
    return [random_join_semilattice(rng, 6).algebra for _ in range(2)]


def _one_cell_changed(a, rng):
    """``a`` with one entry of one of its tables or maps redrawn."""
    binary = {nm: [list(r) for r in t] for nm, t in a.binary_ops.items()}
    unary = {nm: list(t) for nm, t in a.unary_ops.items()}
    n = a.size
    if unary and rng.random() < 0.3:
        unary[rng.choice(sorted(unary))][rng.randrange(n)] = rng.randrange(n)
    else:
        table = binary[rng.choice(sorted(binary))]
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return FiniteAlgebra(n, binary, unary, dict(a.constants), a.names)


def _copy(a):
    return FiniteAlgebra(a.size, dict(a.binary_ops), dict(a.unary_ops),
                         dict(a.constants), a.names)


def _gr_changed(g, rng):
    n = g.size
    star = [list(r) for r in g.star]
    star[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return GRSpace(n, star, g.leq, g.c0, g.c1, g.calpha)


def _igr_changed(g, rng):
    neg = list(g.neg)
    neg[rng.randrange(g.size)] = rng.randrange(g.size)
    return GRSpaceWithInvolution(g.base, neg)


def _cases():
    rng = Random(11)
    cases = []
    for kind, entry in algebra.MORPHISM_KINDS.items():
        if kind not in algebra.ALGEBRA_KINDS:
            continue
        validator = getattr(algebra, entry[0][1])
        for a in _lawful_algebras(kind, rng):
            changed = [_one_cell_changed(a, rng) for _ in range(3)]
            cases += [(validator, obj) for obj in [a, _copy(a), *changed]]
    spaces = [gr_three(), dual_of_bsl(builtin("three")),
              dual_of_bsl(random_bsl(rng, 2, 2))]
    for g in spaces:
        cases += [(validate_gr_space, obj)
                  for obj in [g, _gr_changed(g, rng), _gr_changed(g, rng)]]
    for g in [wk_space(), dual_of_ibsl(builtin("two")),
              dual_of_ibsl(random_ibsl(rng, 2, 2))]:
        cases += [(validate_gr_involution, obj)
                  for obj in [g, _igr_changed(g, rng),
                              GRSpaceWithInvolution(_gr_changed(g.base, rng),
                                                    g.neg)]]
    return cases


CASES = _cases()


@pytest.mark.parametrize("validator, obj", CASES,
                         ids=[f"{v.__name__}-{k}" for k, (v, _) in
                              enumerate(CASES)])
def test_memoized_validator_agrees_with_the_wrapped_one(validator, obj):
    expected = validator.__wrapped__(obj)
    assert validator(obj) == expected
    # a repeat returns the stored report, and so does an equal object
    # built anew
    assert validator(obj) is validator(obj)
    fresh = _copy(obj) if isinstance(obj, FiniteAlgebra) else type(obj)(
        *(getattr(obj, f) for f in obj._fields))
    assert fresh == obj and fresh is not obj
    assert validator(fresh) == expected


def test_every_validator_is_memoized():
    wrapped = {getattr(algebra, e[0][1]) for k, e in
               algebra.MORPHISM_KINDS.items() if k in algebra.ALGEBRA_KINDS}
    wrapped |= {validate_gr_space, validate_gr_involution}
    assert len(wrapped) == 7
    assert all(hasattr(v, "__wrapped__") for v in wrapped)
    assert {v.__wrapped__ for v, _ in CASES} == {v.__wrapped__
                                                 for v in wrapped}


@pytest.fixture
def identity_checks(monkeypatch):
    """A list that gets one entry per ``first_violation`` call."""
    calls = []
    original = algebra.first_violation

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (algebra, duality):
        monkeypatch.setattr(module, "first_violation", counted)
    return calls


def test_a_repeat_validation_runs_no_identity_check(identity_checks):
    a = random_ibsl(Random(4), 3, 2)
    # objects of earlier tests may still be alive (in the hom-space cache)
    algebra._VERDICTS.clear()
    identity_checks.clear()
    first = validate_ibsl(a)
    assert len(identity_checks) == 10
    assert validate_ibsl(a) == validate_ibsl(_copy(a)) == first
    assert len(identity_checks) == 10
    g = dual_of_ibsl(a)        # validates a again, and then its dual
    validate_gr_involution(g)
    validate_gr_space(g.base)
    assert len(identity_checks) == 13


def test_the_memo_keeps_no_object_alive():
    a = _one_cell_changed(builtin("wk"), Random(0))
    validate_ibsl(a)
    assert a in algebra._VERDICTS
    gone = weakref.ref(a)
    del a
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("validator, make", [
    (validate_ibsl, lambda: _one_cell_changed(builtin("wk"), Random(0))),
    (algebra.validate_bisemilattice, lambda: _copy(builtin("three"))),
    (algebra.validate_semilattice,
     lambda: random_join_semilattice(Random(2), 6).algebra),
    (algebra.validate_boolean_algebra,
     lambda: _one_cell_changed(builtin("two"), Random(1))),
], ids=["ibsl", "bsl", "sl", "ba-failing"])
def test_a_checked_algebra_dies_with_its_last_reference(validator, make):
    # no reference cycle keeps it (or its padded row tables) until the next
    # collection, so what the memo holds does not depend on when that runs
    a = make()
    gc.disable()
    try:
        validator(a)
        gone = weakref.ref(a)
        del a
        assert gone() is None
    finally:
        gc.enable()


def test_identical_builds_run_the_same_identity_checks(identity_checks):
    def build():
        b = random_ibsl(Random(6), 4, 3)
        return systems.plonka_sum(systems.plonka_decompose(b))

    algebra._VERDICTS.clear()
    gc.disable()
    try:
        counts = []
        for _ in range(2):
            identity_checks.clear()
            build()
            counts.append(len(identity_checks))
    finally:
        gc.enable()
    assert counts[0] == counts[1] > 0


# identity checks (``first_violation`` calls) and validator runs of one
# command on the document of ``algctl gen --size 64 --seed 0 --fibers 4``:
# each distinct object is validated once
PIPELINE_CHECKS = {
    # runs: the input (10 identity checks), the index semilattice (4), four
    # Boolean fibers (none: each is a field of sets), the dual's base (its 3
    # star laws) and the dual (none of its own), and the double dual (10);
    # the Plonka sum is not validated, as the checked bijection onto the
    # valid input shows it valid
    "roundtrip": (27, 9),
    # the input (10), the dual's base (3) and the dual
    "dual": (13, 3),
}


@pytest.fixture(scope="module")
def gen64(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "gen64.json"
    from algdual.cli import main

    assert main(["gen", "--size", "64", "--seed", "0", "--fibers", "4",
                 "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("command", sorted(PIPELINE_CHECKS))
def test_pipeline_identity_checks_are_pinned(gen64, command):
    # a fresh interpreter: no memo, no hom-space cache
    # a run is a miss of the memo: a validator that stores a report
    probe = (
        "import json, sys, weakref\n"
        "from algdual import algebra\n"
        "calls, runs = [0], []\n"
        "original = algebra.first_violation\n"
        "def counted(*args):\n"
        "    calls[0] += 1\n"
        "    return original(*args)\n"
        "algebra.first_violation = counted\n"
        "class Reports(dict):\n"
        "    def __setitem__(self, validator, report):\n"
        "        runs.append([validator.__name__, self.key])\n"
        "        super().__setitem__(validator, report)\n"
        "class Verdicts(weakref.WeakKeyDictionary):\n"
        "    def setdefault(self, obj, default=None):\n"
        "        if obj not in self:\n"
        "            self[obj] = Reports()\n"
        "            self[obj].key = hash(obj)\n"
        "        return self[obj]\n"
        "algebra._VERDICTS = Verdicts()\n"
        "from algdual.cli import main\n"
        f"code = main([{command!r}, {gen64!r}])\n"
        "print(json.dumps([code, calls[0], runs]))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, calls, runs = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert (calls, len(runs)) == PIPELINE_CHECKS[command]
    # no object is validated twice, nor one equal to it
    assert len({tuple(run) for run in runs}) == len(runs)


def test_each_poset_order_is_checked_once(tmp_path, monkeypatch, capsys):
    # a poset document's order is checked by ``check_poset`` only, and
    # each poset term of an inverse system when it is read; ``roundtrip``
    # checks one more order, that of the join-irreducibles of the dual
    from algdual import orders
    from algdual.cli import main
    from algdual.documents import dumps_document
    from algdual.generate import random_direct_system
    from algdual.lattices import lift_system_dl_to_posets

    calls = []
    original = orders.is_partial_order

    def counted(leq):
        calls.append(len(leq))
        return original(leq)

    monkeypatch.setattr(orders, "is_partial_order", counted)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"kind": "poset", "size": 5, "leq": [
        [int(x <= y) for y in range(5)] for x in range(5)]}))
    system = lift_system_dl_to_posets(
        random_direct_system(Random(4), "dl", 4, 3, bounded=True))
    terms = system.index.size
    assert terms > 1
    inverse = tmp_path / "inverse.json"
    inverse.write_text(dumps_document(system, "inverse-system"))
    for command, path, expected in (
            ("check", chain, [5]), ("dual", chain, [5]),
            ("hasse", chain, [5]), ("roundtrip", chain, [5, 5]),
            ("check", inverse, [system.term(i).size for i in range(terms)]),
            ("dual", inverse, [system.term(i).size for i in range(terms)])):
        calls.clear()
        assert main([command, str(path)]) == 0
        assert calls == expected, command
    capsys.readouterr()


def test_each_system_document_is_checked_once(tmp_path, monkeypatch, capsys):
    # a system document is checked when it is read, and realized from the
    # parts that passed; ``dual`` checks one more system, the one it builds
    from algdual.cli import main
    from algdual.documents import dumps_document
    from algdual.generate import random_direct_system
    from algdual.lattices import lift_system_dl_to_posets

    calls = []
    original = systems.check_system

    def counted(*args, **kwargs):
        calls.append(kwargs["inverse"])
        return original(*args, **kwargs)

    monkeypatch.setattr(systems, "check_system", counted)
    direct = random_direct_system(Random(4), "dl", 4, 3, bounded=True)
    assert direct.index.size > 1
    dsys, isys = tmp_path / "direct.json", tmp_path / "inverse.json"
    dsys.write_text(dumps_document(direct, "direct-system"))
    isys.write_text(dumps_document(lift_system_dl_to_posets(direct),
                                   "inverse-system"))
    for command, path, expected in (
            (["check"], dsys, [False]), (["check"], isys, [True]),
            (["plonka", "sum"], dsys, [False]),
            (["dual"], dsys, [False, True]), (["dual"], isys, [True, False])):
        calls.clear()
        assert main([*command, str(path)]) == 0
        assert calls == expected, (command, path.name)
    capsys.readouterr()


def test_stone_double_dual_labels_the_algebra_once(monkeypatch):
    # the atom space is read off the size, so the labelling is computed
    # only for the map; validation (memoized) labels the algebra itself
    from algdual import lattices

    b = random_boolean_algebra(Random(6), 4, min_atoms=3)
    algebra.validate_boolean_algebra(b)
    calls = []
    original = lattices.birkhoff_labels

    def counted(a):
        calls.append(a.size)
        return original(a)

    monkeypatch.setattr(lattices, "birkhoff_labels", counted)
    iso = lattices.stone_double_dual_iso(b)
    assert calls == [b.size]
    assert iso.target.size == b.size


@pytest.mark.parametrize("kind", ["ba", "dl"])
def test_each_term_lists_its_down_sets_once(monkeypatch, kind):
    # the way back from an inverse system lists the down-sets of each term
    # once for the transitions, and ``dl_of_poset`` once more for its fiber
    from algdual import lattices
    from algdual.generate import random_direct_system

    direct = random_direct_system(Random(4), kind, 4, 3, bounded=True)
    inverse = (lattices.lift_functor_dir_to_inv(direct) if kind == "ba"
               else lattices.lift_system_dl_to_posets(direct))
    terms = inverse.index.size
    assert len(inverse.index.comparable_pairs()) > terms
    calls = []
    original = lattices.downset_masks

    def counted(p):
        calls.append(p.size)
        return original(p)

    monkeypatch.setattr(lattices, "downset_masks", counted)
    back = (lattices.lift_functor_inv_to_dir(inverse) if kind == "ba"
            else lattices.lift_system_posets_to_dl(inverse))
    sizes = [inverse.term(i).size for i in range(terms)]
    assert sorted(calls) == sorted(sizes * (1 if kind == "ba" else 2))
    assert [back.fiber(i).size for i in range(terms)] == [
        direct.fiber(i).size for i in range(terms)]
