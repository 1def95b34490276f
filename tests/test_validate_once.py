"""Each object is validated once.

The five algebra validators and the two GR validators keep their verdict
per object in one weak memo (``algebra.validated_once``).  These tests
compare every memoized validator with the function it wraps, on lawful
tables, on tables with one cell changed and on fresh objects equal to ones
already validated; check that a repeat costs no identity check and that the
memo keeps no object alive, not even until the next garbage collection; and
pin the identity checks and validator runs of the ``dual`` and
``roundtrip`` pipelines.
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
