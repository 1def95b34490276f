"""Differential test: the identity checks against the tree walk.

``first_violation`` builds each identity into closures over whole rows of
the op tables; ``oracles.naive_first_violation`` evaluates both sides by
walking the term trees at every assignment in ``product`` order, and
``oracles.loop_first_violation`` runs one loop per variable.  They must
agree on every identity the library checks, on lawful and on broken tables,
and raise the same error for a missing operation.
"""

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from algdual import algebra
from algdual.algebra import FiniteAlgebra, first_violation
from algdual.duality import STAR_IDENTITIES
from oracles import loop_first_violation, naive_first_violation, term_vars


def _identity_groups(module):
    for value in vars(module).values():
        if (isinstance(value, tuple) and value
                and all(isinstance(e, tuple) and len(e) == 3
                        and isinstance(e[0], str) for e in value)):
            yield value


IDENTITIES = [ident for group in _identity_groups(algebra) for ident in group]
IDENTITIES += STAR_IDENTITIES
IDS = [name for name, _, _ in IDENTITIES]


def random_algebra(rng: Random) -> FiniteAlgebra:
    """A table algebra on 1-6 elements carrying every operation the
    identities mention.  Free tables break almost every law at an early
    assignment; lawful chain tables with a few broken entries put the
    first witness anywhere, or leave none."""
    n = rng.randint(1, 6)

    def cell():
        return rng.randrange(n)

    if rng.random() < 0.3:
        tables = {op: [[cell() for _ in range(n)] for _ in range(n)]
                  for op in ("join", "meet", "star")}
        neg = [cell() for _ in range(n)]
        consts = {"zero": cell(), "one": cell(), "bottom": cell()}
    else:
        tables = {"join": [[max(x, y) for y in range(n)] for x in range(n)],
                  "meet": [[min(x, y) for y in range(n)] for x in range(n)],
                  "star": [[x] * n for x in range(n)]}
        neg = [n - 1 - x for x in range(n)]
        if n == 2 and rng.random() < 0.5:
            neg = [0, 1]
        consts = {"zero": 0, "one": n - 1, "bottom": 0}
        for _ in range(rng.choice((0, 0, 1, 2))):
            op = rng.choice(("join", "meet", "star", "neg", "const"))
            if op == "neg":
                neg[cell()] = cell()
            elif op == "const":
                consts[rng.choice(sorted(consts))] = cell()
            else:
                tables[op][cell()][cell()] = cell()
    return FiniteAlgebra(n, tables, {"neg": neg}, consts)


def test_every_identity_is_covered():
    assert {"I1", "I8", "bottom-neutral", "star-left-normal",
            "join-complement"} <= set(IDS)
    assert len(IDS) == len(set(IDS)) == 28


@pytest.mark.parametrize("name, lhs, rhs", IDENTITIES, ids=IDS)
def test_compiled_witness_matches_tree_walk(name, lhs, rhs):
    outcomes = set()
    for seed in range(300):
        a = random_algebra(Random(seed))
        expected = naive_first_violation(a, lhs, rhs)
        assert first_violation(a, lhs, rhs) == expected, (seed, a)
        outcomes.add(expected is None)
    # both a violation and a pass were compared
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_compiled_checks_agree_on_random_tables(seed):
    a = random_algebra(Random(seed))
    for name, lhs, rhs in IDENTITIES:
        assert (first_violation(a, lhs, rhs)
                == naive_first_violation(a, lhs, rhs)), name


def test_constant_identity_witness_is_empty_tuple():
    lhs, rhs = algebra.IBSL_IDENTITIES[7][1:]
    broken = FiniteAlgebra(2, unary_ops={"neg": (0, 1)},
                           constants={"zero": 0, "one": 1})
    assert first_violation(broken, lhs, rhs) == () == naive_first_violation(
        broken, lhs, rhs)
    lawful = FiniteAlgebra(2, unary_ops={"neg": (1, 0)},
                           constants={"zero": 0, "one": 1})
    assert first_violation(lawful, lhs, rhs) is None


def _ops(term) -> set:
    """The operations ``term`` reads."""
    if isinstance(term, str):
        return set()
    return {term[0]}.union(*map(_ops, term[1:]))


def _missing_cases():
    for name, lhs, rhs in IDENTITIES:
        ops = sorted(_ops(lhs) | _ops(rhs))
        for removed in [*combinations(ops, 1), *combinations(ops, 2)]:
            yield pytest.param(lhs, rhs, removed,
                               id=f"{name}-without-{'-'.join(removed)}")


@pytest.mark.parametrize("lhs, rhs, removed", _missing_cases())
def test_missing_operation_raises_like_tree_walk(lhs, rhs, removed):
    # the tables are looked up in pre-order, lhs first, as the tree walk
    # meets them, so the first missing one names the same operation
    full = random_algebra(Random(0))
    a = FiniteAlgebra(
        full.size,
        {k: t for k, t in full.binary_ops.items() if k not in removed},
        {k: t for k, t in full.unary_ops.items() if k not in removed},
        {k: c for k, c in full.constants.items() if k not in removed})
    with pytest.raises(algebra.MissingOperation) as compiled:
        first_violation(a, lhs, rhs)
    with pytest.raises(algebra.MissingOperation) as walked:
        naive_first_violation(a, lhs, rhs)
    assert str(compiled.value) == str(walked.value)


# Carriers past the byte-row limit of 256 take the tuple-row path.
LARGE_SIZES = (40, 64, 257, 300)


def _chain_algebra(n: int, op: str, cell) -> FiniteAlgebra:
    """The lawful chain tables of ``random_algebra`` on n elements with the
    entry ``cell`` of operation ``op`` moved to another value."""
    tables = {"join": [[max(x, y) for y in range(n)] for x in range(n)],
              "meet": [[min(x, y) for y in range(n)] for x in range(n)],
              "star": [[x] * n for x in range(n)]}
    neg = [n - 1 - x for x in range(n)]
    if op == "neg":
        neg[cell[0]] = (neg[cell[0]] + n // 2) % n
    else:
        x, y = cell
        tables[op][x][y] = (tables[op][x][y] + n // 2) % n
    return FiniteAlgebra(n, tables, {"neg": neg},
                         {"zero": 0, "one": n - 1, "bottom": 0})


def _subterms(term):
    if not isinstance(term, str):
        yield term
        for t in term[1:]:
            yield from _subterms(t)


def _perturbed_op(lhs, rhs) -> str:
    """The first binary operation of ``lhs = rhs`` in pre-order, or neg."""
    return next((t[0] for side in (lhs, rhs) for t in _subterms(side)
                 if len(t) == 3), "neg")


def _arity(lhs, rhs) -> int:
    names: set = set()
    term_vars(lhs, names)
    term_vars(rhs, names)
    return len(names)


@pytest.mark.parametrize("n", LARGE_SIZES)
def test_row_kernel_matches_loops_on_large_carriers(n):
    # a perturbed cell near the start puts the first witness early; one at
    # the last row and column puts it late, often in the last assignment of
    # the outer loops.  A late witness makes the loops scan every earlier
    # assignment, n**3 of them for three variables, so above 64 elements
    # only identities of at most two variables get the late cell.
    algebras: dict = {}
    outcomes = set()
    late_outer = 0
    for name, lhs, rhs in IDENTITIES:
        op = _perturbed_op(lhs, rhs)
        arity = _arity(lhs, rhs)
        cells = [(1, 0)]
        if n <= 64 or arity <= 2:
            cells.append((n - 1, n - 1))
        for cell in cells:
            key = op, cell
            if key not in algebras:
                algebras[key] = _chain_algebra(n, op, cell)
            a = algebras[key]
            expected = loop_first_violation(a, lhs, rhs)
            assert first_violation(a, lhs, rhs) == expected, (name, cell)
            outcomes.add(expected is None)
            if expected and arity > 1 and set(expected[:-1]) == {n - 1}:
                late_outer += 1
    assert outcomes == {True, False}
    assert late_outer >= 3


def test_row_tables_belong_to_one_algebra():
    # the padded tables are cached on each algebra; with_ops builds a new
    # one, so two extensions by different tables of one name never share
    idempotent = next((lhs, rhs) for name, lhs, rhs in IDENTITIES
                      if name == "meet-idempotent")
    base = FiniteAlgebra(2, {"join": ((0, 1), (1, 1))})
    lawful = base.with_ops(binary={"meet": ((0, 0), (0, 1))})
    broken = base.with_ops(binary={"meet": ((1, 0), (0, 1))})
    assert first_violation(lawful, *idempotent) is None
    assert first_violation(broken, *idempotent) == (0,)
    assert lawful._row_tables is not broken._row_tables
    assert "_row_tables" in lawful.__dict__
    assert "_row_tables" not in lawful.with_ops(
        unary={"neg": (1, 0)}).__dict__
