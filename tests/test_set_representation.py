"""Differential test: the set-representation test against the identity
checks.

``validate_boolean_algebra`` and ``validate_distributive_lattice`` evaluate
their identities only when ``algebra._is_set_algebra`` fails, that is, when
labelling each element with the join-irreducibles below it is not an
embedding into a power set.  Their reports must equal the identity
checks', computed by ``oracles.loop_first_violation``, on every algebra:
all of both signatures on one and two elements, every pair of commutative
idempotent tables on three, and generator Boolean algebras (up to 2^5
elements) and distributive lattices with their one-cell mutations (all of
them, or 150 drawn at random).  Algebras far too large for the identity
checks are decided without them.
"""

from itertools import product
from random import Random

import pytest

from algdual import algebra
from algdual.algebra import (
    BISEMILATTICE_IDENTITIES,
    BOOLEAN_COMPLEMENT,
    LATTICE_ABSORPTION,
    Check,
    FiniteAlgebra,
    ValidationReport,
    validate_boolean_algebra,
    validate_distributive_lattice,
)
from algdual.generate import random_boolean_algebra, random_distributive_lattice
from oracles import loop_first_violation

DL = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION
PATHS = {
    "dl": (validate_distributive_lattice, "distributive lattice", DL),
    "ba": (validate_boolean_algebra, "boolean algebra",
           DL + BOOLEAN_COMPLEMENT),
}


def _agree(kind, a) -> bool:
    """Assert that the validator's report is the identity checks'; return
    whether every identity holds."""
    validator, subject, identities = PATHS[kind]
    witnesses = [(name, loop_first_violation(a, lhs, rhs))
                 for name, lhs, rhs in identities]
    expected = ValidationReport(subject, tuple(
        Check(name, w is None, w) for name, w in witnesses))
    assert validator.__wrapped__(a) == expected, (kind, a)
    return expected.ok


def _tables(n):
    cells = list(product(range(n), repeat=n * n))
    return [[t[x * n:(x + 1) * n] for x in range(n)] for t in cells]


@pytest.mark.parametrize("n", [1, 2])
def test_every_small_algebra(n):
    lawful = {"dl": 0, "ba": 0}
    for join, meet in product(_tables(n), repeat=2):
        lattice = FiniteAlgebra(n, {"join": join, "meet": meet})
        lawful["dl"] += _agree("dl", lattice)
        for neg in product(range(n), repeat=n):
            for zero, one in product(range(n), repeat=2):
                lawful["ba"] += _agree("ba", lattice.with_ops(
                    unary={"neg": neg}, constants={"zero": zero, "one": one}))
    # the one-element lattice; on two elements, the chain both ways
    assert lawful == ({"dl": 1, "ba": 1} if n == 1 else {"dl": 2, "ba": 2})


def _commutative_idempotent(n):
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for values in product(range(n), repeat=len(pairs)):
        table = [[x if x == y else None for y in range(n)] for x in range(n)]
        for (x, y), v in zip(pairs, values):
            table[x][y] = table[y][x] = v
        yield table


def test_every_commutative_idempotent_pair_on_three():
    tables = list(_commutative_idempotent(3))
    lawful = sum(_agree("dl", FiniteAlgebra(3, {"join": j, "meet": m}))
                 for j, m in product(tables, repeat=2))
    # the chain 3, one lattice for each of its 6 labellings
    assert lawful == 6


def _changes(a):
    """Every one-cell change of ``a``: (operation, cell, new value)."""
    n = a.size
    for name, t in a.binary_ops.items():
        for x, y in product(range(n), repeat=2):
            yield from ((name, (x, y), v) for v in range(n) if v != t[x][y])
    for name, t in a.unary_ops.items():
        for x in range(n):
            yield from ((name, x, v) for v in range(n) if v != t[x])
    for name, c in a.constants.items():
        yield from ((name, None, v) for v in range(n) if v != c)


def _mutants(a, rng, limit):
    """``a`` with one table cell, map entry or constant changed: every such
    change, or ``limit`` of them drawn at random."""
    changes = list(_changes(a))
    if len(changes) > limit:
        changes = rng.sample(changes, limit)
    for name, cell, v in changes:
        ops = {f: dict(getattr(a, f))
               for f in ("binary_ops", "unary_ops", "constants")}
        if name in a.binary_ops:
            rows = [list(r) for r in a.binary_ops[name]]
            rows[cell[0]][cell[1]] = v
            ops["binary_ops"][name] = rows
        elif name in a.unary_ops:
            ops["unary_ops"][name] = [
                v if x == cell else u for x, u in enumerate(a.unary_ops[name])]
        else:
            ops["constants"][name] = v
        yield FiniteAlgebra(a.size, *ops.values())


@pytest.mark.parametrize("atoms", range(6))
def test_generator_boolean_algebras_and_their_mutations(atoms):
    rng = Random(atoms)
    a = random_boolean_algebra(rng, atoms, min_atoms=atoms)
    assert _agree("ba", a) and _agree("dl", a.reduct(("join", "meet")))
    # a one-cell change of a table breaks commutativity or idempotency, and
    # the complement and the bounds of a Boolean algebra are unique
    assert not any(_agree("ba", m) for m in _mutants(a, rng, 150))


@pytest.mark.parametrize("seed", range(6))
def test_generator_distributive_lattices_and_their_mutations(seed):
    rng = Random(seed)
    a = random_distributive_lattice(rng, 4)
    assert _agree("dl", a)
    # a one-cell change breaks commutativity or idempotency
    assert not any(_agree("dl", m) for m in _mutants(a, rng, 150))


@pytest.mark.parametrize("kind", ["dl", "ba"])
def test_large_algebras_evaluate_no_identity(monkeypatch, kind):
    # a 300-element chain and the 256-element Boolean algebra: one
    # three-variable law alone has 27 and 16.8 million assignments
    def refuse(*args):
        raise AssertionError("an identity was evaluated")

    monkeypatch.setattr(algebra, "first_violation", refuse)
    if kind == "dl":
        n = 300
        a = FiniteAlgebra(n, {"join": [[max(x, y) for y in range(n)]
                                       for x in range(n)],
                              "meet": [[min(x, y) for y in range(n)]
                                       for x in range(n)]})
    else:
        a = random_boolean_algebra(Random(0), 8, min_atoms=8)
    assert PATHS[kind][0].__wrapped__(a).ok
