"""Finite orders: order matrices, the partial-order check, the orders an
operation table induces, and the two ordered structures that are documents
of their own, finite posets and finite discrete spaces.

An order matrix holds ``leq[x][y]`` for x <= y.  Sets of elements are byte
sets (:func:`byteset`), so a union, intersection or subset test of up-sets
or down-sets is one int operation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Optional, Sequence

from .algebra import Check, FiniteAlgebra, Record, Table, ValidationReport

OrderMatrix = tuple[tuple[bool, ...], ...]


def byteset(row: Sequence[int]) -> int:
    """The set of positions y where ``row[y]`` is 1 or True, as the int
    with byte y equal to ``row[y]``."""
    return int.from_bytes(bytes(row), "little")


def _least(s: int) -> int:
    """The least element of a non-empty byte set."""
    return (s & -s).bit_length() - 1 >> 3


def order_from_binary(table: Table, via: str) -> OrderMatrix:
    """Relation matrix of an operation-induced order.

    ``via='join'`` gives x <= y iff x + y = y; ``via='meet'`` gives
    x <= y iff x . y = x.
    """
    n = len(table)
    if via == "join":
        return tuple(tuple(table[x][y] == y for y in range(n)) for x in range(n))
    if via == "meet":
        return tuple(tuple(table[x][y] == x for y in range(n)) for x in range(n))
    raise ValueError(via)


def is_partial_order(leq: OrderMatrix) -> Optional[tuple[int, ...]]:
    """None if ``leq`` is a partial order, else the first witness: ``(x,)``
    of reflexivity, ``(x, y)`` of antisymmetry or ``(x, y, z)`` of
    transitivity, each in lexicographic order.  Up-sets U(y) and down-sets
    are byte sets, so the z of a transitivity witness for x <= y is the
    least element of U(y) outside U(x)."""
    up = [byteset(row) for row in leq]
    for x, row in enumerate(leq):
        if not row[x]:
            return (x,)
    for x, (u, col) in enumerate(zip(up, zip(*leq))):
        if u & byteset(col) != 1 << 8 * x:
            return x, _least(u & byteset(col) ^ 1 << 8 * x)
    for x, (u, row) in enumerate(zip(up, leq)):
        for y in compress(range(len(leq)), row):
            if up[y] & ~u:
                return x, y, _least(up[y] & ~u)
    return None


def induced_orders(a: FiniteAlgebra) -> tuple[OrderMatrix, OrderMatrix]:
    """The two partial orders of a bisemilattice: (join order, meet order).

    The join order has x <= y iff x + y = y; the meet order has x <= y iff
    x . y = x.  Requires a valid bisemilattice.
    """
    from .algebra import validate_bisemilattice
    from .errors import NotBisemilattice

    validate_bisemilattice(a).require(NotBisemilattice, "not a bisemilattice")
    return (order_from_binary(a.binary("join"), "join"),
            order_from_binary(a.binary("meet"), "meet"))


# ---------------------------------------------------------------------------
# Finite posets and discrete spaces, and their documents
# ---------------------------------------------------------------------------

class FinitePoset(Record):
    """A finite partial order; possibly empty (dual of the one-element
    lattice)."""

    size: int
    leq: OrderMatrix

    def __init__(self, size: int, leq):
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        if size < 0:
            raise ValueError("negative size")
        if len(leq) != size or any(len(r) != size for r in leq):
            raise ValueError("order matrix does not match size")
        w = is_partial_order(leq)
        if w is not None:
            raise ValueError(f"not a partial order, witness {w}")
        self.__dict__.update(size=size, leq=leq)


class FiniteSpace(Record):
    """A finite discrete space; possibly empty (dual of the one-element
    Boolean algebra).  With its discrete order it is the poset whose
    Birkhoff dual is its power-set algebra."""

    size: int

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("negative size")
        self.__dict__["size"] = size

    @cached_property
    def leq(self) -> OrderMatrix:
        return tuple(tuple(x == y for y in range(self.size))
                     for x in range(self.size))


def parse_poset(data: dict) -> tuple:
    """The size and order matrix of a ``poset`` document, not yet checked
    to be a partial order."""
    from .documents import expect_int, parse_matrix01

    size = expect_int(data, "size")
    return size, parse_matrix01(data, "leq", size)


def check_poset(payload: tuple) -> ValidationReport:
    w = is_partial_order(payload[1])
    return ValidationReport("finite poset",
                            (Check("order-partial", w is None, w),))


def poset_data(p: FinitePoset, kind: str) -> dict:
    return {"kind": kind, "size": p.size,
            "leq": [list(map(int, r)) for r in p.leq]}


def parse_space(data: dict) -> FiniteSpace:
    from .documents import expect_int, fail

    size = expect_int(data, "size")
    if size < 0:
        raise fail("space size must be non-negative")
    return FiniteSpace(size)
