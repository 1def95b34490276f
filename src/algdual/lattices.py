"""Finite Priestley duality in its Birkhoff form, and its fiberwise lift
to bisemilattices, the Plonka sums of distributive lattices.

Every finite ordered discrete space is a Priestley space, so the finite
restriction of Priestley duality is Birkhoff's representation: a finite
distributive lattice dualizes to its poset of join-irreducibles and a finite
poset to its lattice of down-sets.  The one-element lattice has no
join-irreducibles; its dual is the empty poset, which is admitted as an
inverse-system term and flagged in validation reports.

A bisemilattice splits into distributive-lattice fibers
(:func:`algdual.systems.plonka_decompose_bsl`, also importable from here).
A finite Stone space is the discrete poset, so the Boolean case of every
function here is finite Stone duality (:mod:`algdual.duality`).

Only bound-preserving lattice homs have total Birkhoff duals, and only
bottomed index semilattices fit the system types here, so dualization
raises on decompositions that fall outside either restriction.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Optional

from .algebra import (
    FiniteAlgebra,
    Morphism,
    OrderMatrix,
    RawMap,
    Record,
    as_isomorphism,
    find_isomorphism,
    is_partial_order,
    order_from_binary,
    validate_distributive_lattice,
)
from .errors import IsomorphismFailure, NotDistributive, UnboundedTransition

if TYPE_CHECKING:
    from .systems import DirectSystem, InverseSystem


def __getattr__(name: str):
    # plonka_decompose_bsl lives in systems, which loads on first lookup
    if name != "plonka_decompose_bsl":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .systems import plonka_decompose_bsl

    globals()[name] = plonka_decompose_bsl
    return plonka_decompose_bsl


class DistributiveLattice(Record):
    """A finite algebra validated against the distributive-lattice axioms."""

    algebra: FiniteAlgebra

    def __init__(self, algebra: FiniteAlgebra):
        validate_distributive_lattice(algebra).require(
            NotDistributive, "not a distributive lattice")
        self.__dict__["algebra"] = algebra

    @property
    def size(self) -> int:
        return self.algebra.size


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


def _as_lattice(d) -> DistributiveLattice:
    return d if isinstance(d, DistributiveLattice) else DistributiveLattice(d)


def lattice_bounds(d: FiniteAlgebra) -> tuple[int, int]:
    meet, join = d.binary("meet"), d.binary("join")
    bot = reduce(lambda a, b: meet[a][b], range(d.size))
    top = reduce(lambda a, b: join[a][b], range(d.size))
    return bot, top


def join_irreducibles(d: FiniteAlgebra) -> list[int]:
    """Elements other than the bottom that are not proper joins: in a finite
    lattice, those above the join of all elements strictly below them (the
    bottom is the empty join)."""
    join = d.binary("join")
    bot, _ = lattice_bounds(d)
    out = []
    for x in range(d.size):
        below = [y for y in range(d.size) if y != x and join[y][x] == x]
        if reduce(lambda u, v: join[u][v], below, bot) != x:
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Birkhoff duality
# ---------------------------------------------------------------------------

def priestley_dual(d) -> FinitePoset:
    """The poset of join-irreducibles with the induced order."""
    alg = _as_lattice(d).algebra
    irr = join_irreducibles(alg)
    leq = order_from_binary(alg.binary("meet"), "meet")
    return FinitePoset(len(irr),
                       tuple(tuple(leq[p][q] for q in irr) for p in irr))


def downset_masks(p: FinitePoset) -> list[int]:
    """All down-sets of the poset as bitmasks, ascending."""
    down = [sum(1 << j for j in range(p.size) if p.leq[j][i])
            for i in range(p.size)]
    out = []
    for mask in range(1 << p.size):
        closure = mask
        for i in range(p.size):
            if (mask >> i) & 1:
                closure |= down[i]
        if closure == mask:
            out.append(mask)
    return out


def dl_of_poset(p: FinitePoset) -> FiniteAlgebra:
    """The distributive lattice of down-sets ordered by inclusion."""
    masks = downset_masks(p)
    rank = {m: k for k, m in enumerate(masks)}
    names = tuple(
        "{" + ",".join(str(i) for i in range(p.size) if (m >> i) & 1) + "}"
        if m else "∅" for m in masks)
    return FiniteAlgebra(
        len(masks),
        {"join": [[rank[a | b] for b in masks] for a in masks],
         "meet": [[rank[a & b] for b in masks] for a in masks]},
        names=names)


def priestley_dual_hom(h: Morphism) -> RawMap:
    """Dual of a bound-preserving lattice hom h: D1 -> D2: the monotone map
    sending a join-irreducible q of D2 to min{x in D1 : q <= h(x)}.

    Homomorphisms that move a bound have no total Birkhoff dual; they raise
    :class:`UnboundedTransition`.
    """
    d1, d2 = h.source, h.target
    bot1, top1 = lattice_bounds(d1)
    bot2, top2 = lattice_bounds(d2)
    if h(bot1) != bot2 or h(top1) != top2:
        raise UnboundedTransition(
            "lattice hom does not preserve bounds; no total Birkhoff dual")
    irr1, irr2 = join_irreducibles(d1), join_irreducibles(d2)
    meet1 = d1.binary("meet")
    leq2 = order_from_binary(d2.binary("meet"), "meet")
    out = []
    for q in irr2:
        above = [x for x in range(d1.size) if leq2[q][h(x)]]
        m = reduce(lambda a, b: meet1[a][b], above, top1)
        if m not in irr1:
            raise UnboundedTransition(
                "dual point is not join-irreducible; input hom is broken")
        out.append(irr1.index(m))
    return tuple(out)


def dl_double_dual_iso(d) -> Morphism:
    """Canonical isomorphism of a distributive lattice onto the down-set
    lattice of its join-irreducibles: x -> {q in J : q <= x}."""
    alg = _as_lattice(d).algebra
    irr = join_irreducibles(alg)
    leq = order_from_binary(alg.binary("meet"), "meet")
    dual_poset = priestley_dual(alg)
    target = dl_of_poset(dual_poset)
    masks = downset_masks(dual_poset)
    rank = {m: k for k, m in enumerate(masks)}
    vec = []
    for x in range(alg.size):
        mask = sum(1 << k for k, q in enumerate(irr) if leq[q][x])
        if mask not in rank:
            raise IsomorphismFailure("image is not a down-set")
        vec.append(rank[mask])
    return as_isomorphism(alg, target, vec, "dl")


def poset_double_dual_iso(p: FinitePoset) -> RawMap:
    """Canonical order isomorphism of a poset onto the join-irreducibles of
    its down-set lattice: x -> the principal down-set of x."""
    lat = dl_of_poset(p)
    masks = downset_masks(p)
    irr = join_irreducibles(lat)
    vec = []
    for x in range(p.size):
        principal = sum(1 << j for j in range(p.size) if p.leq[j][x])
        k = masks.index(principal)
        if k not in irr:
            raise IsomorphismFailure("principal down-set is not irreducible")
        vec.append(irr.index(k))
    return as_isomorphism(p, priestley_dual(lat), vec, "poset").map


def find_poset_isomorphism(p: FinitePoset, q: FinitePoset) -> Optional[RawMap]:
    """First order isomorphism in lexicographic order, or None: the
    ``poset`` kind of :func:`find_isomorphism`, with its colouring."""
    iso = find_isomorphism(p, q, "poset", validate=False)
    return None if iso is None else iso.map


# ---------------------------------------------------------------------------
# Systems of distributive lattices and posets
# ---------------------------------------------------------------------------

def lift_to_inverse(s: DirectSystem, dual) -> InverseSystem:
    """A duality applied termwise to a direct system: the same index, the
    terms ``dual`` of the fibers, and the bondings the Birkhoff duals of
    the transitions (bound-preserving transitions only)."""
    from .systems import InverseSystem

    terms = {i: dual(s.fiber(i)) for i in range(s.index.size)}
    bondings = {pair: priestley_dual_hom(s.transition(*pair))
                for pair in s.index.comparable_pairs()}
    return InverseSystem(s.index, terms, bondings)


def lift_to_direct(s: InverseSystem, algebra_of, kind: str) -> DirectSystem:
    """The way back: the fibers ``algebra_of`` the terms, down-set algebras
    of kind ``kind``, and as transitions the preimages under the bondings."""
    from .systems import DirectSystem

    # fibers first, so a term that ``algebra_of`` refuses as too large is
    # refused before the masks below enumerate its subsets
    fibers = {i: algebra_of(s.term(i)) for i in range(s.index.size)}
    transitions = {}
    for (i, j) in s.index.comparable_pairs():
        vec = s.bonding(i, j)
        rank_j = {m: p for p, m in enumerate(downset_masks(s.term(j)))}
        transitions[(i, j)] = tuple(
            rank_j[sum(1 << x for x in range(s.term(j).size)
                       if (mask >> vec[x]) & 1)]
            for mask in downset_masks(s.term(i)))
    return DirectSystem(s.index, fibers, transitions, kind)


def lift_system_dl_to_posets(s: DirectSystem) -> InverseSystem:
    """Birkhoff duality applied fiberwise to a direct system of
    distributive lattices."""
    return lift_to_inverse(s, priestley_dual)


def lift_system_posets_to_dl(s: InverseSystem) -> DirectSystem:
    """The down-set lattices rebuilt fiberwise from an inverse system of
    finite posets."""
    return lift_to_direct(s, dl_of_poset, "dl")


def bsl_to_inverse_system(b: FiniteAlgebra) -> InverseSystem:
    """Decompose into distributive-lattice fibers, then dualize fiberwise
    into a semilattice inverse system of finite posets."""
    from .systems import plonka_decompose_bsl

    return lift_system_dl_to_posets(plonka_decompose_bsl(b))


def inverse_system_to_bsl(s: InverseSystem) -> FiniteAlgebra:
    """Round-trip inverse of :func:`bsl_to_inverse_system`: rebuild the
    down-set lattices fiberwise and take the Plonka sum."""
    from .systems import plonka_sum

    return plonka_sum(lift_system_posets_to_dl(s))
