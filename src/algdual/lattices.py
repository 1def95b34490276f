"""Finite Priestley duality in its Birkhoff form, its Boolean case, finite
Stone duality, and their fiberwise lifts to systems and bisemilattices.

Every finite ordered discrete space is a Priestley space, so the finite
restriction of Priestley duality is Birkhoff's representation: a finite
distributive lattice dualizes to its poset of join-irreducibles and a finite
poset to its lattice of down-sets.  The one-element lattice has no
join-irreducibles; its dual is the empty poset, which is admitted as an
inverse-system term and flagged in validation reports.

A finite Stone space is a discrete poset (:class:`algdual.orders.FiniteSpace`)
and the atoms of a finite Boolean algebra are its join-irreducibles, so
Stone duality is the Boolean case of the Birkhoff functions, plus
complement and bounds.

A bisemilattice splits into distributive-lattice fibers
(:func:`algdual.systems.plonka_decompose_bsl`, also importable from here).

Only bound-preserving lattice homs have total Birkhoff duals, and only
bottomed index semilattices fit the system types here, so dualization
raises on decompositions that fall outside either restriction.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Optional

from .algebra import (
    FiniteAlgebra,
    RawMap,
    Record,
    forwarder,
    validate_boolean_algebra,
    validate_distributive_lattice,
)
from .errors import (
    IsomorphismFailure,
    NotBoolean,
    NotDistributive,
    TooLarge,
    UnboundedTransition,
)
from .orders import FinitePoset, FiniteSpace, order_from_binary

if TYPE_CHECKING:
    from .morphisms import Morphism
    from .system_morphisms import DirectSystemMorphism, InverseSystemMorphism
    from .systems import DirectSystem, InverseSystem

# plonka_decompose_bsl lives in systems, which loads on first lookup
__getattr__ = forwarder(globals(), {"systems": ("plonka_decompose_bsl",)})

# At 2^10 elements the two 1024 x 1024 tables of a lattice take about 1.5 s
# to build; a power-set algebra or down-set lattice with more elements is
# refused.
MAX_POWER_SET_POINTS = 10


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


def atoms(a: FiniteAlgebra) -> list[int]:
    """Atoms of a lattice-ordered algebra: minimal elements above zero."""
    meet = a.binary("meet")
    zero = a.const("zero")
    leq = order_from_binary(meet, "meet")
    out = []
    for x in range(a.size):
        if x == zero:
            continue
        if all(y in (zero, x) for y in range(a.size) if leq[y][x]):
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
    """All down-sets of the poset ``p`` as bitmasks, ascending.

    Each down-set other than the empty one is a smaller down-set plus an
    element whose strict down-set lies in it, so they are grown from the
    empty set one such element at a time: the work grows with the number of
    down-sets found, not with 2^size.  More than 2^MAX_POWER_SET_POINTS of
    them raise :class:`TooLarge`."""
    below = [sum(1 << j for j in range(p.size) if p.leq[j][i] and j != i)
             for i in range(p.size)]
    found = {0}
    frontier = [0]
    while frontier:
        grown = []
        for d in frontier:
            for i, strict in enumerate(below):
                e = d | 1 << i
                if e != d and not strict & ~d and e not in found:
                    if len(found) == 1 << MAX_POWER_SET_POINTS:
                        raise TooLarge(
                            f"the down-set lattice of a {p.size}-element "
                            f"poset has more than 2^{MAX_POWER_SET_POINTS} "
                            "elements, the limit")
                    found.add(e)
                    grown.append(e)
        frontier = grown
    return sorted(found)


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
    from .morphisms import as_isomorphism

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
    from .morphisms import as_isomorphism

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
    ``poset`` kind of :func:`algdual.search.find_isomorphism`, with its
    colouring."""
    from .algebra import find_isomorphism

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


# ---------------------------------------------------------------------------
# Finite Stone duality: the Boolean case of Birkhoff duality
# ---------------------------------------------------------------------------
# The atoms of a finite Boolean algebra are its join-irreducibles, and every
# subset of a discrete space is a down-set, so the maps and algebras below
# come from the Birkhoff functions above, plus complement and bounds.

def stone_dual(b: FiniteAlgebra) -> FiniteSpace:
    """The dual space of a finite Boolean algebra: its atoms."""
    validate_boolean_algebra(b).require(
        NotBoolean, "input is not a Boolean algebra")
    return FiniteSpace(len(atoms(b)))


def stone_dual_hom(h: Morphism) -> RawMap:
    """Dual of a Boolean homomorphism h: B1 -> B2, as the map sending an
    atom q of B2 to the atom min{x : q <= h(x)} of B1."""
    return priestley_dual_hom(h)


def ba_of_space(x: FiniteSpace) -> FiniteAlgebra:
    """Power-set algebra of a finite space, carrier ordered as subset
    bitmasks: the down-set lattice of the discrete order with complement
    and bounds.  Spaces of more than :data:`MAX_POWER_SET_POINTS` points
    raise :class:`TooLarge` before any table is built."""
    if x.size > MAX_POWER_SET_POINTS:
        raise TooLarge(f"the power-set algebra of a {x.size}-point space has "
                       f"2^{x.size} elements, more than the limit of "
                       f"2^{MAX_POWER_SET_POINTS}")
    full = (1 << x.size) - 1
    return dl_of_poset(x).with_ops(
        unary={"neg": [full ^ a for a in range(full + 1)]},
        constants={"zero": 0, "one": full})


def stone_double_dual_iso(b: FiniteAlgebra) -> Morphism:
    """Canonical isomorphism of a Boolean algebra onto the power set of its
    atom space: x -> the set of atoms below x."""
    from .morphisms import as_isomorphism

    return as_isomorphism(b, ba_of_space(stone_dual(b)),
                          dl_double_dual_iso(b).map, "ba")


# ---------------------------------------------------------------------------
# Lifted functors between system categories
# ---------------------------------------------------------------------------

def lift_functor_dir_to_inv(s: DirectSystem) -> InverseSystem:
    """Stone duality applied fiberwise: terms are the atom spaces, bondings
    the dualized (reversed) transitions."""
    return lift_to_inverse(s, stone_dual)


def lift_functor_inv_to_dir(s: InverseSystem) -> DirectSystem:
    """The power-set functor applied fiberwise: fibers are the power-set
    algebras, transitions the preimage homs of the bondings."""
    return lift_to_direct(s, ba_of_space, "ba")


def lift_system_morphism_dir_to_inv(m: DirectSystemMorphism) -> InverseSystemMorphism:
    """Contravariant action on morphisms: (phi, f_i) becomes (phi, dual f_i)
    from the lift of the target system to the lift of the source."""
    from .system_morphisms import InverseSystemMorphism

    src = lift_functor_dir_to_inv(m.target)
    tgt = lift_functor_dir_to_inv(m.source)
    comps = {i: stone_dual_hom(m.components[i])
             for i in range(m.source.index.size)}
    return InverseSystemMorphism(src, tgt, m.index_map, comps)
