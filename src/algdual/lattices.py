"""Finite Priestley duality in its Birkhoff form, its Boolean case, finite
Stone duality, and their fiberwise lifts to systems and bisemilattices.

Every finite ordered discrete space is a Priestley space, so the finite
restriction of Priestley duality is Birkhoff's representation: a finite
distributive lattice dualizes to its poset of join-irreducibles and a finite
poset to its lattice of down-sets.  The one-element lattice has no
join-irreducibles; its dual is the empty poset, which is admitted as an
inverse-system term and flagged in validation reports.

Every dual and double dual here reads one labelling of a lattice,
:func:`algdual.algebra.birkhoff_labels`: its join-irreducibles, and each
element's set of them below it as an int.  A finite Stone space is a
discrete poset (:class:`algdual.orders.FiniteSpace`) and the atoms of a
finite Boolean algebra are its join-irreducibles, so Stone duality is the
Boolean case of the Birkhoff functions, plus complement and bounds.  A
Boolean algebra of 2^k elements has k atoms, so its Stone dual needs no
labelling, and the power-set algebra has a closed form.

A bisemilattice splits into distributive-lattice fibers
(:func:`algdual.systems.plonka_decompose_bsl`, also importable from here).

Only bound-preserving lattice homs have total Birkhoff duals, and only
bottomed index semilattices fit the system types here, so dualization
raises on decompositions that fall outside either restriction.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import TYPE_CHECKING, Optional

from .algebra import (
    FiniteAlgebra,
    RawMap,
    Record,
    birkhoff_labels,
    bitset,
    forwarder,
    row_kernel,
    validate_boolean_algebra,
    validate_distributive_lattice,
)
from .errors import (
    NotBoolean,
    NotDistributive,
    TooLarge,
    UnboundedTransition,
)
from .orders import FinitePoset, FiniteSpace

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


def _as_lattice(d) -> DistributiveLattice:
    return d if isinstance(d, DistributiveLattice) else DistributiveLattice(d)


def join_irreducibles(d: FiniteAlgebra) -> list[int]:
    """Elements other than the bottom that are not proper joins, in index
    order (:func:`algdual.algebra.birkhoff_labels`)."""
    return birkhoff_labels(d)[0]


def atoms(a: FiniteAlgebra) -> list[int]:
    """Atoms of a finite lattice: the minimal join-irreducibles, whose
    label is their own bit alone (in a Boolean algebra, all of them)."""
    irr, labels = birkhoff_labels(a)
    return [x for k, x in enumerate(irr) if labels[x] == 1 << k]


# ---------------------------------------------------------------------------
# Birkhoff duality
# ---------------------------------------------------------------------------

def _irreducible_poset(irr: list[int], labels: list[int]) -> FinitePoset:
    # the k-th join-irreducible lies below q when q's label has bit k
    return FinitePoset(len(irr), [[labels[q] >> k & 1 for q in irr]
                                  for k in range(len(irr))])


def priestley_dual(d) -> FinitePoset:
    """The poset of join-irreducibles with the induced order."""
    return _irreducible_poset(*birkhoff_labels(_as_lattice(d).algebra))


def downset_masks(p: FinitePoset) -> list[int]:
    """All down-sets of the poset ``p`` as bit sets, ascending.

    Each down-set other than the empty one is a smaller down-set plus an
    element whose strict down-set lies in it, so they are grown from the
    empty set one such element at a time: the work grows with the number of
    down-sets found, not with 2^size.  More than 2^MAX_POWER_SET_POINTS of
    them raise :class:`TooLarge`."""
    below = [d & ~(1 << i) for i, d in enumerate(map(bitset, zip(*p.leq)))]
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


def _set_names(masks, points: int) -> tuple[str, ...]:
    """Each subset mask's display name: its points in braces, or ∅."""
    return tuple("{" + ",".join(str(i) for i in range(points) if m >> i & 1)
                 + "}" if m else "∅" for m in masks)


def dl_of_poset(p: FinitePoset) -> FiniteAlgebra:
    """The distributive lattice of down-sets ordered by inclusion: row a of
    join (meet) is the rank of a | b (a & b) for each down-set b, mapped
    over the masks a row at a time."""
    masks = downset_masks(p)
    rank = {m: k for k, m in enumerate(masks)}.__getitem__
    return FiniteAlgebra(
        len(masks),
        {"join": [list(map(rank, map(a.__or__, masks))) for a in masks],
         "meet": [list(map(rank, map(a.__and__, masks))) for a in masks]},
        names=_set_names(masks, p.size))


def priestley_dual_hom(h: Morphism) -> RawMap:
    """Dual of a bound-preserving lattice hom h: D1 -> D2, also
    :func:`stone_dual_hom`: the monotone map sending a join-irreducible q
    of D2 to the least join-irreducible p of D1 with q <= h(p).

    Homomorphisms that move a bound (the element with the empty or the
    full label) have no total Birkhoff dual; they raise
    :class:`UnboundedTransition`.
    """
    f = h.map
    irr1, labels1 = birkhoff_labels(h.source)
    irr2, labels2 = birkhoff_labels(h.target)
    full1, full2 = (1 << len(irr1)) - 1, (1 << len(irr2)) - 1
    if (labels2[f[labels1.index(0)]] != 0
            or labels2[f[labels1.index(full1)]] != full2):
        raise UnboundedTransition(
            "lattice hom does not preserve bounds; no total Birkhoff dual")
    # the least p is the meet of all, whose label is their intersection
    pairs = [(labels1[p], labels2[f[p]]) for p in irr1]
    least = [reduce(and_, (mine for mine, image in pairs if image >> k & 1),
                    full1) for k in range(len(irr2))]
    position = {labels1[p]: k for k, p in enumerate(irr1)}
    if not position.keys() >= set(least):
        raise UnboundedTransition(
            "dual point is not join-irreducible; input hom is broken")
    return tuple(map(position.__getitem__, least))


def point_map_hom(labels_a, labels_b, g) -> RawMap:
    """The hom A -> B dual to a map ``g`` from the points of B to those of
    A, inverse to :func:`priestley_dual_hom`: x goes to the element of B
    labelled {q : g(q) in label(x)}, a label being a set of points as an
    int (:func:`downset_masks`, :func:`algdual.algebra.birkhoff_labels`)."""
    rank = {m: y for y, m in enumerate(labels_b)}.__getitem__
    return tuple(rank(bitset(x >> p & 1 for p in g)) for x in labels_a)


def dl_double_dual_iso(d) -> Morphism:
    """Canonical isomorphism of a distributive lattice onto the down-set
    lattice of its join-irreducibles: x -> {q in J : q <= x}, the rank of
    x's label among the labels, which are the down-sets of J."""
    from .morphisms import as_isomorphism

    alg = _as_lattice(d).algebra
    irr, labels = birkhoff_labels(alg)
    rank = {m: k for k, m in enumerate(sorted(labels))}
    return as_isomorphism(alg, dl_of_poset(_irreducible_poset(irr, labels)),
                          [rank[m] for m in labels], "dl")


def poset_double_dual_iso(p: FinitePoset) -> RawMap:
    """Canonical order isomorphism of a poset onto the join-irreducibles of
    its down-set lattice: x -> the principal down-set of x, whose rank among
    the principal down-sets is its rank among the join-irreducibles."""
    from .morphisms import as_isomorphism

    principal = list(map(bitset, zip(*p.leq)))
    rank = {m: k for k, m in enumerate(sorted(principal))}
    return as_isomorphism(p, priestley_dual(dl_of_poset(p)),
                          [rank[m] for m in principal], "poset").map


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
    terms = [s.term(i) for i in range(s.index.size)]
    fibers = {i: algebra_of(t) for i, t in enumerate(terms)}
    masks = [downset_masks(t) for t in terms]
    transitions = {(i, j): point_map_hom(masks[i], masks[j], s.bonding(i, j))
                   for (i, j) in s.index.comparable_pairs()}
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
    """The dual space of a finite Boolean algebra: its atoms, k of them
    when it has 2^k elements."""
    validate_boolean_algebra(b).require(
        NotBoolean, "input is not a Boolean algebra")
    return FiniteSpace(b.size.bit_length() - 1)


# the dual of a Boolean hom h: B1 -> B2 sends an atom q of B2 to the atom
# min{x : q <= h(x)} of B1
stone_dual_hom = priestley_dual_hom


def ba_of_space(x: FiniteSpace) -> FiniteAlgebra:
    """Power-set algebra of a finite space, carrier ordered as subset
    bitmasks, in closed form: join ``a | b``, meet ``a & b``, complement
    ``full ^ a``, a row at a time.  It is the down-set lattice of the
    discrete order with complement and bounds.  Spaces of more than
    :data:`MAX_POWER_SET_POINTS` points raise :class:`TooLarge` before any
    table is built."""
    if x.size > MAX_POWER_SET_POINTS:
        raise TooLarge(f"the power-set algebra of a {x.size}-point space has "
                       f"2^{x.size} elements, more than the limit of "
                       f"2^{MAX_POWER_SET_POINTS}")
    masks = range(1 << x.size)
    full = masks[-1]
    make = row_kernel(len(masks))[0]
    return FiniteAlgebra(
        len(masks),
        {"join": [make(map(a.__or__, masks)) for a in masks],
         "meet": [make(map(a.__and__, masks)) for a in masks]},
        {"neg": make(map(full.__xor__, masks))}, {"zero": 0, "one": full},
        names=_set_names(masks, x.size))


def stone_double_dual_iso(b: FiniteAlgebra) -> Morphism:
    """Canonical isomorphism of a Boolean algebra onto the power set of its
    atom space: x -> the set of atoms below x, its label."""
    from .morphisms import as_isomorphism

    return as_isomorphism(b, ba_of_space(stone_dual(b)),
                          birkhoff_labels(b)[1], "ba")


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
