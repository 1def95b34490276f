"""Morphisms of semilattice direct and inverse systems, and the
translation between homs of Plonka sums and direct-system morphisms.

A direct-system morphism is an index map and a hom per fiber whose squares
with the transitions commute: the two composites around a square
(``algebra.compose``) agree, and a square that does not commute is reported
at the first point where they differ.  An inverse-system morphism runs its
index map against the arrows.  No ``algctl`` command builds them, so they
live apart from :mod:`algdual.systems`.  Plonka sums are built through
``systems.plonka_sum``, so a wrapper installed there sees them.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Sequence

from .algebra import FiniteAlgebra, RawMap, Record, compose, first_difference
from .documents import KIND_TABLE
from .errors import DomainMismatch, FiberSplit, InvalidSystemMorphism
from . import systems
from .morphisms import Morphism
from .systems import DirectSystem, InverseSystem, JoinSemilattice


def _require_index_map(phi: Morphism, source: JoinSemilattice,
                       target: JoinSemilattice) -> None:
    if phi.source != source.algebra or phi.target != target.algebra:
        raise InvalidSystemMorphism("index map endpoints do not match")
    if phi.kind != "sl":
        raise InvalidSystemMorphism("index map must be a semilattice hom")


class DirectSystemMorphism(Record):
    """Pair (index map, per-fiber homs) with commuting squares.

    ``index_map`` is a bottom-preserving semilattice hom between the index
    algebras; component i maps fiber(i) of the source into fiber(phi(i)) of
    the target, and for i <= i' the square with both transition homs
    commutes.
    """

    source: DirectSystem
    target: DirectSystem
    index_map: Morphism
    components: Mapping[int, Morphism]

    def __init__(self, source: DirectSystem, target: DirectSystem,
                 index_map: Morphism, components: Mapping[int, Morphism]):
        components = dict(components)
        phi = index_map
        _require_index_map(phi, source.index, target.index)
        for i in range(source.index.size):
            comp = components.get(i)
            if comp is None:
                raise InvalidSystemMorphism(f"missing component at index {i}")
            if (comp.source != source.fiber(i)
                    or comp.target != target.fiber(phi(i))):
                raise InvalidSystemMorphism(
                    f"component {i} endpoints do not match")
        for i, j in source.index.comparable_pairs():
            x = first_difference(
                compose(components[j].map, source.transitions[(i, j)]),
                compose(target.transitions[(phi(i), phi(j))],
                        components[i].map))
            if x is not None:
                raise InvalidSystemMorphism(
                    f"square ({i},{j}) does not commute at {x}")
        self.__dict__.update(source=source, target=target,
                             index_map=index_map, components=components)


class InverseSystemMorphism(Record):
    """Morphism of inverse systems: an index map running against the arrow
    direction plus per-index term maps.

    For source X (index I) and target Y (index J), ``index_map`` is a
    semilattice hom J -> I and component j maps term X_phi(j) -> Y_j; for
    j <= j' the square with both bonding maps commutes.
    """

    source: InverseSystem
    target: InverseSystem
    index_map: Morphism
    components: Mapping[int, RawMap]

    def __init__(self, source: InverseSystem, target: InverseSystem,
                 index_map: Morphism,
                 components: Mapping[int, Sequence[int]]):
        components = {k: tuple(v) for k, v in components.items()}
        phi = index_map
        _require_index_map(phi, target.index, source.index)
        for j in range(target.index.size):
            vec = components.get(j)
            if vec is None:
                raise InvalidSystemMorphism(f"missing component at index {j}")
            src = source.term(phi(j))
            tgt = target.term(j)
            if len(vec) != src.size or any(v >= tgt.size for v in vec):
                raise InvalidSystemMorphism(
                    f"component {j} is not a map term({phi(j)}) -> term({j})")
        for j, j2 in target.index.comparable_pairs():
            x = first_difference(
                compose(components[j], source.bondings[(phi(j), phi(j2))]),
                compose(target.bondings[(j, j2)], components[j2]))
            if x is not None:
                raise InvalidSystemMorphism(
                    f"square ({j},{j2}) does not commute at {x}")
        self.__dict__.update(source=source, target=target,
                             index_map=index_map, components=components)


def identity_system_morphism(system):
    phi, n = Morphism.identity(system.index.algebra, "sl"), system.index.size
    if isinstance(system, DirectSystem):
        return DirectSystemMorphism(system, system, phi, {
            i: Morphism.identity(system.fiber(i), system.kind) for i in range(n)})
    return InverseSystemMorphism(system, system, phi, {
        i: tuple(range(system.term(i).size)) for i in range(n)})


def compose_system_morphisms(m2, m1):
    """m2 after m1.

    Direct variant: index maps compose covariantly and component i is
    g_phi1(i) . f_i.  Inverse variant: index maps compose the other way
    around and component k is g_k . f_psi(k).
    """
    if isinstance(m1, DirectSystemMorphism) and isinstance(m2, DirectSystemMorphism):
        if m1.target != m2.source:
            raise DomainMismatch("system morphisms do not compose")
        chi = m2.index_map.compose(m1.index_map)
        comps = {i: m2.components[m1.index_map(i)].compose(m1.components[i])
                 for i in range(m1.source.index.size)}
        return DirectSystemMorphism(m1.source, m2.target, chi, comps)
    if isinstance(m1, InverseSystemMorphism) and isinstance(m2, InverseSystemMorphism):
        if m1.target != m2.source:
            raise DomainMismatch("system morphisms do not compose")
        chi = m1.index_map.compose(m2.index_map)
        comps = {k: compose(m2.components[k], m1.components[m2.index_map(k)])
                 for k in range(m2.target.index.size)}
        return InverseSystemMorphism(m1.source, m2.target, chi, comps)
    raise DomainMismatch("cannot compose morphisms of different variants")


# ---------------------------------------------------------------------------
# The equivalence between algebras and systems
# ---------------------------------------------------------------------------

def _expect_sum(h_end: FiniteAlgebra, system: DirectSystem, side: str) -> None:
    expected = systems.plonka_sum(system)
    if any(getattr(expected, f) != getattr(h_end, f)
           for f in ("size", "binary_ops", "unary_ops", "constants")):
        raise DomainMismatch(
            f"hom {side} is not the Plonka sum of the given system")


def induced_index_map(h: Morphism, da: DirectSystem, db: DirectSystem) -> Morphism:
    """The semilattice hom phi with h(fiber_i) inside fiber_phi(i), checked
    exhaustively."""
    _expect_sum(h.source, da, "source")
    _expect_sum(h.target, db, "target")
    offs_a = da.offsets()
    phi = []
    for i in range(da.index.size):
        images = {db.locate(h(offs_a[i] + a))[0]
                  for a in range(da.fiber(i).size)}
        if len(images) != 1:
            raise FiberSplit(
                f"fiber {i} is scattered across target fibers {sorted(images)}")
        phi.append(images.pop())
    return Morphism(da.index.algebra, db.index.algebra, tuple(phi), "sl")


def restrict_to_fibers(h: Morphism, da: DirectSystem,
                       db: DirectSystem) -> dict[int, Morphism]:
    """Per-index restrictions of an algebra hom, as fiber homs."""
    return _fiber_restrictions(h, da, db, induced_index_map(h, da, db))


def _fiber_restrictions(h: Morphism, da: DirectSystem, db: DirectSystem,
                        phi: Morphism) -> dict[int, Morphism]:
    offs_a, offs_b = da.offsets(), db.offsets()
    out = {}
    for i in range(da.index.size):
        j = phi(i)
        vec = tuple(h(offs_a[i] + a) - offs_b[j]
                    for a in range(da.fiber(i).size))
        out[i] = Morphism(da.fiber(i), db.fiber(j), vec, da.kind)
    return out


def hom_to_system_morphism(h: Morphism, da: DirectSystem,
                           db: DirectSystem) -> DirectSystemMorphism:
    phi = induced_index_map(h, da, db)
    return DirectSystemMorphism(da, db, phi,
                                _fiber_restrictions(h, da, db, phi))


def system_morphism_to_hom(m: DirectSystemMorphism) -> Morphism:
    """Glue the components of a system morphism into one hom of the sums."""
    a, b = systems.plonka_sum(m.source), systems.plonka_sum(m.target)
    offs_b = m.target.offsets()
    vec = []
    for i in range(m.source.index.size):
        j = m.index_map(i)
        for x in range(m.source.fiber(i).size):
            vec.append(offs_b[j] + m.components[i](x))
    kind = m.source.kind
    return Morphism(a, b, tuple(vec), KIND_TABLE[kind].get("sum_kind", kind))


def enumerate_system_morphisms(da: DirectSystem,
                               db: DirectSystem) -> list[DirectSystemMorphism]:
    """All system morphisms da -> db, ordered by (index map, components)."""
    from .algebra import enumerate_homs

    out = []

    @cache
    def fiber_homs(i, j) -> list[Morphism]:
        return enumerate_homs(da.fiber(i), db.fiber(j), da.kind,
                              validate=False)

    comparable = da.index.comparable_pairs()
    for phi in enumerate_homs(da.index.algebra, db.index.algebra, "sl",
                              validate=False):
        chosen: dict[int, Morphism] = {}

        def squares_ok(i: int) -> bool:
            return all(
                compose(chosen[y].map, da.transitions[(x, y)])
                == compose(db.transitions[(phi(x), phi(y))], chosen[x].map)
                for (x, y) in comparable
                if x in chosen and y in chosen and (x == i or y == i))

        def extend(i: int):
            if i == da.index.size:
                out.append(DirectSystemMorphism(da, db, phi, dict(chosen)))
                return
            for f in fiber_homs(i, phi(i)):
                chosen[i] = f
                if squares_ok(i):
                    extend(i + 1)
                del chosen[i]

        extend(0)
    return out
