"""Semilattice direct and inverse systems, their morphisms, and the Plonka
sum construction with its inverse decomposition.

A direct system is a family of algebras of one kind indexed by a join
semilattice with bottom, together with a transition homomorphism for every
comparable pair of indices (not only covers), validated for identity and
full transitivity.  Inverse systems index arbitrary finite terms (discrete
spaces or posets, anything with a ``size``) and reverse the arrows.

The Plonka sum lays its carrier out canonically: fibers concatenated in
index order, elements in fiber order, so equal inputs produce identical
tables, and :func:`plonka_layout` names the bijection from the sum of a
decomposition onto the decomposed algebra.  The decomposition splits a
bisemilattice into distributive-lattice fibers along
``a * b = a . (a + b)``, and an involutive bisemilattice into the same
fibers, there Boolean algebras indexed by their local units ``a + a'``.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Optional, Sequence

from .algebra import (
    Check,
    FiniteAlgebra,
    JoinSemilattice,
    Morphism,
    RawMap,
    Record,
    ValidationReport,
    _first_pair,
    enumerate_homs,
    ibsl_completion,
    morphism_violations,
    row_kernel,
    validate_bisemilattice,
    validate_ibsl,
    validate_for_kind,
    validate_semilattice,
)
from .errors import (
    DomainMismatch,
    FiberSplit,
    IllDefinedTransition,
    InvalidSystem,
    InvalidSystemMorphism,
    MissingBottom,
    NotBisemilattice,
    NotIBSL,
)


def _compose_raw(outer: Sequence[int], inner: Sequence[int]) -> RawMap:
    return tuple(outer[v] for v in inner)


def _identity_raw(n: int) -> RawMap:
    return tuple(range(n))


# ---------------------------------------------------------------------------
# Coherence checking, shared by both system variants
# ---------------------------------------------------------------------------

def _check_index(index_algebra: FiniteAlgebra, bottom: int) -> list[Check]:
    checks = list(validate_semilattice(index_algebra).checks)
    join = index_algebra.binary_ops.get("join")
    if join is not None:
        ok = all(join[bottom][x] == x for x in range(index_algebra.size))
        witness = None
        if not ok:
            witness = next((bottom, x) for x in range(index_algebra.size)
                           if join[bottom][x] != x)
        checks.append(Check("index-bottom", ok, witness))
    return checks


def _comparable_pairs(index_algebra: FiniteAlgebra):
    join = index_algebra.binary("join")
    n = index_algebra.size
    return [(i, j) for i in range(n) for j in range(n) if join[i][j] == j]


def check_system(index_algebra: FiniteAlgebra, bottom: int,
                 objects: Mapping[int, object],
                 arrows: Mapping[tuple[int, int], Sequence[int]],
                 kind: Optional[str], *, inverse: bool,
                 subject: str) -> ValidationReport:
    """Full coherence report for a system given raw tables.

    ``arrows`` maps comparable index pairs (i, j), i <= j, to value vectors;
    in a direct system the vector describes object(i) -> object(j), in an
    inverse one object(j) -> object(i).  ``kind`` names the fiber validator
    for direct systems; inverse-system terms need only sizes (plus
    monotonicity when they carry an order).
    """
    checks = _check_index(index_algebra, bottom)
    semilattice_ok = all(c.holds for c in checks)

    n = index_algebra.size
    missing = [i for i in range(n) if i not in objects]
    checks.append(Check("objects-complete", not missing,
                        (missing[0],) if missing else None))
    if missing or not semilattice_ok:
        return ValidationReport(subject, tuple(checks))

    if kind is not None:
        for i in range(n):
            rep = validate_for_kind(objects[i], kind)
            bad = rep.failures()
            checks.append(Check(
                f"fiber-{i}-valid-{kind}", not bad,
                bad[0].witness if bad else None,
                bad[0].name if bad else ""))
        signature = (frozenset(objects[0].binary_ops),
                     frozenset(objects[0].unary_ops),
                     frozenset(objects[0].constants))
        odd = next((i for i in range(n)
                    if (frozenset(objects[i].binary_ops),
                        frozenset(objects[i].unary_ops),
                        frozenset(objects[i].constants)) != signature), None)
        checks.append(Check("fibers-same-signature", odd is None,
                            (odd,) if odd is not None else None))
    empties = [i for i in range(n) if objects[i].size == 0]
    if empties:
        # Zero-point terms (duals of one-element algebras) are admitted but
        # worth surfacing.
        checks.append(Check("empty-terms", True, None,
                            f"indices {empties} have empty terms"))

    pairs = _comparable_pairs(index_algebra)
    extra = sorted(set(arrows) - set(pairs))
    checks.append(Check("arrows-only-comparable", not extra,
                        extra[0] if extra else None))
    absent = [p for p in pairs if p not in arrows]
    checks.append(Check("arrows-complete", not absent,
                        absent[0] if absent else None))
    if absent or extra:
        return ValidationReport(subject, tuple(checks))

    def endpoints(i, j):
        return (objects[j], objects[i]) if inverse else (objects[i], objects[j])

    shaped = True
    for (i, j) in pairs:
        src, tgt = endpoints(i, j)
        vec = arrows[(i, j)]
        if len(vec) != src.size or any(v < 0 or v >= tgt.size for v in vec):
            checks.append(Check("arrows-well-formed", False, (i, j)))
            shaped = False
            break
    if shaped:
        checks.append(Check("arrows-well-formed", True))
    else:
        return ValidationReport(subject, tuple(checks))

    bad_id = next((i for i in range(n)
                   if tuple(arrows[(i, i)]) != _identity_raw(objects[i].size)),
                  None)
    checks.append(Check("identity-arrows", bad_id is None,
                        (bad_id, bad_id) if bad_id is not None else None))

    if kind is not None:
        hom_witness = next(
            ((i, j) for (i, j) in pairs
             if morphism_violations(*endpoints(i, j), tuple(arrows[(i, j)]),
                                    kind) is not None), None)
        checks.append(Check("arrows-are-homs", hom_witness is None, hom_witness))
    else:
        mono_witness = None
        for (i, j) in pairs:
            src, tgt = endpoints(i, j)
            if hasattr(src, "leq") and hasattr(tgt, "leq"):
                w = _first_pair(arrows[(i, j)], src.leq, tgt.leq)
                if w is not None:
                    mono_witness = (i, j, *w)
                    break
        checks.append(Check("arrows-monotone", mono_witness is None, mono_witness))

    join = index_algebra.binary("join")
    triple_witness = None
    for (i, j) in pairs:
        for k in range(n):
            if join[j][k] != k:
                continue
            if inverse:
                composite = _compose_raw(arrows[(i, j)], arrows[(j, k)])
            else:
                composite = _compose_raw(arrows[(j, k)], arrows[(i, j)])
            if composite != tuple(arrows[(i, k)]):
                triple_witness = (i, j, k)
                break
        if triple_witness:
            break
    checks.append(Check("arrows-transitive", triple_witness is None,
                        triple_witness))
    return ValidationReport(subject, tuple(checks))


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

class DirectSystem(Record):
    """Join-semilattice-indexed family of algebras with transition homs."""

    index: JoinSemilattice
    fibers: Mapping[int, FiniteAlgebra]
    transitions: Mapping[tuple[int, int], RawMap]
    kind: str

    def __init__(self, index: JoinSemilattice,
                 fibers: Mapping[int, FiniteAlgebra],
                 transitions: Mapping[tuple[int, int], Sequence[int]],
                 kind: str):
        fibers = dict(fibers)
        transitions = {k: tuple(v) for k, v in transitions.items()}
        report = check_system(index.algebra, index.bottom, fibers,
                              transitions, kind, inverse=False,
                              subject="direct system")
        report.require(InvalidSystem, f"invalid direct system: "
                       f"{[c.name for c in report.failures()]}")
        self.__dict__.update(index=index, fibers=fibers,
                             transitions=transitions, kind=kind)

    def fiber(self, i: int) -> FiniteAlgebra:
        return self.fibers[i]

    def transition(self, i: int, j: int) -> Morphism:
        return Morphism(self.fibers[i], self.fibers[j],
                        self.transitions[(i, j)], self.kind)

    def offsets(self) -> list[int]:
        out, total = [], 0
        for i in range(self.index.size):
            out.append(total)
            total += self.fibers[i].size
        return out

    def total_size(self) -> int:
        return sum(self.fibers[i].size for i in range(self.index.size))

    def locate(self, g: int) -> tuple[int, int]:
        """Global carrier element of the sum -> (fiber index, local element)."""
        offs = self.offsets()
        for i in range(self.index.size - 1, -1, -1):
            if g >= offs[i]:
                return i, g - offs[i]
        raise ValueError(g)


class InverseSystem(Record):
    """Join-semilattice-indexed family of finite terms with bonding maps.

    ``bondings[(i, j)]`` for i <= j is the value vector of the map
    term(j) -> term(i).  Terms need only expose ``size``; terms with a
    ``leq`` matrix (posets) get their bondings checked for monotonicity.
    """

    index: JoinSemilattice
    terms: Mapping[int, object]
    bondings: Mapping[tuple[int, int], RawMap]

    def __init__(self, index: JoinSemilattice, terms: Mapping[int, object],
                 bondings: Mapping[tuple[int, int], Sequence[int]]):
        terms = dict(terms)
        bondings = {k: tuple(v) for k, v in bondings.items()}
        report = check_system(index.algebra, index.bottom, terms, bondings,
                              None, inverse=True, subject="inverse system")
        report.require(InvalidSystem, f"invalid inverse system: "
                       f"{[c.name for c in report.failures()]}")
        self.__dict__.update(index=index, terms=terms, bondings=bondings)

    def term(self, i: int):
        return self.terms[i]

    def bonding(self, i: int, j: int) -> RawMap:
        return self.bondings[(i, j)]


# ---------------------------------------------------------------------------
# Plonka sum and decomposition
# ---------------------------------------------------------------------------

def plonka_sum(system: DirectSystem) -> FiniteAlgebra:
    """Disjoint union of the fibers with operations evaluated in the join
    fiber after pushing arguments along transitions; constants live in the
    bottom fiber.

    Over Boolean fibers the sum is an involutive bisemilattice; over
    distributive-lattice fibers it is a bisemilattice.

    Tables are built by whole rows.  For a pair of fibers (i1, i2) with
    join j, the segment of the row of element a of fiber i1 under fiber i2
    is one gather of the transition i2 -> j through row ``t(a)`` of fiber
    j's table, shifted to j's offset, where t is the transition i1 -> j
    (see :func:`algdual.algebra.row_kernel`).  ``tests/oracles.py`` keeps
    the cell-by-cell form.
    """
    idx = system.index
    offs = system.offsets()
    total = system.total_size()
    make, gather, pad = row_kernel(total)
    concat = (b"".join if make is bytes
              else lambda rows: tuple(chain.from_iterable(rows)))
    fibers = [system.fibers[i] for i in range(idx.size)]
    # per fiber pair (i1, i2): transition i1 -> j, transition i2 -> j as a
    # row, and j, for j = i1 + i2
    blocks = []
    for i1 in range(idx.size):
        pair_blocks = []
        for i2 in range(idx.size):
            j = idx.join(i1, i2)
            pair_blocks.append((system.transitions[(i1, j)],
                                make(system.transitions[(i2, j)]), j))
        blocks.append(pair_blocks)

    names = None
    if all(f.names for f in fibers):
        idx_names = idx.algebra.names or tuple(str(i) for i in range(idx.size))
        names = tuple(f"{x}@{idx_names[i]}"
                      for i, f in enumerate(fibers) for x in f.names)

    binary = {}
    for name in fibers[0].binary_ops:
        shifted = [[pad([offs[j] + v for v in row]) for row in f.binary(name)]
                   for j, f in enumerate(fibers)]
        table = []
        for i1, f in enumerate(fibers):
            for a in range(f.size):
                table.append(concat([gather(t2, shifted[j][t1[a]])
                                     for t1, t2, j in blocks[i1]]))
        binary[name] = table
    unary = {name: [offs[i] + v for i, f in enumerate(fibers)
                    for v in f.unary(name)]
             for name in fibers[0].unary_ops}
    constants = {name: offs[idx.bottom] + c
                 for name, c in fibers[idx.bottom].constants.items()}
    return FiniteAlgebra(total, binary, unary, constants, names)


def local_units(b: FiniteAlgebra) -> list[int]:
    """The element a + a' for every a; the sorted set of values indexes the
    fibers of the Plonka decomposition."""
    c = ibsl_completion(b)
    join, neg = c.binary("join"), c.unary("neg")
    return [join[a][neg[a]] for a in range(c.size)]


def star_table(b: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """The fiber projection a * b = a . (a + b)."""
    join, meet = b.binary("join"), b.binary("meet")
    return tuple(tuple(m[v] for v in j) for m, j in zip(meet, join))


def _fiber_classes(star) -> list[list[int]]:
    """The classes of ``a ~ b iff a*b = a and b*a = b``, ordered by least
    member.  The relation is reflexive and symmetric, so it is an
    equivalence exactly when related elements have the same row."""
    columns = list(zip(*star))
    rows = [[y for y, (s, t) in enumerate(zip(star[x], columns[x]))
             if s == x and t == y] for x in range(len(star))]
    classes: list[list[int]] = []
    placed = [False] * len(star)
    for x, row in enumerate(rows):
        if placed[x]:
            continue
        for y in row:
            if rows[y] != row:
                raise IllDefinedTransition(
                    f"fiber relation is not transitive at {(x, y)}")
            placed[y] = True
        classes.append(row)
    return classes


def _split(c: FiniteAlgebra, star, members: list[list[int]], index_names,
           kind: str) -> DirectSystem:
    """The direct system of the fibers ``members`` of a bisemilattice, in
    that order.  The index join is the join of the fibers' members; the
    transition into fiber F applies ``* w`` for any w in F, with the choice
    of w checked to be immaterial.  Fibers of kind ``ba`` also carry the
    restricted neg, the local zero e . e' and the local one e, where e is
    the fiber's unit.  Requires the index semilattice to have a least
    element (sums over pointless semilattices are out of scope here).
    """
    class_of = [-1] * c.size
    for e, ms in enumerate(members):
        for x in ms:
            class_of[x] = e
    join, meet = c.binary("join"), c.binary("meet")
    index_join = []
    for e, xs in enumerate(members):
        row = []
        for f, ys in enumerate(members):
            found = {class_of[join[x][y]] for x in xs for y in ys}
            found |= {class_of[meet[x][y]] for x in xs for y in ys}
            if len(found) != 1:
                raise IllDefinedTransition(
                    f"join and meet are ill-defined on the classes {(e, f)}")
            row.append(found.pop())
        index_join.append(row)
    k = len(members)
    bottoms = [e for e in range(k)
               if all(index_join[e][f] == f for f in range(k))]
    if not bottoms:
        raise MissingBottom(
            "fiber index semilattice has no least element; "
            "such sums are out of scope")
    index = JoinSemilattice.from_table(index_join, bottom=bottoms[0],
                                       names=index_names)

    local = [{x: p for p, x in enumerate(ms)} for ms in members]
    neg = c.unary_ops.get("neg")
    fibers = {}
    for e, (ms, loc) in enumerate(zip(members, local)):
        try:
            binary = {"join": [[loc[join[x][y]] for y in ms] for x in ms],
                      "meet": [[loc[meet[x][y]] for y in ms] for x in ms]}
            unary, constants = {}, {}
            if kind == "ba":
                unit = join[ms[0]][neg[ms[0]]]
                unary["neg"] = [loc[neg[x]] for x in ms]
                constants = {"zero": loc[meet[unit][neg[unit]]],
                             "one": loc[unit]}
        except KeyError:
            raise IllDefinedTransition(
                f"fiber {e} is not closed under the operations")
        fnames = tuple(c.element_name(x) for x in ms) if c.names else None
        fibers[e] = FiniteAlgebra(len(ms), binary, unary, constants, fnames)

    transitions = {}
    for e, f in index.comparable_pairs():
        vec = []
        for a in members[e]:
            images = {star[a][w] for w in members[f]}
            if len(images) != 1:
                raise IllDefinedTransition(
                    f"transition {e}->{f} depends on the representative at {a}")
            img = images.pop()
            if class_of[img] != f:
                raise IllDefinedTransition(
                    f"transition {e}->{f} escapes its fiber at {a}")
            vec.append(local[f][img])
        transitions[(e, f)] = tuple(vec)
    return DirectSystem(index, fibers, transitions, kind)


def plonka_decompose_bsl(b: FiniteAlgebra) -> DirectSystem:
    """Split a bisemilattice into a direct system of distributive lattices.

    Fibers are the classes of ``a ~ b iff a*b = a and b*a = b``, ordered by
    least member and indexed by the names of those members.  The index
    semilattice must have a least element (:class:`MissingBottom`).
    """
    validate_bisemilattice(b).require(
        NotBisemilattice, "input is not a bisemilattice")
    star = star_table(b)
    members = _fiber_classes(star)
    names = tuple(b.element_name(ms[0]) for ms in members) if b.names else None
    return _split(b, star, members, names, "dl")


def plonka_decompose(b: FiniteAlgebra) -> DirectSystem:
    """Split an involutive bisemilattice into a direct system of Boolean
    algebras along its local units.

    The fibers are those of its bisemilattice reduct, ordered by and named
    after their local unit e: the fiber at e is {a : a + a' = e} with
    restricted operations, local one e and local zero e . e'.  The
    transition into the fiber at f adds f's local zero: a -> a + (f . f').
    ``plonka_sum`` of the result is isomorphic to the input.
    """
    validate_ibsl(b).require(
        NotIBSL, "input is not an involutive bisemilattice")
    c = ibsl_completion(b)
    join, neg = c.binary("join"), c.unary("neg")
    star = star_table(c)
    units = sorted((join[ms[0]][neg[ms[0]]], ms) for ms in _fiber_classes(star))
    names = tuple(c.element_name(e) for e, _ in units)
    return _split(c, star, [ms for _, ms in units], names, "ba")


def plonka_layout(b: FiniteAlgebra, kind: str) -> list[int]:
    """The elements of ``b`` in the order in which the Plonka sum of its
    decomposition lays them out: fiber by fiber, and in each fiber in
    increasing order.  As a map from the sum's carrier onto ``b`` it is the
    canonical bijection.  ``kind`` is ``"ibsl"`` (fibers ordered by local
    unit, as :func:`plonka_decompose` orders them) or ``"bsl"`` (by least
    member, as :func:`plonka_decompose_bsl` does)."""
    if kind == "ibsl":
        return sorted(range(b.size), key=local_units(b).__getitem__)
    return [x for ms in _fiber_classes(star_table(b)) for x in ms]


# ---------------------------------------------------------------------------
# System morphisms
# ---------------------------------------------------------------------------

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
        if (phi.source != source.index.algebra
                or phi.target != target.index.algebra):
            raise InvalidSystemMorphism("index map endpoints do not match")
        if phi.kind != "sl":
            raise InvalidSystemMorphism("index map must be a semilattice hom")
        for i in range(source.index.size):
            comp = components.get(i)
            if comp is None:
                raise InvalidSystemMorphism(f"missing component at index {i}")
            if (comp.source != source.fiber(i)
                    or comp.target != target.fiber(phi(i))):
                raise InvalidSystemMorphism(
                    f"component {i} endpoints do not match")
        for i, j in source.index.comparable_pairs():
            p = source.transitions[(i, j)]
            q = target.transitions[(phi(i), phi(j))]
            fi, fj = components[i].map, components[j].map
            for x in range(source.fiber(i).size):
                if fj[p[x]] != q[fi[x]]:
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
        if (phi.source != target.index.algebra
                or phi.target != source.index.algebra):
            raise InvalidSystemMorphism("index map endpoints do not match")
        if phi.kind != "sl":
            raise InvalidSystemMorphism("index map must be a semilattice hom")
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
            p = source.bondings[(phi(j), phi(j2))]
            q = target.bondings[(j, j2)]
            fj, fj2 = components[j], components[j2]
            for x in range(source.term(phi(j2)).size):
                if fj[p[x]] != q[fj2[x]]:
                    raise InvalidSystemMorphism(
                        f"square ({j},{j2}) does not commute at {x}")
        self.__dict__.update(source=source, target=target,
                             index_map=index_map, components=components)


def identity_system_morphism(system):
    if isinstance(system, DirectSystem):
        return DirectSystemMorphism(
            system, system, Morphism.identity(system.index.algebra, "sl"),
            {i: Morphism.identity(system.fiber(i), system.kind)
             for i in range(system.index.size)})
    return InverseSystemMorphism(
        system, system, Morphism.identity(system.index.algebra, "sl"),
        {i: _identity_raw(system.term(i).size)
         for i in range(system.index.size)})


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
        comps = {k: _compose_raw(m2.components[k],
                                 m1.components[m2.index_map(k)])
                 for k in range(m2.target.index.size)}
        return InverseSystemMorphism(m1.source, m2.target, chi, comps)
    raise DomainMismatch("cannot compose morphisms of different variants")


# ---------------------------------------------------------------------------
# The equivalence between algebras and systems
# ---------------------------------------------------------------------------

def _expect_sum(h_end: FiniteAlgebra, system: DirectSystem, side: str) -> FiniteAlgebra:
    expected = plonka_sum(system)
    stripped = FiniteAlgebra(h_end.size, h_end.binary_ops, h_end.unary_ops,
                             h_end.constants)
    if FiniteAlgebra(expected.size, expected.binary_ops, expected.unary_ops,
                     expected.constants) != stripped:
        raise DomainMismatch(
            f"hom {side} is not the Plonka sum of the given system")
    return expected


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
    a, b = plonka_sum(m.source), plonka_sum(m.target)
    offs_b = m.target.offsets()
    vec = []
    for i in range(m.source.index.size):
        j = m.index_map(i)
        for x in range(m.source.fiber(i).size):
            vec.append(offs_b[j] + m.components[i](x))
    kind = "ibsl" if m.source.kind == "ba" else "bsl"
    return Morphism(a, b, tuple(vec), kind)


def enumerate_system_morphisms(da: DirectSystem,
                               db: DirectSystem) -> list[DirectSystemMorphism]:
    """All system morphisms da -> db, ordered by (index map, components)."""
    out = []
    fiber_hom_cache: dict[tuple[int, int], list[Morphism]] = {}

    def fiber_homs(i, j):
        if (i, j) not in fiber_hom_cache:
            fiber_hom_cache[(i, j)] = enumerate_homs(
                da.fiber(i), db.fiber(j), da.kind, validate=False)
        return fiber_hom_cache[(i, j)]

    comparable = da.index.comparable_pairs()
    for phi in enumerate_homs(da.index.algebra, db.index.algebra, "sl",
                              validate=False):
        chosen: dict[int, Morphism] = {}

        def squares_ok(i: int) -> bool:
            for (x, y) in comparable:
                if x in chosen and y in chosen and (x == i or y == i):
                    p = da.transitions[(x, y)]
                    q = db.transitions[(phi(x), phi(y))]
                    fx, fy = chosen[x].map, chosen[y].map
                    if any(fy[p[e]] != q[fx[e]]
                           for e in range(da.fiber(x).size)):
                        return False
            return True

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
