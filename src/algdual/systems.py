"""Semilattice direct and inverse systems, and the Plonka sum construction
with its inverse decomposition.

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

from typing import Mapping, Optional, Sequence

from .algebra import (
    Check,
    FiniteAlgebra,
    RawMap,
    Record,
    Table,
    ValidationReport,
    compose,
    ibsl_completion,
    order_breaks,
    row_kernel,
    validate_bisemilattice,
    validate_ibsl,
    validate_semilattice,
)
from .errors import (
    IllDefinedTransition,
    InvalidSystem,
    IsomorphismFailure,
    MissingBottom,
    NotBisemilattice,
    NotIBSL,
    NotSemilattice,
)
from .morphisms import Morphism, morphism_violations, validate_for_kind


# ---------------------------------------------------------------------------
# Join semilattices (index sets of systems)
# ---------------------------------------------------------------------------

def _first_not_above(join: Table, b: int) -> Optional[int]:
    """The first x with b + x != x in the join table, or None."""
    return next((x for x in range(len(join)) if join[b][x] != x), None)


def least_element(join: Table) -> Optional[int]:
    """The first element of the join table below every element, or None."""
    return next((b for b in range(len(join))
                 if _first_not_above(join, b) is None), None)


def comparable_pairs(join: Table) -> list[tuple[int, int]]:
    """All pairs (i, j) with i + j = j, in lexicographic order."""
    n = len(join)
    return [(i, j) for i in range(n) for j in range(n) if join[i][j] == j]


def index_checks(algebra: FiniteAlgebra, bottom: int) -> list[Check]:
    """The checks of an index semilattice with least element ``bottom``:
    those of :func:`validate_semilattice`, then ``index-bottom``, whose
    witness (bottom, x) names the first x not above ``bottom``.  When
    ``bottom`` is the declared bottom constant, its law ``bottom-neutral``
    fails exactly when ``index-bottom`` does, so only ``index-bottom``
    reports that fault."""
    x = _first_not_above(algebra.binary("join"), bottom)
    declared = algebra.constants.get("bottom") == bottom
    laws = [c for c in validate_semilattice(algebra).checks
            if c.holds or not declared or c.name != "bottom-neutral"]
    return [*laws, Check("index-bottom", x is None,
                         None if x is None else (bottom, x))]


class JoinSemilattice(Record):
    """A validated join semilattice with least element, used as an index set."""

    algebra: FiniteAlgebra
    bottom: int

    def __init__(self, algebra: FiniteAlgebra, bottom: int):
        *laws, least = index_checks(algebra, bottom)
        ValidationReport("join semilattice", tuple(laws)).require(
            NotSemilattice, "join is not a semilattice operation")
        if not least.holds:
            raise MissingBottom(f"element {bottom} is not a least element")
        if algebra.constants.get("bottom", bottom) != bottom:
            raise ValueError("declared bottom constant disagrees")
        self.__dict__.update(algebra=algebra, bottom=bottom)

    @classmethod
    def from_table(cls, table, bottom: Optional[int] = None,
                   names=None) -> "JoinSemilattice":
        join = tuple(map(tuple, table))
        if bottom is None:
            bottom = least_element(join)
            if bottom is None:
                raise MissingBottom("semilattice has no least element")
        alg = FiniteAlgebra(len(join), {"join": join},
                            constants={"bottom": bottom}, names=names)
        return cls(alg, bottom)

    @property
    def size(self) -> int:
        return self.algebra.size

    def join(self, i: int, j: int) -> int:
        return self.algebra.binary("join")[i][j]

    def leq(self, i: int, j: int) -> bool:
        return self.join(i, j) == j

    def comparable_pairs(self) -> list[tuple[int, int]]:
        return comparable_pairs(self.algebra.binary("join"))


# ---------------------------------------------------------------------------
# Coherence checking, shared by both system variants
# ---------------------------------------------------------------------------

def check_system(index_algebra: FiniteAlgebra, bottom: int,
                 objects: Mapping[int, object],
                 arrows: Mapping[tuple[int, int], Sequence[int]],
                 kind: Optional[str], *, inverse: bool) -> ValidationReport:
    """Full coherence report for a system given raw tables, with subject
    ``direct-system`` or ``inverse-system``.

    ``arrows`` maps comparable index pairs (i, j), i <= j, to value vectors;
    in a direct system the vector describes object(i) -> object(j), in an
    inverse one object(j) -> object(i).  ``kind`` names the fiber validator
    for direct systems; inverse-system terms need only sizes (plus
    monotonicity when they carry an order).
    """
    subject = "inverse-system" if inverse else "direct-system"
    checks = index_checks(index_algebra, bottom)
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
        def signature(a):
            return tuple(map(frozenset, (a.binary_ops, a.unary_ops,
                                         a.constants)))

        odd = next((i for i in range(n)
                    if signature(objects[i]) != signature(objects[0])), None)
        checks.append(Check("fibers-same-signature", odd is None,
                            (odd,) if odd is not None else None))
    empties = [i for i in range(n) if objects[i].size == 0]
    if empties:
        # Zero-point terms (duals of one-element algebras) are admitted but
        # worth surfacing.
        checks.append(Check("empty-terms", True, None,
                            f"indices {empties} have empty terms"))

    join = index_algebra.binary("join")
    pairs = comparable_pairs(join)
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

    def misshapen(i, j):
        src, tgt = endpoints(i, j)
        vec = arrows[(i, j)]
        return len(vec) != src.size or any(v < 0 or v >= tgt.size for v in vec)

    bad_shape = next((p for p in pairs if misshapen(*p)), None)
    checks.append(Check("arrows-well-formed", bad_shape is None, bad_shape))
    if bad_shape is not None:
        return ValidationReport(subject, tuple(checks))

    bad_id = next((i for i in range(n)
                   if tuple(arrows[(i, i)]) != tuple(range(objects[i].size))),
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
        def disorder(i, j):
            src, tgt = endpoints(i, j)
            if hasattr(src, "leq") and hasattr(tgt, "leq"):
                w = next(order_breaks((arrows[(i, j)],), src.leq, tgt.leq))
                return None if w is None else (i, j, *w)

        mono_witness = next(filter(None, (disorder(*p) for p in pairs)), None)
        checks.append(Check("arrows-monotone", mono_witness is None, mono_witness))

    def composite(i, j, k):
        if inverse:
            return compose(arrows[(i, j)], arrows[(j, k)])
        return compose(arrows[(j, k)], arrows[(i, j)])

    triple_witness = next(((i, j, k) for (i, j) in pairs for k in range(n)
                           if join[j][k] == k
                           and composite(i, j, k) != tuple(arrows[(i, k)])),
                          None)
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
                              transitions, kind, inverse=False)
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
                              None, inverse=True)
        report.require(InvalidSystem, f"invalid inverse system: "
                       f"{[c.name for c in report.failures()]}")
        self.__dict__.update(index=index, terms=terms, bondings=bondings)

    def term(self, i: int):
        return self.terms[i]

    def bonding(self, i: int, j: int) -> RawMap:
        return self.bondings[(i, j)]


# ---------------------------------------------------------------------------
# Documents of systems
# ---------------------------------------------------------------------------

def system_data(s, kind: str) -> dict:
    from .writer import algebra_data, document_data

    keys = (("fibers", "transitions") if kind == "direct-system"
            else ("terms", "bondings"))
    objects, arrows = (getattr(s, key) for key in keys)
    # fibers are algebras of the system's kind; terms know their kind
    fiber_kind = getattr(s, "kind", None)
    return {"kind": kind, "index": algebra_data(s.index.algebra, "sl"),
            keys[0]: {str(i): document_data(objects[i], fiber_kind)
                      for i in range(s.index.size)},
            keys[1]: {f"{i}->{j}": list(v)
                      for (i, j), v in sorted(arrows.items()) if i != j}}


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
    make, gather, pad, join = row_kernel(total)
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
                table.append(join([gather(t2, shifted[j][t1[a]])
                                   for t1, t2, j in blocks[i1]]))
        binary[name] = table
    unary = {name: [offs[i] + v for i, f in enumerate(fibers)
                    for v in f.unary(name)]
             for name in fibers[0].unary_ops}
    constants = {name: offs[idx.bottom] + c
                 for name, c in fibers[idx.bottom].constants.items()}
    return FiniteAlgebra(total, binary, unary, constants, names)


def permute_algebra(a: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Relabel the carrier along ``perm`` (old label -> new label).

    Row x of a new table is row ``inv[x]`` of the old one with its columns
    gathered through ``inv`` and its values through ``perm``: two whole-row
    gathers (see :func:`algdual.algebra.row_kernel`).  ``tests/oracles.py``
    keeps the cell-by-cell form."""
    make, gather, pad, _ = row_kernel(a.size)
    inv = [0] * a.size
    for old, new in enumerate(perm):
        inv[new] = old
    cols, values = make(inv), pad(perm)

    def relabel(row):
        return gather(gather(cols, pad(row)), values)

    bin_ops = {name: [relabel(t[old]) for old in inv]
               for name, t in a.binary_ops.items()}
    un_ops = {name: relabel(t) for name, t in a.unary_ops.items()}
    consts = {name: perm[c] for name, c in a.constants.items()}
    names = None
    if a.names is not None:
        names = tuple(a.names[old] for old in inv)
    return FiniteAlgebra(a.size, bin_ops, un_ops, consts, names)


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
    bottom = least_element(index_join)
    if bottom is None:
        raise MissingBottom(
            "fiber index semilattice has no least element; "
            "such sums are out of scope")
    index = JoinSemilattice.from_table(index_join, bottom=bottom,
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


def plonka_roundtrip(b: FiniteAlgebra, kind: str) -> None:
    """Check that ``b``, of kind ``"ibsl"`` or ``"bsl"``, is isomorphic to
    the Plonka sum of its decomposition.

    The decomposition names the isomorphism: the sum puts the elements of
    ``b`` fiber by fiber (:func:`plonka_layout`).  If the layout is a
    bijection along which the sum has every table of ``b`` (of its
    completion for ``ibsl``), the sum is ``b`` renamed, so it is valid.
    Otherwise the sum is validated, and an invalid one fails with its
    failing checks; a valid one is searched for an isomorphism."""
    decompose = plonka_decompose if kind == "ibsl" else plonka_decompose_bsl
    total = plonka_sum(decompose(b))
    layout = plonka_layout(b, kind)
    if total.size == b.size and sorted(layout) == list(range(b.size)):
        moved = permute_algebra(total, layout)
        expected = ibsl_completion(b) if kind == "ibsl" else b
        if all(getattr(moved, ops) == getattr(expected, ops)
               for ops in ("binary_ops", "unary_ops", "constants")):
            return
    report = validate_for_kind(total, kind)
    report.require(IsomorphismFailure, f"sum of decomposition is not a valid "
                   f"{kind!r}: {[c.name for c in report.failures()]}")
    from .algebra import find_isomorphism

    if find_isomorphism(total, b, kind) is None:
        raise IsomorphismFailure("sum of decomposition not isomorphic")
