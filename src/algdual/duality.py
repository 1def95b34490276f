"""GR spaces with and without involution, their documents, and the
dualizing-object functors between them and (involutive) bisemilattices.

Everything here is finite, so all topology is discrete: compactness and
continuity are vacuous, and "compact totally order disconnected" reduces to
"the order is a partial order" (for a !<= b the down-set of b is a clopen
lower set separating them; the validator records that witness
construction).

A GR space is a partially ordered left normal band with constants; the dual
of a bisemilattice is the space of its homomorphisms into the three-element
bisemilattice, carrying the pointwise GR structure, and the dual of an
involutive bisemilattice additionally carries the involution
``(-phi)(x) = (phi(x'))'``.  Dual carriers are ordered by the canonical
(lexicographic) hom enumeration, which makes every dual table reproducible.

Finite Stone duality, the Boolean case of Birkhoff duality, and its lift to
systems are in :mod:`algdual.lattices`; the names of theirs that the
benchmark wraps or imports from here still resolve from here.
The hom search (:mod:`algdual.search`) and morphisms
(:mod:`algdual.morphisms`) load when a function here first needs them, so
checking a plain GR space compiles neither.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import compress
from operator import index, or_
from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import (
    Check,
    FiniteAlgebra,
    RawMap,
    Record,
    ValidationReport,
    bitset,
    builtin,
    first_difference,
    first_violation,
    forwarder,
    ibsl_completion,
    order_breaks,
    row_kernel,
    table_break,
    validate_bisemilattice,
    validate_ibsl,
    validated_once,
)
from .errors import NotBisemilattice, NotGRSpace, NotIBSL
from .orders import OrderMatrix, is_partial_order, order_from_binary

if TYPE_CHECKING:
    from .morphisms import Morphism
    from .systems import InverseSystem

_THREE = builtin("three")
JOIN3 = _THREE.binary("join")
MEET3 = _THREE.binary("meet")
NEG3 = (1, 0, 2)
LEQ3 = order_from_binary(MEET3, "meet")


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as ints (a bool as 0 or 1), else ValueError."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} is not an integer") from None


class GRSpace(Record):
    """Partially ordered left normal band with constants, finite/discrete.

    ``points``, when present, records the hom value vectors a dual space was
    built from (carrier k <-> points[k]); it is metadata, like names.
    """

    size: int
    star: tuple[tuple[int, ...], ...]
    leq: OrderMatrix
    c0: int
    c1: int
    calpha: int
    points: Optional[tuple[RawMap, ...]]

    def __init__(self, size: int, star, leq, c0: int, c1: int, calpha: int,
                 points: Optional[tuple[RawMap, ...]] = None):
        star = tuple(_integers(row, "star table entry") for row in star)
        c0, c1, calpha = _integers((c0, c1, calpha), "constant")
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        n = size
        if n < 1:
            raise ValueError("GR spaces are non-empty (they carry constants)")
        if len(star) != n or any(len(r) != n for r in star):
            raise ValueError("star table is not square")
        if any(v < 0 or v >= n for row in star for v in row):
            raise ValueError("star table has out-of-range entries")
        if len(leq) != n or any(len(r) != n for r in leq):
            raise ValueError("order matrix is not square")
        for c in (c0, c1, calpha):
            if c < 0 or c >= n:
                raise ValueError("constant out of range")
        self.__dict__.update(size=size, star=star, leq=leq, c0=c0, c1=c1,
                             calpha=calpha, points=points)

    @cached_property
    def box(self) -> OrderMatrix:
        """Derived order: a [= b iff a*b <= b and b*a = b."""
        return tuple(
            tuple(self.leq[self.star[a][b]][b] and self.star[b][a] == b
                  for b in range(self.size))
            for a in range(self.size))


class GRSpaceWithInvolution(Record):
    base: GRSpace
    neg: tuple[int, ...]

    def __init__(self, base: GRSpace, neg: Sequence[int]):
        neg = _integers(neg, "involution value")
        if len(neg) != base.size:
            raise ValueError("involution is not a carrier self-map")
        if any(v < 0 or v >= base.size for v in neg):
            raise ValueError("involution has out-of-range values")
        self.__dict__.update(base=base, neg=neg)

    size = property(lambda self: self.base.size)
    star = property(lambda self: self.base.star)
    leq = property(lambda self: self.base.leq)
    c0 = property(lambda self: self.base.c0)
    c1 = property(lambda self: self.base.c1)
    calpha = property(lambda self: self.base.calpha)
    box = property(lambda self: self.base.box)
    points = property(lambda self: self.base.points)


def parse_gr(data: dict):
    """The GR space of a ``gr`` document, with its involution when the
    document has a ``neg`` map."""
    from .documents import (
        expect_int,
        fail,
        int_list,
        int_table,
        parse_matrix01,
    )

    size = expect_int(data, "size")
    leq = parse_matrix01(data, "leq", size)
    star = int_table(data.get("star"), "'star'")
    c0, c1, calpha = (expect_int(data, key) for key in ("c0", "c1", "calpha"))
    neg = int_list(data["neg"], "'neg'") if "neg" in data else None
    try:
        base = GRSpace(size, star, leq, c0, c1, calpha)
        if neg is not None:
            return GRSpaceWithInvolution(base, neg)
        return base
    except (ValueError, TypeError) as exc:
        raise fail(str(exc))


def gr_data(g, kind: str) -> dict:
    # a GR space with involution is a "gr" document with a "neg" map
    data = {"kind": "gr", "size": g.size, "star": [list(r) for r in g.star],
            "leq": [list(map(int, r)) for r in g.leq],
            "c0": g.c0, "c1": g.c1, "calpha": g.calpha}
    if kind == "igr":
        data["neg"] = list(g.neg)
    return data


def gr_three() -> GRSpace:
    """The dualizing GR structure on the three-element chain: a*b keeps a
    unless b is the absorbing element, the order is the meet order
    (alpha < 0 < 1), and the constants are 0, 1, alpha."""
    star = tuple(
        tuple(MEET3[a][JOIN3[a][b]] for b in range(3)) for a in range(3))
    return GRSpace(3, star, LEQ3, c0=0, c1=1, calpha=2)


def wk_space() -> GRSpaceWithInvolution:
    """The canonical GR space with involution on three points."""
    return GRSpaceWithInvolution(gr_three(), NEG3)


def base_of(g) -> GRSpace:
    return g.base if isinstance(g, GRSpaceWithInvolution) else g


# ---------------------------------------------------------------------------
# GR validation
# ---------------------------------------------------------------------------

STAR_IDENTITIES = (
    ("star-idempotent", ("star", "x", "x"), "x"),
    ("star-associative",
     ("star", "x", ("star", "y", "z")), ("star", ("star", "x", "y"), "z")),
    ("star-left-normal",
     ("star", "x", ("star", "y", "z")), ("star", "x", ("star", "z", "y"))),
)


@validated_once
def validate_gr_space(g) -> ValidationReport:
    """Left normal band + partial order + compatibility + constants (1)-(4).

    The finite stand-in for total order disconnectedness is recorded as the
    explicit check that the down-set of b separates every pair a !<= b.
    """
    g = base_of(g)
    n = g.size
    star_alg = FiniteAlgebra(n, {"star": g.star})
    checks = []
    for name, lhs, rhs in STAR_IDENTITIES:
        w = first_violation(star_alg, lhs, rhs)
        checks.append(Check(name, w is None, w))

    leq, star = g.leq, g.star
    w = is_partial_order(leq)
    checks.append(Check("order-partial", w is None, w))

    # each map x -> x*z (right) and x -> z*x (left) keeps the order; the
    # witness is the least (x, y, z)
    for name, maps in (("order-right-compatible", zip(*star)),
                       ("order-left-compatible", star)):
        w = min(((*b, z) for z, b in enumerate(order_breaks(maps, leq, leq))
                 if b is not None), default=None)
        checks.append(Check(name, w is None, w))
    # x*y <= x for every y: row x of star, gathered through column x of leq
    make, gather, pad, _ = row_kernel(n)
    ones = make([1] * n)
    ys = (first_difference(gather(make(row), pad(col)), ones)
          for row, col in zip(star, zip(*leq)))
    w = next(((x, y) for x, y in enumerate(ys) if y is not None), None)
    checks.append(Check("star-decreasing", w is None, w))

    ca, c0, c1 = g.calpha, g.c0, g.c1
    w = next(((x,) for x in range(n)
              if g.star[x][ca] != ca or g.star[ca][x] != ca), None)
    checks.append(Check("c-alpha-absorbing", w is None, w))
    w = next(((x,) for x in range(n)
              if g.star[x][c0] != x or g.star[x][c1] != x), None)
    checks.append(Check("c0-c1-right-neutral", w is None, w))
    box = g.box
    w = next(((x,) for x in range(n)
              if not (box[c0][x] and g.leq[x][c1]
                      and g.leq[ca][x] and box[x][ca])), None)
    checks.append(Check("constant-bounds", w is None, w))
    w = next(((x,) for x in range(n)
              if g.star[c0][x] == g.star[c1][x] and x != ca), None)
    checks.append(Check("c0-c1-separation", w is None, w))

    # for a !<= b the down-set D(b) excludes a, so it separates the pair
    # exactly when it contains b and is a lower set (D(y) lies in D(b) for
    # each y in it), which depends on b alone
    down = list(map(bitset, zip(*leq)))
    separates = [leq[b][b] and reduce(or_, compress(down, col), d) == d
                 for b, (d, col) in enumerate(zip(down, zip(*leq)))]
    w = next(((a, b) for a in range(n) for b in range(n)
              if not g.leq[a][b] and not separates[b]), None)
    checks.append(Check("order-disconnected", w is None, w))
    return ValidationReport("GR space", tuple(checks))


@lru_cache(maxsize=512)
def _gr_homs_to_three(base: GRSpace) -> tuple[RawMap, ...]:
    from .search import _search_homs

    return tuple(_search_homs(base, gr_three(), "gr"))


def gr_homs(g) -> list[RawMap]:
    """Value vectors of all GR morphisms (star, constants, order; no
    involution) into the dualizing three-point space, in lexicographic
    order."""
    return list(_gr_homs_to_three(base_of(g)))


def zero_morphism(g) -> Optional[RawMap]:
    """The unique join-neutral element of the hom-space into the three-point
    space (the witness phi_0 whose existence the involution axioms demand),
    or None when it does not exist.

    Morphisms of GR spaces with involution must pull the target's
    zero-morphism back to the source's; dualization turns that into
    preservation of the algebras' zero constant, and without it the
    hom-space functor would admit maps dual to no algebra hom.
    """
    return _zero_morphism_of(base_of(g))


@lru_cache(maxsize=512)
def _zero_morphism_of(base: GRSpace) -> Optional[RawMap]:
    # phi is join-neutral iff JOIN3[q[a]][phi[a]] == q[a] for every hom q
    # and point a, so each point allows the values neutral for all q[a].
    # Two join-neutral homs p, p' would give p = p v p' = p', so the first
    # one found is the only one.
    homs = _gr_homs_to_three(base)
    neutral_at = [{v for v in range(3)
                   if all(JOIN3[q[a]][v] == q[a] for q in homs)}
                  for a in range(base.size)]
    return next((p for p in homs
                 if all(v in allowed for v, allowed in zip(p, neutral_at))),
                None)


def _negations(points: Sequence[RawMap], neg: Sequence[int]) -> list[RawMap]:
    """The involution of a hom-space, ``(-phi)(a) = (phi(-a))'``, on each
    of ``points``."""
    return [tuple(NEG3[phi[b]] for b in neg) for phi in points]


# A value vector phi: X -> 3 is a pair of bit sets, (alpha-set, 1-set), bit
# x for coordinate x; the 0-set is the rest.  Alpha absorbs the star, join
# and meet of the three-element algebra, so each is a few bitwise operations
# on whole vectors.
_ALPHA_DIGITS = bytes.maketrans(b"\0\1\2", b"001")
_ONE_DIGITS = bytes.maketrans(b"\0\1\2", b"010")


def _masks(vectors) -> list[tuple[int, int]]:
    """The (alpha-set, 1-set) bit sets of each value vector."""
    return [(bitset(v, _ALPHA_DIGITS), bitset(v, _ONE_DIGITS))
            for v in map(bytes, vectors)]


def _star(a, o, b, q):
    return a | b, o & ~b


def _join(a, o, b, q):
    return a | b, (o | q) & ~(a | b)


def _meet(a, o, b, q):
    return a | b, o & q


def _locate(points: Sequence[tuple[int, int]], vectors,
            what: str) -> list[int]:
    """Positions of the masks ``vectors`` among the hom-space ``points``
    (masks too); raises NotGRSpace when one of them is not a point."""
    position = {vec: k for k, vec in enumerate(points)}
    try:
        return [position[vec] for vec in vectors]
    except KeyError:
        raise NotGRSpace(f"hom-space is not closed under {what}") from None


def _pointwise(points: Sequence[tuple[int, int]], op,
               what: str) -> list[list[int]]:
    """Table of the binary operation ``op`` on masks (one of ``_star``,
    ``_join``, ``_meet``) on the hom-space ``points``."""
    flat = _locate(points, (op(a, o, b, q) for a, o in points
                            for b, q in points), what)
    h = len(points)
    return [flat[k * h:(k + 1) * h] for k in range(h)]


def _g5_witness(points, negations) -> Optional[tuple[int, int, int]]:
    """First (pi, qi, a) with phi /\\ (-phi \\/ psi) != psi /\\ phi at a,
    for phi = points[pi], -phi = negations[pi] and psi = points[qi] as
    masks; None if there is none."""
    for pi, ((pa, p1), (na, n1)) in enumerate(zip(points, negations)):
        for qi, (qa, q1) in enumerate(points):
            # the alpha-sets are pa | ja and pa | qa, the 1-sets p1 & j1
            # and p1 & q1, where (ja, j1) is -phi \\/ psi
            ja = na | qa
            j1 = (n1 | q1) & ~ja
            diff = (ja & ~(pa | qa)) | (p1 & (j1 ^ q1))
            if diff:
                return pi, qi, (diff & -diff).bit_length() - 1
    return None


@validated_once
def validate_gr_involution(g: GRSpaceWithInvolution) -> ValidationReport:
    """G1-G6 on top of the base GR checks.

    G5 and G6 quantify over the enumerated hom-space into the three-point
    dualizing space, with the involution ``(-phi)(a) = (phi(-a))'`` and
    operations taken pointwise; they are evaluated only when the base checks
    pass (the hom-space is meaningless otherwise).  G6 asks for a neutral
    pair phi0, phi1 = -phi0: the join-neutral hom exists (it is unique,
    :func:`zero_morphism`) and its negation is a point.
    """
    if not isinstance(g, GRSpaceWithInvolution):
        raise NotGRSpace("object carries no involution")
    base = g.base
    checks = list(validate_gr_space(base).checks)
    n = g.size
    neg, star, leq, box = g.neg, g.star, g.leq, g.box

    w = next(((a,) for a in range(n) if neg[neg[a]] != a), None)
    checks.append(Check("G1", w is None, w))
    # neg keeps star, and turns the order into the reversed box order
    w = table_break(neg, star, star)
    checks.append(Check("G2", w is None, w))
    w = next(order_breaks((neg,), leq, tuple(zip(*box))))
    checks.append(Check("G3", w is None, w))
    g4 = (neg[g.c0] == g.c1 and neg[g.c1] == g.c0 and neg[g.calpha] == g.calpha)
    checks.append(Check("G4", g4, None if g4 else (g.c0, g.c1, g.calpha)))

    if not all(c.holds for c in checks):
        checks.append(Check("G5", False, None, "not evaluated: base invalid"))
        checks.append(Check("G6", False, None, "not evaluated: base invalid"))
        return ValidationReport("GR space with involution", tuple(checks))

    homs = gr_homs(base)
    w = _g5_witness(_masks(homs), _masks(_negations(homs, neg)))
    checks.append(Check("G5", w is None, w,
                        "" if w is None else "indices into the hom-space"))

    # the join-neutral hom phi0 is unique when it exists; phi1 = -phi0
    zero = zero_morphism(base)
    found = zero is not None and _negations([zero], neg)[0] in set(homs)
    checks.append(Check("G6", found, None,
                        "" if found else "no neutral pair phi0, phi1"))
    return ValidationReport("GR space with involution", tuple(checks))


# ---------------------------------------------------------------------------
# Duals of bisemilattices and involutive bisemilattices
# ---------------------------------------------------------------------------

def bsl_homs_to_three(b: FiniteAlgebra) -> list[RawMap]:
    """Canonically ordered value vectors of all bisemilattice homs into the
    three-element bisemilattice."""
    from .search import _search_homs

    reduct = b.reduct(binary=("join", "meet"))
    return _search_homs(reduct, _THREE, "bsl")


def _hom_space(b: FiniteAlgebra) -> GRSpace:
    """The homs of a bisemilattice into the three-element bisemilattice,
    with the pointwise GR structure of the dualizing object; not yet
    validated as a GR space."""
    homs = bsl_homs_to_three(b)
    points = _masks(homs)
    # p <= q pointwise (alpha < 0 < 1) unless q is alpha where p is not, or
    # p is 1 where q is not
    leq = [[not (qa & ~pa or p1 & ~q1) for qa, q1 in points]
           for pa, p1 in points]
    c0, c1, calpha = _locate(
        points, _masks((v,) * b.size for v in range(3)), "constants")
    return GRSpace(len(homs), _pointwise(points, _star, "star"), leq,
                   c0=c0, c1=c1, calpha=calpha, points=tuple(homs))


def dual_of_bsl(b: FiniteAlgebra) -> GRSpace:
    """Dual GR space of a bisemilattice: the hom-space into the three-element
    bisemilattice with the pointwise GR structure of the dualizing object."""
    validate_bisemilattice(b).require(
        NotBisemilattice, "input is not a bisemilattice")
    space = _hom_space(b)
    validate_gr_space(space).require(
        NotGRSpace, "dual space failed GR validation")
    return space


def dual_of_ibsl(b: FiniteAlgebra) -> GRSpaceWithInvolution:
    """Dual of an involutive bisemilattice: the GR dual of its bisemilattice
    reduct with the involution (-phi)(x) = (phi(x'))'.

    The axioms I1-I8 imply the bisemilattice laws of the reduct, and the
    involution checks include the GR checks, so each runs once.
    """
    validate_ibsl(b).require(
        NotIBSL, "input is not an involutive bisemilattice")
    c = ibsl_completion(b)
    base = _hom_space(c)
    neg = _locate(_masks(base.points),
                  _masks(_negations(base.points, c.unary("neg"))),
                  "the involution")
    g = GRSpaceWithInvolution(base, neg)
    validate_gr_involution(g).require(
        NotGRSpace, "dual space failed involution validation")
    return g


def _lattice_ops(g) -> tuple[list[RawMap], list[tuple[int, int]], dict]:
    """The hom-space of a GR space into the three-point space, its points
    as masks, and its pointwise join and meet tables."""
    homs = gr_homs(g)
    points = _masks(homs)
    return homs, points, {"join": _pointwise(points, _join, "join"),
                          "meet": _pointwise(points, _meet, "meet")}


def bsl_of_gr(g: GRSpace) -> FiniteAlgebra:
    """Dual bisemilattice of a plain GR space: GR morphisms into the
    three-point space with pointwise join and meet."""
    validate_gr_space(g).require(NotGRSpace, "input fails GR validation")
    homs, _, ops = _lattice_ops(g)
    return FiniteAlgebra(len(homs), ops)


def dual_of_gr(g: GRSpaceWithInvolution) -> FiniteAlgebra:
    """Dual involutive bisemilattice of a GR space with involution: GR
    morphisms into the three-point space with pointwise operations, the
    involution (-Phi)(a) = (Phi(-a))', and zero the join-neutral morphism,
    which G6 makes exist."""
    validate_gr_involution(g).require(
        NotGRSpace, "input fails GR-with-involution validation")
    homs, points, ops = _lattice_ops(g)
    neg = _locate(points, _masks(_negations(homs, g.neg)), "the involution")
    zero = homs.index(zero_morphism(g))
    algebra = FiniteAlgebra(len(homs), ops, {"neg": neg},
                            {"zero": zero, "one": neg[zero]})
    validate_ibsl(algebra).require(
        NotGRSpace, "dual algebra failed validation")
    return algebra


def eps_iso(b: FiniteAlgebra) -> Morphism:
    """Evaluation isomorphism of an involutive bisemilattice onto its double
    dual: x -> (phi -> phi(x))."""
    from .morphisms import as_isomorphism

    dual = dual_of_ibsl(b)
    double = dual_of_gr(dual)
    vec = _locate(_masks(gr_homs(dual)), _masks(zip(*dual.points)),
                  "evaluation")
    return as_isomorphism(b, double, vec, "ibsl")


def delta_iso(g: GRSpaceWithInvolution) -> Morphism:
    """Evaluation isomorphism of a GR space with involution onto its double
    dual."""
    from .morphisms import as_isomorphism

    double = dual_of_ibsl(dual_of_gr(g))
    vec = _locate(_masks(double.points), _masks(zip(*gr_homs(g))),
                  "evaluation")
    return as_isomorphism(g, double, vec, "igr")


def dual_of_ibsl_hom(f: Morphism) -> Morphism:
    """Contravariant dual of an algebra hom: precomposition between the dual
    spaces, preserving star, constants, order and involution."""
    from .morphisms import Morphism

    if f.kind != "ibsl":
        raise NotIBSL("expected a hom of involutive bisemilattices")
    dual_target = dual_of_ibsl(f.target)
    dual_source = dual_of_ibsl(f.source)
    vec = _locate(_masks(dual_source.points),
                  _masks(map(point.__getitem__, f.map)
                         for point in dual_target.points), "precomposition")
    return Morphism(dual_target, dual_source, vec, "igr")


def ibsl_to_inverse_system(b: FiniteAlgebra) -> InverseSystem:
    """Decompose into Boolean fibers, then dualize fiberwise into a
    semilattice inverse system of finite Stone spaces."""
    from .lattices import lift_functor_dir_to_inv
    from .systems import plonka_decompose

    return lift_functor_dir_to_inv(plonka_decompose(b))


# Stone duality is in lattices and FiniteSpace in orders; the names of
# theirs that the benchmark wraps or imports from here resolve from here
__getattr__ = forwarder(globals(), {
    "lattices": ("ba_of_space", "lift_functor_dir_to_inv",
                 "lift_functor_inv_to_dir", "stone_double_dual_iso",
                 "stone_dual"),
    "orders": ("FiniteSpace",),
})
