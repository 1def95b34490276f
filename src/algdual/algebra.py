"""Finite algebras as explicit operation tables, and their axiom
validators.

Carriers are always ``{0, ..., size-1}``; display names are metadata only.
Operation tables are row-major (row = first argument).  All objects are
immutable after construction, so they can be shared freely between workers.

Validators return a :class:`ValidationReport` listing one entry per checked
identity.  Each failed identity carries the lexicographically first
witnessing assignment, which keeps golden outputs small and deterministic.

Identity checks run over whole rows.  :func:`first_violation` builds the
terms of an identity into closures on each call.  The last two variables
are rows of all their values, gathered through a table at once
(``bytes.translate`` on byte rows up to 256 elements, a tuple gather
above; see :func:`row_kernel`), and the others run over the carrier in
``product`` order.  Assignments are visited in lexicographic order, so
every witness is the first one.  ``tests/oracles.py`` keeps the
one-loop-per-variable form and the term-tree evaluation as references.
The lattice validators evaluate identities only for an algebra that is
not a ring of sets under :func:`birkhoff_labels`, the labelling that
:mod:`algdual.lattices` also dualizes.

Every command loads this module, so it holds only what checking an algebra
document runs.  Morphisms (:mod:`algdual.morphisms`), the hom search
(:mod:`algdual.search`), orders (:mod:`algdual.orders`) and index
semilattices (:mod:`algdual.systems`) live with the commands that use them;
the functions of theirs that the benchmark wraps or imports from here
still resolve from here, on first use.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import operator
import weakref
from types import MappingProxyType
from typing import Mapping, Optional

from .errors import MissingOperation, UnknownBuiltin

Table = tuple[tuple[int, ...], ...]
# a carrier map as its value vector (f(0), ..., f(n-1))
RawMap = tuple[int, ...]


class Record:
    """Base of the immutable value classes.

    A subclass declares its fields as class annotations, in constructor
    order, and stores them in its ``__init__`` through ``self.__dict__``.
    Records are equal when they are of the same class with equal fields,
    hash by their fields, print as ``Name(field=value, ...)`` and refuse
    assignment.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _cells(rows, n: int, what: str, name: str):
    """The rows ``rows`` of the table or map ``what`` ``name``, read in
    one run: their lengths, and their entries as one bytes when
    all lie in range(256), else as one tuple, or None if one lies outside
    range(n).  An entry ``operator.index`` refuses raises ValueError."""
    try:
        rows = tuple(rows)
        if {*map(type, rows)} - _SEQUENCES:  # read an iterator row once
            rows = tuple(map(list, rows))
        lengths = tuple(map(len, rows))
        try:
            cells = b"".join(map(bytes, rows))
        except ValueError:  # an entry outside range(256): read as ints
            cells = tuple(map(operator.index, itertools.chain(*rows)))
            return lengths, None if min(cells) < 0 or max(cells) >= n else cells
    except TypeError:
        raise ValueError(f"{what} {name!r} has a non-integer entry") from None
    # deleting every value below n leaves those out of range
    return lengths, None if cells.translate(None, _BYTES[:n]) else cells


_SEQUENCES, _BYTES = frozenset((bytes, list, tuple)), bytes(range(256))
_NO_OPS: Mapping = MappingProxyType({})


class FiniteAlgebra(Record):
    """A finite algebra on carrier {0, ..., size-1} with named operations.

    The operation maps are read-only views, so an algebra is hashable.
    Every entry must be an integer (a bool counts as 0 or 1).
    """

    size: int
    binary_ops: Mapping[str, Table]
    unary_ops: Mapping[str, tuple[int, ...]]
    constants: Mapping[str, int]
    names: Optional[tuple[str, ...]]

    def __init__(self, size: int, binary_ops: Mapping = _NO_OPS,
                 unary_ops: Mapping = _NO_OPS, constants: Mapping = _NO_OPS,
                 names=None):
        if size < 1:
            raise ValueError("carrier must be non-empty")
        if names is not None:
            names = tuple(names)
            if len(names) != size:
                raise ValueError("names must match carrier size")
        seen = set()
        for name in (*binary_ops, *unary_ops, *constants):
            if name in seen:
                raise ValueError(f"duplicate operation name {name!r}")
            seen.add(name)
        binary, unary, consts = {}, {}, {}
        for name, t in binary_ops.items():
            lengths, cells = _cells(t, size, "table", name)
            if len(lengths) != size or {*lengths} != {size}:
                raise ValueError(f"table {name!r} is not {size}x{size}")
            if cells is None:
                raise ValueError(f"table {name!r} has out-of-range entries")
            # size copies of one iterator: the cells in rows of size
            binary[name] = tuple(zip(*[iter(cells)] * size))
        for name, t in unary_ops.items():
            (length,), cells = _cells((t,), size, "map", name)
            if length != size or cells is None:
                raise ValueError(f"map {name!r} is not a carrier self-map")
            unary[name] = tuple(cells)
        for name, c in constants.items():
            try:
                consts[name] = c = operator.index(c)
            except TypeError:
                raise ValueError(f"constant {name!r} is not an integer") from None
            if not 0 <= c < size:
                raise ValueError(f"constant {name!r} out of range")
        self.__dict__.update(size=size,
                             binary_ops=MappingProxyType(binary),
                             unary_ops=MappingProxyType(unary),
                             constants=MappingProxyType(consts),
                             names=names)

    def __hash__(self):
        return hash((self.size, frozenset(self.binary_ops.items()),
                     frozenset(self.unary_ops.items()),
                     frozenset(self.constants.items()), self.names))

    def __reduce__(self):
        # read-only views cannot be pickled; rebuild from plain dicts
        return FiniteAlgebra, (self.size, dict(self.binary_ops),
                               dict(self.unary_ops), dict(self.constants),
                               self.names)

    @functools.cached_property
    def _row_tables(self) -> dict:
        """The padded tables of :func:`_row_table`, by (op, form)."""
        return {}

    def binary(self, name: str) -> Table:
        try:
            return self.binary_ops[name]
        except KeyError:
            raise MissingOperation(f"algebra has no binary operation {name!r}")

    def unary(self, name: str) -> tuple[int, ...]:
        try:
            return self.unary_ops[name]
        except KeyError:
            raise MissingOperation(f"algebra has no unary operation {name!r}")

    def const(self, name: str) -> int:
        try:
            return self.constants[name]
        except KeyError:
            raise MissingOperation(f"algebra has no constant {name!r}")

    def has(self, name: str) -> bool:
        return (name in self.binary_ops or name in self.unary_ops
                or name in self.constants)

    def element_name(self, x: int) -> str:
        return self.names[x] if self.names else str(x)

    def reduct(self, binary=(), unary=(), constants=()) -> "FiniteAlgebra":
        """The same carrier with only the listed operations."""
        return FiniteAlgebra(
            self.size,
            {k: self.binary(k) for k in binary},
            {k: self.unary(k) for k in unary},
            {k: self.const(k) for k in constants},
            self.names,
        )

    def with_ops(self, binary=None, unary=None, constants=None) -> "FiniteAlgebra":
        """A copy extended with additional operations.  It shares the tables
        this algebra holds; only the new ones are frozen and checked."""
        new = FiniteAlgebra(self.size, binary or {}, unary or {},
                            constants or {})
        ops = {f: {**getattr(self, f), **getattr(new, f)}
               for f in ("binary_ops", "unary_ops", "constants")}
        names = [name for t in ops.values() for name in t]
        if len(set(names)) != len(names):
            raise ValueError("duplicate operation name")
        out = FiniteAlgebra.__new__(FiniteAlgebra)
        out.__dict__.update(size=self.size, names=self.names, **{
            f: MappingProxyType(t) for f, t in ops.items()})
        return out


# ---------------------------------------------------------------------------
# Whole-row kernels
# ---------------------------------------------------------------------------
# Scans over a carrier do one C-level operation per row instead of one
# Python step per cell: a row of ints is gathered through a table at once.
# Sets of elements are ints (:func:`byteset`).

def byteset(row) -> int:
    """The set of positions y where ``row[y]`` is 1 or True, as the int
    with byte y equal to ``row[y]``."""
    return int.from_bytes(bytes(row), "little")


def _least(s: int) -> int:
    """The least element of a non-empty byte set."""
    return (s & -s).bit_length() - 1 >> 3


def _gather(row, table) -> tuple[int, ...]:
    # itemgetter returns a bare item, not a tuple, for a one-entry row
    if len(row) > 1:
        return operator.itemgetter(*row)(table)
    return (table[row[0]],)


_BYTE_ROWS = (bytes, bytes.translate, lambda t: bytes(t).ljust(256, b"\0"),
              b"".join)
_TUPLE_ROWS = (tuple, _gather, tuple,
               lambda rows: tuple(itertools.chain.from_iterable(rows)))


def row_kernel(n: int):
    """``(make, gather, pad, join)`` for carriers of ``n`` elements: ``make``
    builds a row from ints below n, ``gather(row, table)`` is the row of
    ``table[v]`` for each entry v of ``row``, ``pad`` puts a table of at
    most n ints below n into the shape ``gather`` reads, and ``join``
    concatenates rows.  Up to 256 elements rows are bytes and a table is
    padded to 256 bytes for ``bytes.translate``; above, all are tuples."""
    return _BYTE_ROWS if n <= 256 else _TUPLE_ROWS


def _row_table(a: FiniteAlgebra, op: str, form: str):
    """Operation ``op`` of ``a`` as a tuple of maps padded for the row
    kernel: the unary map alone (``form='map'``), or a binary table's
    ``'rows'`` or ``'cols'`` (column y is the map x -> t[x][y]).  Cached on
    the algebra, so the cache dies with it."""
    cache = a._row_tables
    if (op, form) not in cache:
        pad = row_kernel(a.size)[2]
        if form == "map":
            cache[op, form] = (pad(a.unary_ops[op]),)
        else:
            t = a.binary_ops[op]
            cache[op, form] = tuple(map(pad, t if form == "rows" else zip(*t)))
    return cache[op, form]


# Where a map first fails to keep a table or an order, or two composites
# first differ, a row at a time; ``tests/oracles.py`` keeps the loops.

def compose(outer, inner) -> RawMap:
    """The value vector of ``outer`` after ``inner``."""
    return tuple(map(outer.__getitem__, inner))


def first_difference(u, v) -> Optional[int]:
    """The first index at which the rows ``u`` and ``v`` differ, or None."""
    return None if u == v else list(map(operator.ne, u, v)).index(True)


def table_break(f, ta: Table, tb: Table) -> Optional[tuple[int, int]]:
    """The first (x, y) with ``f(ta[x][y]) != tb[f x][f y]``, or None, for
    f: A -> B: ``f . ta`` against the rows ``f x`` of ``tb`` gathered
    through f, one gather per value of f, all rows in one comparison."""
    make, gather, pad, join = row_kernel(max(len(ta), len(tb)))
    frow = make(f)
    images = {v: gather(frow, pad(tb[v])) for v in set(f)}
    i = first_difference(gather(make(itertools.chain(*ta)), pad(f)),
                         join(map(images.__getitem__, f)))
    return None if i is None else divmod(i, len(ta))


def order_breaks(maps, la, lb, reflect: bool = False):
    """For each f: A -> B in ``maps``, the first (x, y) with ``la[x][y]``
    and not ``lb[f x][f y]`` or, if ``reflect``, with the two different, or
    None: the pairs of ``la`` as one byte set against the preimages of the
    up-sets of each f x, gathered through rows of ``lb`` padded per call."""
    make, gather, pad, join = row_kernel(max(len(la), len(lb)))
    pairs, rows = byteset(itertools.chain(*la)), list(map(pad, lb))
    for f in maps:
        frow = make(f)
        preimages = {v: gather(frow, rows[v]) for v in set(f)}
        kept = byteset(join(map(preimages.__getitem__, f)))
        bad = pairs ^ kept if reflect else pairs & ~kept
        yield divmod(_least(bad), len(la)) if bad else None


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------

# Terms are nested tuples: a variable is a string, ('zero',) is a constant,
# ('neg', t) applies a unary operation, ('join', s, t) a binary one.

_ACCESSORS = {1: "const", 2: "unary", 3: "binary"}


def _variables(term, names: set) -> set:
    if isinstance(term, str):
        names.add(term)
    else:
        for t in term[1:]:
            _variables(t, names)
    return names


# The axes a subterm reads, as bits: the last variable z and the one before
# it, y, are rows (see first_violation).
_Z, _Y = 1, 2
_YZ = _Y | _Z


def first_violation(a: FiniteAlgebra, lhs, rhs) -> Optional[tuple[int, ...]]:
    """Lexicographically first assignment violating ``lhs = rhs``, if any.

    Variables are taken in sorted name order.  The last two, y and z, are
    rows of all their values (``R``), so a subterm is a value, a row over y
    or over z, or, if it reads both, the list over y of its rows over z.  A
    row goes through a padded table by one gather of :func:`row_kernel`:
    the unary map, or the row or column that the other argument picks
    (gathering ``R`` is a slice); two rows are zipped.  The other variables
    run over the carrier in ``product`` order as ``env``.  A subterm that
    reads none of them is computed once, the others become closures of
    ``env``.  Tables are looked up in pre-order, ``lhs`` first, so a
    missing operation raises the tree walk's error, and the first witness
    is the tree walk's.
    """
    names = sorted(_variables(rhs, _variables(lhs, set())))
    outer = names[:-2]
    full = _YZ if len(names) > 1 else len(names)
    n = a.size
    make, gather, *_ = row_kernel(n)
    R = make(range(n))
    leaves = dict(zip(names[::-1], ((R, _Z), (R, _Y))))
    for k, v in enumerate(outer):
        leaves[v] = operator.itemgetter(k), 0

    def along_y(value, axes):
        return value if axes & _Y else itertools.repeat(value, n)

    def kernel(op, table, unary, su, sv):
        """The function of the arguments' values, which read the axes ``su``
        and ``sv``, that gives the node's value; and whether it takes them
        in reverse order."""
        lifted = su | sv == _YZ
        # whether each argument is a row; in a list over y, a row over z
        ru, rv = (su & _Z, sv & _Z) if lifted else (su, sv)
        if not (ru or rv):
            return (lambda u, v: table[u] if unary else table[u][v]), False
        if ru and rv:
            def zipped(u, v):
                return make(table[s][t] for s, t in zip(u, v))
            if not lifted:
                return zipped, False
            return (lambda u, v: [zipped(*uv) for uv in zip(
                along_y(u, su), along_y(v, sv))]), False
        # f(row, pick): the row through the unary map (pick 0) or through
        # the row or column of the table that the other argument picks
        p = _row_table(a, op, "map" if unary else "cols" if ru else "rows")
        if not ru:
            su, sv = sv, su
        if not lifted:
            f = lambda row, w: p[w][:n] if row is R else gather(row, p[w])
        elif su & sv & _Y:
            f = lambda rows, ws: [gather(x, p[w]) for x, w in zip(rows, ws)]
        elif su & _Y:
            f = lambda rows, w: [gather(x, p[w]) for x in rows]
        else:
            f = lambda row, ws: ([p[w][:n] for w in ws] if row is R
                                 else [gather(row, p[w]) for w in ws])
        return f, not ru

    def build(term):
        """(``term``'s value, or a closure of ``env`` that returns it; the
        axes it reads)."""
        if isinstance(term, str):
            return leaves[term]
        table = getattr(a, _ACCESSORS[len(term)])(term[0])
        if len(term) == 1:
            return table, 0
        u, su = build(term[1])
        # a unary op has one map, which the pick 0 picks
        v, sv = build(term[2]) if len(term) == 3 else (0, 0)
        f, swap = kernel(term[0], table, len(term) == 2, su, sv)
        if swap:
            u, v = v, u
        if callable(u) and callable(v):
            return (lambda env: f(u(env), v(env))), su | sv
        if callable(u):
            return (lambda env: f(u(env), v)), su | sv
        if callable(v):
            return (lambda env: f(u, v(env))), su | sv
        return f(u, v), su | sv

    def expand(value, axes):
        """``value`` as the rows over z of every y (as one row, or as the
        value, when the identity has fewer variables)."""
        if axes == full:
            return value
        if full == _Z:
            return make((value,)) * n
        return [v if axes & _Z else make((v,)) * n
                for v in along_y(value, axes)]

    (l, sl), (r, sr) = build(lhs), build(rhs)
    # build refers to itself: a cycle that would keep ``a`` alive
    del build
    for env in itertools.product(range(n), repeat=len(outer)):
        lv = expand(l(env) if callable(l) else l, sl)
        rv = expand(r(env) if callable(r) else r, sr)
        if lv != rv:
            for _ in names[len(outer):]:
                i = first_difference(lv, rv)
                env, lv, rv = (*env, i), lv[i], rv[i]
            return env
    return None


class Check(Record):
    """Outcome of a single named check, with an optional witness tuple."""

    name: str
    holds: bool
    witness: Optional[tuple[int, ...]]
    note: str

    def __init__(self, name: str, holds: bool,
                 witness: Optional[tuple[int, ...]] = None, note: str = ""):
        self.__dict__.update(name=name, holds=holds, witness=witness,
                             note=note)


class ValidationReport(Record):
    subject: str
    checks: tuple[Check, ...]

    def __init__(self, subject: str, checks: tuple[Check, ...]):
        self.__dict__.update(subject=subject, checks=checks)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.holds]

    def require(self, error, message: str) -> None:
        """Raise ``error(message, self)`` unless every check holds."""
        if not self.ok:
            raise error(message, self)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _identity_checks(a: FiniteAlgebra, identities,
                     lawful: bool = False) -> list[Check]:
    # a lawful algebra has no witness to look for
    out = []
    for name, lhs, rhs in identities:
        w = None if lawful else first_violation(a, lhs, rhs)
        out.append(Check(name, w is None, w))
    return out


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")

BISEMILATTICE_IDENTITIES = (
    ("join-idempotent", ("join", "x", "x"), "x"),
    ("join-commutative", ("join", "x", "y"), ("join", "y", "x")),
    ("join-associative",
     ("join", "x", ("join", "y", "z")), ("join", ("join", "x", "y"), "z")),
    ("meet-idempotent", ("meet", "x", "x"), "x"),
    ("meet-commutative", ("meet", "x", "y"), ("meet", "y", "x")),
    ("meet-associative",
     ("meet", "x", ("meet", "y", "z")), ("meet", ("meet", "x", "y"), "z")),
    ("join-distributes-over-meet",
     ("join", "x", ("meet", "y", "z")),
     ("meet", ("join", "x", "y"), ("join", "x", "z"))),
    ("meet-distributes-over-join",
     ("meet", "x", ("join", "y", "z")),
     ("join", ("meet", "x", "y"), ("meet", "x", "z"))),
)

LATTICE_ABSORPTION = (
    ("join-absorbs-meet", ("join", "x", ("meet", "x", "y")), "x"),
    ("meet-absorbs-join", ("meet", "x", ("join", "x", "y")), "x"),
)

IBSL_IDENTITIES = (
    ("I1", ("join", "x", "x"), "x"),
    ("I2", ("join", "x", "y"), ("join", "y", "x")),
    ("I3", ("join", "x", ("join", "y", "z")),
     ("join", ("join", "x", "y"), "z")),
    ("I4", ("neg", ("neg", "x")), "x"),
    ("I5", ("meet", "x", "y"), ("neg", ("join", ("neg", "x"), ("neg", "y")))),
    ("I6", ("meet", "x", ("join", ("neg", "x"), "y")), ("meet", "x", "y")),
    ("I7", ("join", ("zero",), "x"), "x"),
    ("I8", ("one",), ("neg", ("zero",))),
)

IBSL_DERIVED = (
    ("derived-join-de-morgan",
     ("join", "x", "y"), ("neg", ("meet", ("neg", "x"), ("neg", "y")))),
    ("derived-join-complement-meet",
     ("join", "x", "y"), ("join", "x", ("meet", ("neg", "x"), "y"))),
)

SEMILATTICE_BOTTOM = (
    ("bottom-neutral", ("join", ("bottom",), "x"), "x"),
)

BOOLEAN_COMPLEMENT = (
    ("join-complement", ("join", "x", ("neg", "x")), ("one",)),
    ("meet-complement", ("meet", "x", ("neg", "x")), ("zero",)),
    ("zero-neutral", ("join", ("zero",), "x"), "x"),
    ("one-neutral", ("meet", ("one",), "x"), "x"),
)


_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def validated_once(validate):
    """Memoize ``validate(obj)`` weakly per object: validating an object
    again, or an equal one (objects are immutable and compare by their
    fields), returns the stored report, and the memo dies with its objects."""

    @functools.wraps(validate)
    def memoized(obj) -> ValidationReport:
        reports = _VERDICTS.setdefault(obj, {})
        if memoized not in reports:
            reports[memoized] = validate(obj)
        return reports[memoized]

    return memoized


def _require(a: FiniteAlgebra, binary=(), unary=(), constants=()):
    for name in binary:
        if name not in a.binary_ops:
            raise MissingOperation(f"missing binary operation {name!r}")
    for name in unary:
        if name not in a.unary_ops:
            raise MissingOperation(f"missing unary operation {name!r}")
    for name in constants:
        if name not in a.constants:
            raise MissingOperation(f"missing constant {name!r}")


@validated_once
def validate_bisemilattice(a: FiniteAlgebra) -> ValidationReport:
    """Check that join and meet are both semilattice operations distributing
    over each other."""
    _require(a, binary=("join", "meet"))
    return ValidationReport("bisemilattice", tuple(_identity_checks(a, BISEMILATTICE_IDENTITIES)))


def ibsl_completion(a: FiniteAlgebra) -> FiniteAlgebra:
    """Extend with the meet and unit derived from join, neg and zero.

    Meet is forced by ``x . y = (x' + y')'`` and the unit by ``1 = 0'``, so
    an involutive bisemilattice is determined by its join reduct.  Existing
    meet/one tables are kept (validators cross-check them against the
    synthesis).
    """
    _require(a, binary=("join",), unary=("neg",), constants=("zero",))
    join, neg = a.binary("join"), a.unary("neg")
    extra_bin, extra_const = {}, {}
    if "meet" not in a.binary_ops:
        extra_bin["meet"] = [
            [neg[join[neg[x]][neg[y]]] for y in range(a.size)]
            for x in range(a.size)
        ]
    if "one" not in a.constants:
        extra_const["one"] = neg[a.const("zero")]
    return a.with_ops(binary=extra_bin, constants=extra_const)


@validated_once
def validate_ibsl(a: FiniteAlgebra) -> ValidationReport:
    """Check the involutive-bisemilattice axioms I1-I8 plus two derived laws.

    Requires join, neg and zero; meet and one are synthesized when absent and
    cross-checked against the synthesis when present.
    """
    _require(a, binary=("join",), unary=("neg",), constants=("zero",))
    b = ibsl_completion(a)
    checks = _identity_checks(b, IBSL_IDENTITIES + IBSL_DERIVED)
    return ValidationReport("involutive bisemilattice", tuple(checks))


def birkhoff_labels(a: FiniteAlgebra) -> tuple[list[int], list[int]]:
    """The join-irreducibles of a finite lattice in index order, and each
    element's set of join-irreducibles below it as an int, bit k for the
    k-th (Birkhoff's representation; Stone's in a Boolean algebra).  Only
    the join table is read: x is join-irreducible when the elements
    strictly below it are those below one element."""
    # byte y of below[x] is 1 when x + y = x: y <= x, in a lattice
    below = [bytes(map(x.__eq__, row)) for x, row in enumerate(a.binary("join"))]
    downs = set(below)
    irreducible = [x for x, b in enumerate(below)
                   if b[:x] + b"\0" + b[x + 1:] in downs]
    # x's set: the bytes of below[x] at the join-irreducibles, last first,
    # read as the digits of a binary number
    last_first = irreducible[::-1]
    return irreducible, [int(b"0" + bytes(map(b.__getitem__, last_first))
                             .translate(_BINARY_DIGITS), 2) for b in below]


def _is_set_algebra(a: FiniteAlgebra, boolean: bool) -> bool:
    """Whether the labels of :func:`birkhoff_labels` are one-to-one and
    send join to union, meet to intersection and, if ``boolean``, neg to
    complement, zero to the empty and one to the full set: then ``a`` is a
    ring (field) of sets, as by Birkhoff (Stone) every finite distributive
    lattice (Boolean algebra) is.  A table row is one int, a cell a set."""
    n, join, meet = a.size, a.binary_ops["join"], a.binary_ops["meet"]
    irreducible, labels = birkhoff_labels(a)
    if len(set(labels)) < n:
        return False
    cells = [s.to_bytes(len(irreducible) // 8 + 1, "little") for s in labels]

    def sets(row) -> int:  # the sets of the cells, joined
        return int.from_bytes(b"".join(map(cells.__getitem__, row)), "little")

    # cell y of row x of join (meet) must hold the union (intersection) of
    # the sets of x (repeated in xs) and of y (listed in ys)
    ys = sets(range(n))
    for cell, join_row, meet_row in zip(cells, join, meet):
        xs = int.from_bytes(cell * n, "little")
        if sets(join_row) != xs | ys or sets(meet_row) != xs & ys:
            return False
    if not boolean:
        return True
    one, full = a.constants["one"], (1 << len(irreducible)) - 1
    return (labels[a.constants["zero"]] == 0 and labels[one] == full
            and sets(a.unary_ops["neg"]) == ys ^ sets([one] * n))


@validated_once
def validate_boolean_algebra(a: FiniteAlgebra) -> ValidationReport:
    """Bounded distributive lattice plus complement laws, evaluated only if
    ``a`` is not a field of sets (:func:`_is_set_algebra`)."""
    _require(a, binary=("join", "meet"), unary=("neg",), constants=("zero", "one"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION + BOOLEAN_COMPLEMENT
    checks = _identity_checks(a, identities, _is_set_algebra(a, True))
    return ValidationReport("boolean algebra", tuple(checks))


@validated_once
def validate_distributive_lattice(a: FiniteAlgebra) -> ValidationReport:
    """Distributive lattice laws, evaluated unless ``a`` is a ring of sets."""
    _require(a, binary=("join", "meet"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION
    checks = _identity_checks(a, identities, _is_set_algebra(a, False))
    return ValidationReport("distributive lattice", tuple(checks))


@validated_once
def validate_semilattice(a: FiniteAlgebra) -> ValidationReport:
    """Single-operation semilattice; the bottom law is checked when a bottom
    constant is declared."""
    _require(a, binary=("join",))
    checks = _identity_checks(a, BISEMILATTICE_IDENTITIES[:3])
    if "bottom" in a.constants:
        checks.extend(_identity_checks(a, SEMILATTICE_BOTTOM))
    return ValidationReport("join semilattice", tuple(checks))


# ---------------------------------------------------------------------------
# Built-in algebras
# ---------------------------------------------------------------------------

_THREE_JOIN = ((0, 1, 2), (1, 1, 2), (2, 2, 2))
_THREE_MEET = ((0, 0, 2), (0, 1, 2), (2, 2, 2))


def builtin(name: str) -> FiniteAlgebra:
    """Built-in algebras: ``two``, ``s2``, ``wk`` and ``three``.

    ``three`` is the three-element bisemilattice on {0, 1, a} whose meet
    order is the chain a < 0 < 1 and whose join order is 0 < 1 < a.  ``wk``
    extends it with the involution swapping 0 and 1 and fixing a.  ``two``
    is the two-element Boolean algebra and ``s2`` the two-element semilattice
    with zero whose involution is the identity.
    """
    if name == "three":
        return FiniteAlgebra(
            3, {"join": _THREE_JOIN, "meet": _THREE_MEET},
            names=("0", "1", "α"))
    if name == "wk":
        return FiniteAlgebra(
            3, {"join": _THREE_JOIN, "meet": _THREE_MEET},
            {"neg": (1, 0, 2)}, {"zero": 0, "one": 1},
            names=("0", "1", "α"))
    if name == "two":
        return FiniteAlgebra(
            2, {"join": ((0, 1), (1, 1)), "meet": ((0, 0), (0, 1))},
            {"neg": (1, 0)}, {"zero": 0, "one": 1}, names=("0", "1"))
    if name == "s2":
        return FiniteAlgebra(
            2, {"join": ((0, 1), (1, 1)), "meet": ((0, 1), (1, 1))},
            {"neg": (0, 1)}, {"zero": 0, "one": 0}, names=("0", "a"))
    raise UnknownBuiltin(f"no builtin algebra named {name!r}")


# ---------------------------------------------------------------------------
# Kinds, and the names defined in the modules that use them
# ---------------------------------------------------------------------------

def resolve(ref):
    """``ref``, or the attribute a ``(module, name)`` pair names, looked up
    now: its module loads on first use, and a replacing wrapper is seen."""
    if callable(ref):
        return ref
    module, name = ref
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


# Morphism kinds: (validator, then the operations a morphism must preserve:
# binary, unary, constants, and constants preserved exactly when both
# endpoints declare them).  An involutive bisemilattice's meet and unit are
# derived from join, neg and zero, so preserving those preserves them too;
# index semilattices of systems always declare a bottom.  Ordered spaces
# preserve their GR structure instead (see ``morphisms._signature``).
MORPHISM_KINDS = {
    "ibsl": (("algebra", "validate_ibsl"), ("join",), ("neg",), ("zero",),
             ()),
    "ba": (("algebra", "validate_boolean_algebra"), ("join", "meet"),
           ("neg",), ("zero", "one"), ()),
    "bsl": (("algebra", "validate_bisemilattice"), ("join", "meet"), (), (),
            ()),
    "dl": (("algebra", "validate_distributive_lattice"), ("join", "meet"),
           (), (), ()),
    "sl": (("algebra", "validate_semilattice"), ("join",), (), (),
           ("bottom",)),
    "gr": (("duality", "validate_gr_space"),),
    "igr": (("duality", "validate_gr_involution"),),
}
SPACE_KINDS = ("gr", "igr")
ALGEBRA_KINDS = tuple(k for k in MORPHISM_KINDS if k not in SPACE_KINDS)

def forwarder(namespace: dict, moved: dict):
    """A module ``__getattr__`` (PEP 562) for the names that ``moved`` lists
    by the module that defines them: each resolves on first use and is then
    kept in ``namespace``, the module's globals."""
    home = {name: module for module, names in moved.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = resolve((home[name], name))
        return value

    return __getattr__


# Morphisms, the hom search and permute_algebra are defined in the modules
# of the commands that use them, so every command compiles only the code it
# runs; these names, which the benchmark wraps or imports from here, resolve
# from here too.
__getattr__ = forwarder(globals(), {
    "morphisms": ("morphism_violations",),
    "search": ("enumerate_homs", "find_isomorphism"),
    "systems": ("permute_algebra",),
})
