"""Finite algebras as explicit operation tables, axiom validators, and
brute-force homomorphism machinery.

Carriers are always ``{0, ..., size-1}``; display names are metadata only.
Operation tables are row-major (row = first argument).  All objects are
immutable after construction, so they can be shared freely between workers.

Validators return a :class:`ValidationReport` listing one entry per checked
identity.  Each failed identity carries the lexicographically first
witnessing assignment, which keeps golden outputs small and deterministic.

Identity checks are compiled.  :func:`first_violation` turns each identity,
on first use, into nested loops over every variable but the last, in sorted
name order; each subterm is computed once, in the outermost loop that binds
all of its variables.  The last variable is a row of all its values, and a
subterm that reads it is one whole-row gather through a table row, column,
diagonal or unary map (``bytes.translate`` on byte rows up to 256 elements,
a tuple gather above; see :func:`row_kernel`).  The sides are compared as
rows, and the first index where they differ completes the witness, so
assignments are visited in lexicographic order and every witness is the
first one.  ``tests/oracles.py`` keeps the one-loop-per-variable form and
the term-tree evaluation as references.

Homomorphism enumeration is a backtracking search over the value vector
``(f(0), ..., f(n-1))`` that propagates the values the equations force and
fails a branch at its first conflict (see :mod:`algdual.search`); it yields
morphisms sorted lexicographically by value vector.  Dual-space
constructions downstream rely on that ordering.
"""

from __future__ import annotations

import functools
import importlib
import operator
import weakref
from itertools import compress
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    InvalidMorphism,
    IsomorphismFailure,
    KindMismatch,
    MissingBottom,
    MissingOperation,
    NotSemilattice,
    UnknownBuiltin,
)

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


def _freeze_row(row) -> tuple[int, ...]:
    # a bytes row (see row_kernel) holds ints already
    return tuple(row) if type(row) is bytes else tuple(map(int, row))


def _freeze_binary(table) -> Table:
    return tuple(map(_freeze_row, table))


_NO_OPS: Mapping = MappingProxyType({})


class FiniteAlgebra(Record):
    """A finite algebra on carrier {0, ..., size-1} with named operations.

    The operation maps are read-only views, so an algebra is hashable.
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
        binary_ops = {k: _freeze_binary(t) for k, t in binary_ops.items()}
        unary_ops = {k: _freeze_row(t) for k, t in unary_ops.items()}
        constants = {k: int(v) for k, v in constants.items()}
        if names is not None:
            names = tuple(names)
            if len(names) != size:
                raise ValueError("names must match carrier size")
        seen = set()
        for name in (*binary_ops, *unary_ops, *constants):
            if name in seen:
                raise ValueError(f"duplicate operation name {name!r}")
            seen.add(name)
        rng = range(size)
        for name, t in binary_ops.items():
            if len(t) != size or any(len(row) != size for row in t):
                raise ValueError(f"table {name!r} is not {size}x{size}")
            if any(min(row) < 0 or max(row) >= size for row in t):
                raise ValueError(f"table {name!r} has out-of-range entries")
        for name, t in unary_ops.items():
            if len(t) != size or any(v not in rng for v in t):
                raise ValueError(f"map {name!r} is not a carrier self-map")
        for name, c in constants.items():
            if c not in rng:
                raise ValueError(f"constant {name!r} out of range")
        self.__dict__.update(size=size,
                             binary_ops=MappingProxyType(binary_ops),
                             unary_ops=MappingProxyType(unary_ops),
                             constants=MappingProxyType(constants),
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


def permute_algebra(a: FiniteAlgebra, perm: Sequence[int]) -> FiniteAlgebra:
    """Relabel the carrier along ``perm`` (old label -> new label).

    Row x of a new table is row ``inv[x]`` of the old one with its columns
    gathered through ``inv`` and its values through ``perm``: two whole-row
    gathers (see :func:`row_kernel`).  ``tests/oracles.py`` keeps the
    cell-by-cell form."""
    make, gather, pad = row_kernel(a.size)
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


# ---------------------------------------------------------------------------
# Whole-row kernels
# ---------------------------------------------------------------------------
# Scans over a carrier do one C-level operation per row instead of one
# Python step per cell: a row of ints is gathered through a table at once,
# and a set of elements is an int, so unions, intersections and subset tests
# are single operations.

def byteset(row: Sequence[int]) -> int:
    """The set of positions y where ``row[y]`` is 1 or True, as the int
    with byte y equal to ``row[y]``."""
    return int.from_bytes(bytes(row), "little")


def _gather(row, table) -> tuple[int, ...]:
    # itemgetter returns a bare item, not a tuple, for a one-entry row
    if len(row) > 1:
        return operator.itemgetter(*row)(table)
    return (table[row[0]],)


def row_kernel(n: int):
    """``(make, gather, pad)`` for carriers of ``n`` elements: ``make``
    builds a row from ints below n, ``gather(row, table)`` is the row of
    ``table[v]`` for each entry v of ``row``, and ``pad`` puts a table of
    at most n ints below n into the shape ``gather`` reads.  Up to 256
    elements rows are bytes, gather is ``bytes.translate`` and a table is
    padded to 256 bytes; above, rows and tables are tuples."""
    if n <= 256:
        return bytes, bytes.translate, lambda t: bytes(t).ljust(256, b"\0")
    return tuple, _gather, tuple


def _row_table(a: FiniteAlgebra, op: str, form: str):
    """Operation ``op`` of ``a`` padded for the row kernel: the unary map
    (``form='map'``), or a binary table's ``'rows'``, ``'cols'`` (column y
    is the map x -> t[x][y]) or ``'diag'`` (x -> t[x][x]).  Cached on the
    algebra, so the cache dies with it."""
    cache = a._row_tables
    if (op, form) not in cache:
        pad = row_kernel(a.size)[2]
        if form == "map":
            out = pad(a.unary_ops[op])
        else:
            t = a.binary_ops[op]
            if form == "diag":
                out = pad([t[x][x] for x in range(a.size)])
            else:
                out = tuple(map(pad, t if form == "rows" else zip(*t)))
        cache[op, form] = out
    return cache[op, form]


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------

# Terms are nested tuples: a variable is a string, ('zero',) is a constant,
# ('neg', t) applies a unary operation, ('join', s, t) a binary one.

_ACCESSORS = {1: "const", 2: "unary", 3: "binary"}


def _first_difference(r1, r2) -> int:
    return next(i for i, (u, v) in enumerate(zip(r1, r2)) if u != v)


def _compile_identity(lhs, rhs) -> str:
    """Python source of ``check(a)``, which returns the first assignment
    violating ``lhs = rhs``, or None.

    Loop k binds the k-th variable in sorted order, except the last: it
    becomes the row ``R`` of all its values, and each subterm that reads it
    is a row too, computed by one gather of the row kernel
    (:func:`row_kernel`): a unary op gathers from its padded map,
    ``t[x][row]`` from row x of ``t``, ``t[row][y]`` from column y, and
    ``t[row][row]`` of one row from the diagonal; two different rows are
    zipped.  The sides are compared as rows, and the first index where they
    differ completes the witness, so assignments are visited in ``product``
    order and the first witness is the tree walk's.  Each distinct subterm
    is computed once, in the outermost loop that binds all of its loop
    variables (level 0 is before the loops).
    """
    uses: dict = {}
    names: set[str] = set()
    tables: dict = {}

    def scan(term):
        # pre-order, lhs first: the tables are looked up in the tree walk's
        # order, so a missing operation raises the same error
        if isinstance(term, str):
            names.add(term)
            return
        tables.setdefault((_ACCESSORS[len(term)], term[0]), f"t{len(tables)}")
        uses[term] = uses.get(term, 0) + 1
        if uses[term] == 1:
            for t in term[1:]:
                scan(t)

    scan(lhs)
    scan(rhs)
    *outer, last = sorted(names) or [None]
    level_of = {v: k + 1 for k, v in enumerate(outer)}
    blocks: list[list[str]] = [[] for _ in range(len(outer) + 1)]
    padded: dict = {}
    done: dict = {}

    def hoist(expr, level, at=None):
        """``expr``, bound to a name in loop ``level`` when it is read in a
        deeper loop ``at`` (always, without ``at``)."""
        if (at is None or level < at) and not expr.isidentifier():
            name = f"s{sum(map(len, blocks))}"
            blocks[level].append(f"{name} = {expr}")
            return name
        return expr

    def gather(row, op, form, index=None):
        table = padded.setdefault((op, form), f"p{len(padded)}")
        if index is not None:
            table += f"[{index}]"
        # gathering the identity row through a table is its first n entries
        return f"{table}[:n]" if row == "R" else f"G({row}, {table})"

    def emit(term):
        """(expression, level, is a row) of ``term``."""
        if isinstance(term, str):
            if term == last:
                return "R", 0, True
            return f"v{level_of[term] - 1}", level_of[term], False
        if term in done:
            return done[term]
        op, t = term[0], tables[(_ACCESSORS[len(term)], term[0])]
        args = [emit(arg) for arg in term[1:]]
        level = max((lv for _, lv, _ in args), default=0)
        row = any(r for _, _, r in args)
        ex = [hoist(e, lv, level) for e, lv, _ in args]
        if not row:
            expr = t + "".join(f"[{e}]" for e in ex)
        elif len(ex) == 1:
            expr = gather(ex[0], op, "map")
        elif args[0][2] and args[1][2]:
            expr = (gather(ex[0], op, "diag") if ex[0] == ex[1] else
                    f"M({t}[u][v] for u, v in zip({ex[0]}, {ex[1]}))")
        elif args[0][2]:
            expr = gather(ex[0], op, "cols", ex[1])
        else:
            expr = gather(ex[1], op, "rows", ex[0])
        if uses[term] > 1:
            expr = hoist(expr, level)
        done[term] = expr, level, row
        return expr, level, row

    sides = []
    for term in (lhs, rhs):
        expr, level, row = emit(term)
        if last and not row:
            expr = f"M(({expr},)) * n"
        sides.append(hoist(expr, level, len(outer)))
    witness = [f"v{k}, " for k in range(len(outer))]
    if last:
        witness.append("_first_difference(l, r), ")
    lines = ["def check(a):", "    n = a.size"]
    lines += [f"    {t} = a.{kind}({op!r})" for (kind, op), t in tables.items()]
    lines.append("    M, G, _ = row_kernel(n)")
    lines += [f"    {p} = _row_table(a, {op!r}, {form!r})"
              for (op, form), p in padded.items()]
    lines.append("    R = M(range(n))")
    for k, block in enumerate(blocks):
        if k:
            lines.append(f"{'    ' * k}for v{k - 1} in range(n):")
        lines += ["    " * (k + 1) + stmt for stmt in block]
    indent = "    " * (len(outer) + 1)
    lines += [f"{indent}l = {sides[0]}", f"{indent}r = {sides[1]}",
              f"{indent}if l != r:", f"{indent}    return ({''.join(witness)})",
              "    return None"]
    return "\n".join(lines) + "\n"


_COMPILED: dict = {}


def first_violation(a: FiniteAlgebra, lhs, rhs) -> Optional[tuple[int, ...]]:
    """Lexicographically first assignment violating ``lhs = rhs``, if any.

    The identity is compiled on first use and cached by ``(lhs, rhs)``; the
    identities are module constants, so the cache stays small.
    """
    check = _COMPILED.get((lhs, rhs))
    if check is None:
        scope: dict = {"row_kernel": row_kernel, "_row_table": _row_table,
                       "_first_difference": _first_difference}
        exec(_compile_identity(lhs, rhs), scope)
        check = _COMPILED[(lhs, rhs)] = scope["check"]
    return check(a)


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


def _identity_checks(a: FiniteAlgebra, identities) -> list[Check]:
    out = []
    for name, lhs, rhs in identities:
        w = first_violation(a, lhs, rhs)
        out.append(Check(name, w is None, w))
    return out


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

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
    """Memoize ``validate(obj, subject=...)`` weakly per object: validating
    an object again, or an equal one (objects are immutable and compare by
    their fields), costs one hash, and the memo dies with its objects."""
    (default_subject,) = validate.__defaults__

    @functools.wraps(validate)
    def memoized(obj, subject=default_subject) -> ValidationReport:
        verdicts = _VERDICTS.setdefault(obj, {})
        if memoized not in verdicts:
            verdicts[memoized] = validate(obj).checks
        return ValidationReport(subject, verdicts[memoized])

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
def validate_bisemilattice(a: FiniteAlgebra, subject="bisemilattice") -> ValidationReport:
    """Check that join and meet are both semilattice operations distributing
    over each other."""
    _require(a, binary=("join", "meet"))
    return ValidationReport(subject, tuple(_identity_checks(a, BISEMILATTICE_IDENTITIES)))


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
def validate_ibsl(a: FiniteAlgebra, subject="involutive bisemilattice") -> ValidationReport:
    """Check the involutive-bisemilattice axioms I1-I8 plus two derived laws.

    Requires join, neg and zero; meet and one are synthesized when absent and
    cross-checked against the synthesis when present.
    """
    _require(a, binary=("join",), unary=("neg",), constants=("zero",))
    b = ibsl_completion(a)
    checks = _identity_checks(b, IBSL_IDENTITIES + IBSL_DERIVED)
    return ValidationReport(subject, tuple(checks))


@validated_once
def validate_boolean_algebra(a: FiniteAlgebra, subject="boolean algebra") -> ValidationReport:
    """Bounded distributive lattice plus complement laws."""
    _require(a, binary=("join", "meet"), unary=("neg",), constants=("zero", "one"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION + BOOLEAN_COMPLEMENT
    return ValidationReport(subject, tuple(_identity_checks(a, identities)))


@validated_once
def validate_distributive_lattice(a: FiniteAlgebra, subject="distributive lattice") -> ValidationReport:
    _require(a, binary=("join", "meet"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION
    return ValidationReport(subject, tuple(_identity_checks(a, identities)))


@validated_once
def validate_semilattice(a: FiniteAlgebra, subject="join semilattice") -> ValidationReport:
    """Single-operation semilattice; the bottom law is checked when a bottom
    constant is declared."""
    _require(a, binary=("join",))
    checks = _identity_checks(a, BISEMILATTICE_IDENTITIES[:3])
    if "bottom" in a.constants:
        checks.extend(_identity_checks(a, SEMILATTICE_BOTTOM))
    return ValidationReport(subject, tuple(checks))


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------

OrderMatrix = tuple[tuple[bool, ...], ...]


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


def _least(s: int) -> int:
    """The least element of a non-empty byte set."""
    return (s & -s).bit_length() - 1 >> 3


def induced_orders(a: FiniteAlgebra) -> tuple[OrderMatrix, OrderMatrix]:
    """The two partial orders of a bisemilattice: (join order, meet order).

    The join order has x <= y iff x + y = y; the meet order has x <= y iff
    x . y = x.  Requires a valid bisemilattice.
    """
    from .errors import NotBisemilattice

    validate_bisemilattice(a).require(NotBisemilattice, "not a bisemilattice")
    return (order_from_binary(a.binary("join"), "join"),
            order_from_binary(a.binary("meet"), "meet"))


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
# Join semilattices (index sets of systems)
# ---------------------------------------------------------------------------

class JoinSemilattice(Record):
    """A validated join semilattice with least element, used as an index set."""

    algebra: FiniteAlgebra
    bottom: int

    def __init__(self, algebra: FiniteAlgebra, bottom: int):
        validate_semilattice(algebra).require(
            NotSemilattice, "join is not a semilattice operation")
        join = algebra.binary("join")
        if any(join[bottom][x] != x for x in range(algebra.size)):
            raise MissingBottom(f"element {bottom} is not a least element")
        if algebra.constants.get("bottom", bottom) != bottom:
            raise ValueError("declared bottom constant disagrees")
        self.__dict__.update(algebra=algebra, bottom=bottom)

    @classmethod
    def from_table(cls, table, bottom: Optional[int] = None,
                   names=None) -> "JoinSemilattice":
        join = _freeze_binary(table)
        if bottom is None:
            n = len(join)
            bottoms = [b for b in range(n) if all(join[b][x] == x for x in range(n))]
            if not bottoms:
                raise MissingBottom("semilattice has no least element")
            bottom = bottoms[0]
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

    @property
    def order(self) -> OrderMatrix:
        return order_from_binary(self.algebra.binary("join"), "join")

    def comparable_pairs(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i <= j, including the diagonal, in
        lexicographic order."""
        return [(i, j) for i in range(self.size) for j in range(self.size)
                if self.leq(i, j)]


# ---------------------------------------------------------------------------
# Morphisms and kind dispatch
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
# preserve their GR structure instead (see ``_signature``).
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
# the classes, by name, of the objects each kind's validator reads; a GR
# space with involution is also a GR space
_KIND_CLASSES = {**dict.fromkeys(ALGEBRA_KINDS, ("FiniteAlgebra",)),
                 "gr": ("GRSpace", "GRSpaceWithInvolution"),
                 "igr": ("GRSpaceWithInvolution",)}


def _signature(source, target, kind: str):
    """What a kind-hom f: source -> target must satisfy, for the check
    (:func:`morphism_violations`) and the search alike, as ``(binary,
    unary, constants, labels, order, reflect)``.  The first four list
    ``(name, source part, target part)`` triples: the tables, maps and
    constants f preserves, and the labels it keeps, ``target part[f x] ==
    source part[x]``, an O(n) restriction of each element's values.
    ``igr`` maps keep the zero-morphism (others dualize to maps that do not
    preserve zero); a side without one has labels no value matches.
    ``order`` is the (source, target) order matrices or None, and
    ``reflect`` is set for ``poset``.  Raises KindMismatch when a side
    lacks required structure."""
    if kind == "poset":
        return [], [], [], [], (source.leq, target.leq), True
    if kind in SPACE_KINDS:
        igr = kind == "igr"
        if igr and not (hasattr(source, "neg") and hasattr(target, "neg")):
            raise KindMismatch("kind 'igr' needs an involution on both sides")
        zero = resolve(("duality", "zero_morphism"))
        return ([("star", source.star, target.star)],
                [("neg", source.neg, target.neg)] if igr else [],
                [(nm, getattr(source, nm), getattr(target, nm))
                 for nm in ("c0", "c1", "calpha")],
                [("zero-morphism", zero(source) or (-1,) * source.size,
                  zero(target) or (-2,) * target.size)] if igr else [],
                (source.leq, target.leq), False)
    if kind not in ALGEBRA_KINDS:
        raise KindMismatch(f"unknown morphism kind {kind!r}")
    _, binary, unary, constants, optional = MORPHISM_KINDS[kind]
    constants = list(constants)
    for names in (binary, unary, constants):
        for name in names:
            if not (source.has(name) and target.has(name)):
                raise KindMismatch(
                    f"kind {kind!r} needs operation {name!r} on both sides")
    for name in optional:
        have = (name in source.constants) + (name in target.constants)
        if have == 1:
            raise KindMismatch(
                f"constant {name!r} declared on only one side")
        if have == 2:
            constants.append(name)
    return ([(nm, source.binary(nm), target.binary(nm)) for nm in binary],
            [(nm, source.unary(nm), target.unary(nm)) for nm in unary],
            [(nm, source.const(nm), target.const(nm)) for nm in constants],
            [], None, False)


def _related_pairs(leq) -> int:
    """The number of related pairs (x, y), x <= y, of an order matrix."""
    return sum(map(sum, leq))


def _first_cell(f: Sequence[int], ta: Table, tb: Table):
    """The first (x, y) with f(ta[x][y]) != tb[f x][f y], or None."""
    for x, row in enumerate(ta):
        image = tb[f[x]]
        for y, v in enumerate(row):
            if f[v] != image[f[y]]:
                return x, y
    return None


def _first_pair(f: Sequence[int], la, lb, related=operator.le):
    """The first (x, y) with ``not related(la[x][y], lb[f x][f y])``, or
    None: where f fails to preserve (``le``) or to reflect (``eq``) it."""
    for x, row in enumerate(la):
        image = lb[f[x]]
        for y, v in enumerate(row):
            if not related(v, image[f[y]]):
                return x, y
    return None


def morphism_violations(source, target, mapping: Sequence[int],
                        kind: str) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first condition of :func:`_signature` that ``mapping`` violates,
    as ``(name, witness)``, or None: constants, labels, unary maps, binary
    tables, then the order, each with its first witness."""
    f = mapping
    binary, unary, constants, labels, order, reflect = _signature(
        source, target, kind)
    for name, ca, cb in constants:
        if f[ca] != cb:
            return name, (ca,)
    for name, la, lb in labels:
        for x, v in enumerate(f):
            if lb[v] != la[x]:
                return name, (x,)
    for name, ua, ub in unary:
        for x, v in enumerate(f):
            if f[ua[x]] != ub[v]:
                return name, (x,)
    for name, ta, tb in binary:
        w = _first_cell(f, ta, tb)
        if w is not None:
            return name, w
    if order is not None:
        w = _first_pair(f, *order, operator.eq if reflect else operator.le)
        if w is not None:
            return "order", w
    return None


class Morphism(Record):
    """A total carrier map validated against its kind's preservation laws."""

    source: object
    target: object
    map: tuple[int, ...]
    kind: str

    def __init__(self, source, target, map: Sequence[int], kind: str):
        map = tuple(int(v) for v in map)
        if len(map) != source.size:
            raise InvalidMorphism("map length does not match source carrier")
        if any(v < 0 or v >= target.size for v in map):
            raise InvalidMorphism("map has out-of-range values")
        bad = morphism_violations(source, target, map, kind)
        if bad is not None:
            raise InvalidMorphism(
                f"map does not preserve {bad[0]!r} at {bad[1]}")
        self.__dict__.update(source=source, target=target, map=map,
                             kind=kind)

    def __call__(self, x: int) -> int:
        return self.map[x]

    @classmethod
    def identity(cls, obj, kind: str) -> "Morphism":
        return cls(obj, obj, tuple(range(obj.size)), kind)

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        from .errors import DomainMismatch

        if other.target is not self.source and other.target != self.source:
            raise DomainMismatch("codomain of inner morphism != domain of outer")
        return Morphism(other.source, self.target,
                        tuple(self.map[v] for v in other.map), self.kind)

    @property
    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.map)) == self.source.size)

    def inverse(self) -> "Morphism":
        if not self.is_bijective:
            raise InvalidMorphism("not bijective")
        inv = [0] * self.target.size
        for x, v in enumerate(self.map):
            inv[v] = x
        return Morphism(self.target, self.source, tuple(inv), self.kind)


def as_isomorphism(source, target, map: Sequence[int], kind: str) -> Morphism:
    """``map`` as an isomorphism source -> target, by the rule of
    :func:`find_isomorphism`: a bijective kind-hom whose inverse is one.
    The inverse of a bijective hom preserves the tables, constants,
    involution and zero-morphism; it preserves the order exactly when both
    orders have equally many related pairs, as f maps the related pairs
    injectively into the related pairs.  Raises IsomorphismFailure
    otherwise."""
    try:
        m = Morphism(source, target, map, kind)
    except InvalidMorphism as exc:
        raise IsomorphismFailure(f"map is not a {kind!r} morphism: {exc}")
    if not m.is_bijective or kind in SPACE_KINDS and (
            _related_pairs(source.leq) != _related_pairs(target.leq)):
        raise IsomorphismFailure(f"map is not a {kind!r} isomorphism")
    return m


def validate_for_kind(obj, kind: str) -> ValidationReport:
    """Run the validator of a morphism kind, on an object of its class."""
    if kind not in MORPHISM_KINDS:
        raise KindMismatch(f"unknown morphism kind {kind!r}")
    if type(obj).__name__ not in _KIND_CLASSES[kind]:
        raise KindMismatch(
            f"kind {kind!r} does not apply to a {type(obj).__name__}")
    return resolve(MORPHISM_KINDS[kind][0])(obj)


# ---------------------------------------------------------------------------
# Homomorphism search (the engine is in algdual.search, loaded on first call)
# ---------------------------------------------------------------------------

def enumerate_homs(source, target, kind: str, *, validate=True) -> list[Morphism]:
    """All kind-preserving maps source -> target, sorted lexicographically by
    value vector.  The ordering is deterministic and downstream dual-object
    constructions depend on it."""
    from .search import _search_homs

    if validate:
        for obj in (source, target):
            report = validate_for_kind(obj, kind)
            report.require(KindMismatch, f"object is not a valid {kind!r}: "
                           f"{[c.name for c in report.failures()]}")
    return [Morphism(source, target, vec, kind)
            for vec in _search_homs(source, target, kind)]


def find_isomorphism(source, target, kind: str, *, validate=True) -> Optional[Morphism]:
    """First (in lexicographic order) isomorphism source -> target by the
    rule of :func:`as_isomorphism`, or None; ``poset`` is a kind too.  An
    element may go only to target elements of its colour
    (:func:`algdual.search._joint_iso_colors`), as every isomorphism does.
    Equal colour multisets give ordered sides equally many related pairs,
    so the bijective homs found reflect the order."""
    from .search import _joint_iso_colors, _search_homs

    if validate:
        for obj in (source, target):
            validate_for_kind(obj, kind).require(
                KindMismatch, f"object is not a valid {kind!r}")
    if source.size != target.size:
        return None
    ca, cb = _joint_iso_colors(source, target, kind)
    if sorted(ca) != sorted(cb):
        return None
    candidates = [[v for v in range(target.size) if cb[v] == ca[x]]
                  for x in range(source.size)]
    found = _search_homs(source, target, kind, injective=True,
                         candidates=candidates, limit=1)
    return Morphism(source, target, found[0], kind) if found else None
