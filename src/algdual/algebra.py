"""Finite algebras as explicit operation tables, and their axiom
validators.

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


# ---------------------------------------------------------------------------
# Whole-row kernels
# ---------------------------------------------------------------------------
# Scans over a carrier do one C-level operation per row instead of one
# Python step per cell: a row of ints is gathered through a table at once.
# (Sets of elements are ints, ``orders.byteset``.)

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
    order and the first witness is the tree walk's.  Each occurrence of a
    subterm is computed in the outermost loop that binds all of its loop
    variables (level 0 is before the loops).
    """
    names: set[str] = set()
    tables: dict = {}

    def scan(term):
        # pre-order, lhs first: the tables are looked up in the tree walk's
        # order, so a missing operation raises the same error
        if isinstance(term, str):
            names.add(term)
            return
        tables.setdefault((_ACCESSORS[len(term)], term[0]), f"t{len(tables)}")
        for t in term[1:]:
            scan(t)

    scan(lhs)
    scan(rhs)
    *outer, last = sorted(names) or [None]
    level_of = {v: k + 1 for k, v in enumerate(outer)}
    blocks: list[list[str]] = [[] for _ in range(len(outer) + 1)]
    padded: dict = {}

    def hoist(expr, level, at):
        """``expr``, bound to a name in loop ``level`` when it is read in a
        deeper loop ``at``."""
        if level < at and not expr.isidentifier():
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


@validated_once
def validate_boolean_algebra(a: FiniteAlgebra) -> ValidationReport:
    """Bounded distributive lattice plus complement laws."""
    _require(a, binary=("join", "meet"), unary=("neg",), constants=("zero", "one"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION + BOOLEAN_COMPLEMENT
    return ValidationReport("boolean algebra", tuple(_identity_checks(a, identities)))


@validated_once
def validate_distributive_lattice(a: FiniteAlgebra) -> ValidationReport:
    _require(a, binary=("join", "meet"))
    identities = BISEMILATTICE_IDENTITIES + LATTICE_ABSORPTION
    return ValidationReport("distributive lattice", tuple(_identity_checks(a, identities)))


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
