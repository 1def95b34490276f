"""The JSON document format shared by the library and the CLI.

Documents are read here: algebras (``ibsl``, ``ba``, ``bsl``, ``dl``,
``sl``), GR spaces (``gr``, with an optional involution), ``poset``,
``space``, and the two system kinds.  Operation tables are row-major (row =
first argument); inside ``ops`` an integer is a constant, a flat list a
unary map and a nested list a binary table.  Transition/bonding keys look
like ``"0->1"``; identity arrows may be omitted and are synthesized on load.

Parsing distinguishes malformed documents (wrong shapes, out-of-range
entries: :class:`DocumentError`, CLI exit 2) from well-formed documents that
violate their kind's axioms (reported by :func:`check_document`, CLI
exit 1).  Serialization is canonical, so equal objects produce byte-equal
documents.

Every kind has one entry in :data:`KIND_TABLE`: its validator, its dual,
the kind of a Plonka sum of its fibers and the rest, but for what its homs
preserve (:mod:`algdual.morphisms`).  Algebra documents are parsed here;
every other kind is parsed and written next to its structure
(:mod:`algdual.duality` for GR spaces, :mod:`algdual.orders` for posets and
spaces, :mod:`algdual.system_documents` for systems), with the shape checks
of this module, so a command compiles the document code of its kind only.
The JSON text of every document is written by :mod:`algdual.writer`, which
only the commands that write a document load.
"""

from __future__ import annotations

import json
from operator import attrgetter

from .algebra import (
    Check,
    FiniteAlgebra,
    Record,
    ValidationReport,
    forwarder,
    resolve,
)
from .errors import AlgebraError, DocumentError


class Document(Record):
    kind: str
    payload: object

    def __init__(self, kind: str, payload: object):
        self.__dict__.update(kind=kind, payload=payload)


def fail(msg: str) -> DocumentError:
    return DocumentError(f"malformed document: {msg}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def int_list(value, what: str) -> list:
    if not isinstance(value, list) or {*map(type, value)} - {int}:
        raise fail(f"{what} must be a list of integers")
    return value


def int_table(value, what: str) -> list:
    if not isinstance(value, list):
        raise fail(f"{what} must be a table of integers")
    if any(not isinstance(r, list) or {*map(type, r)} - {int} for r in value):
        raise fail(f"rows of {what} must be a list of integers")
    return value


def expect_int(data, key: str) -> int:
    value = data.get(key)
    if not _is_int(value):
        raise fail(f"{key!r} must be an integer")
    return value


# Operation names with a fixed meaning, by arity: validators synthesize or
# look up each under that arity only.
_RESERVED_ARITY = {"join": "binary", "meet": "binary", "neg": "unary",
                   "zero": "constant", "one": "constant", "bottom": "constant"}


def parse_algebra(data: dict) -> FiniteAlgebra:
    size = expect_int(data, "size")
    ops = data.get("ops")
    if not isinstance(ops, dict):
        raise fail("'ops' must be an object")
    names = data.get("names")
    if names is not None and (not isinstance(names, list) or not all(
            isinstance(v, str) for v in names)):
        raise fail("'names' must be a list of strings")
    binary, unary, constants = {}, {}, {}
    for name, value in ops.items():
        if _is_int(value):
            constants[name] = value
        elif isinstance(value, list) and value and isinstance(value[0], list):
            binary[name] = int_table(value, f"op {name!r}")
        elif isinstance(value, list):
            unary[name] = int_list(value, f"op {name!r}")
        else:
            raise fail(f"op {name!r} must be an int, list or table")
    for arity, ops_of in (("binary", binary), ("unary", unary),
                          ("constant", constants)):
        for name in ops_of:
            if _RESERVED_ARITY.get(name, arity) != arity:
                raise fail(f"op {name!r} must be a {_RESERVED_ARITY[name]} "
                           f"operation, not a {arity} one")
    try:
        return FiniteAlgebra(size, binary, unary, constants,
                             tuple(names) if names else None)
    except (ValueError, TypeError) as exc:
        raise fail(str(exc))


def parse_matrix01(data, key: str, size: int):
    m = data.get(key)
    if (not isinstance(m, list) or len(m) != size
            or any(not isinstance(r, list) or len(r) != size for r in m)):
        raise fail(f"'{key}' must be a {size}x{size} matrix")
    # a row at a time: ints only (not bools), then 0 and 1 only
    if any({*map(type, r)} - {int} or {*r} - {0, 1} for r in m):
        raise fail(f"'{key}' entries must be 0 or 1")
    return tuple(tuple(map(bool, r)) for r in m)


def parse_document(data: dict) -> Document:
    if not isinstance(data, dict):
        raise fail("top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise fail(f"unknown kind {kind!r}")
    return Document(kind, resolve(KIND_TABLE[kind]["parse"])(data))


def loads_document(text: str) -> Document:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno} "
            f"(offset {exc.pos}): {exc.msg}")
    return parse_document(data)


def load_document(path: str) -> Document:
    from .algebra import builtin

    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        kind = {"two": "ibsl", "s2": "ibsl", "wk": "ibsl",
                "three": "bsl"}.get(name)
        if kind is None:
            raise DocumentError(f"unknown builtin {name!r}")
        return Document(kind, builtin(name))
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}")
    return loads_document(text)


# ---------------------------------------------------------------------------
# Checking, realization and serialization, by kind
# ---------------------------------------------------------------------------

def check_document(doc: Document) -> ValidationReport:
    """Kind-appropriate semantic validation of a shape-valid document."""
    return resolve(kind_entry(doc.kind, doc.payload)["check"])(doc.payload)


def realize_document(doc: Document):
    """Build the validated object; assumes :func:`check_document` passed."""
    realize = kind_entry(doc.kind, doc.payload).get("realize")
    return doc.payload if realize is None else resolve(realize)(doc.payload)


def _lifted_dual(system):
    """The duality of a system's terms applied termwise.  A direct system
    names its fiber kind; an inverse system's terms are spaces or posets."""
    term_kind = (getattr(system, "kind", None) or KIND_OF_CLASS.get(
        type(system.term(0)).__name__, "space"))
    lift = KIND_TABLE[term_kind].get("lift")
    if lift is None:
        raise AlgebraError(f"no dual for systems of kind {term_kind!r}")
    return resolve(lift)(system)


def _plonka_sum(system) -> Document:
    from .systems import plonka_sum

    return Document(KIND_TABLE[system.kind].get("sum_kind", system.kind),
                    plonka_sum(system))


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------
# A function is named by a (module, name) pair when its module may not be
# loaded yet (see ``algebra.resolve``).  parse: document dict -> payload
# (``igr`` comes from ``gr`` documents); check: payload -> report; realize:
# checked payload -> object (default: the payload); data: (object, kind) ->
# document dict; dual, and dual_kind when the dual is an algebra; lift: the
# duality applied termwise to a system; sum_kind: the kind of a Plonka sum
# of such fibers, if not theirs (it keeps exactly their regular identities);
# roundtrip: check name -> function raising AlgebraError; plonka: (mode,
# function); hasse: order name -> function giving the order matrix.

_ALGEBRA = {"parse": parse_algebra, "data": ("writer", "algebra_data"),
            "hasse": {op: lambda a, op=op: resolve(
                ("orders", "order_from_binary"))(a.binary(op), op)
                for op in ("join", "meet")},
            "hasse_refusal": "the box order exists only on GR spaces"}
_GR = {"data": ("duality", "gr_data"),
       "hasse": {"meet": attrgetter("leq"), "box": attrgetter("box")},
       "hasse_refusal": "GR spaces carry the base order (--order meet) and "
                        "the derived order (--order box)"}
_SYSTEM = {"parse": ("system_documents", "parse_system"),
           "check": ("system_documents", "check_system_parts"),
           "realize": ("system_documents", "realize_system"),
           "data": ("systems", "system_data"), "dual": _lifted_dual}

KIND_TABLE = {
    "ibsl": {**_ALGEBRA, "check": ("algebra", "validate_ibsl"),
             "dual": ("duality", "dual_of_ibsl"),
             "roundtrip": {"plonka-roundtrip": lambda b: resolve(
                               ("systems", "plonka_roundtrip"))(b, "ibsl"),
                           "double-dual-iso": ("duality", "eps_iso")},
             "plonka": ("decompose", ("systems", "plonka_decompose"))},
    "ba": {**_ALGEBRA, "check": ("algebra", "validate_boolean_algebra"),
           "sum_kind": "ibsl",
           "dual": ("lattices", "stone_dual"),
           "lift": ("lattices", "lift_functor_dir_to_inv"),
           "roundtrip": {"stone-double-dual":
                         ("lattices", "stone_double_dual_iso")}},
    "bsl": {**_ALGEBRA, "check": ("algebra", "validate_bisemilattice"),
            "dual": ("duality", "dual_of_bsl"),
            "roundtrip": {"plonka-roundtrip": lambda b: resolve(
                              ("systems", "plonka_roundtrip"))(b, "bsl")},
            "plonka": ("decompose", ("systems", "plonka_decompose_bsl"))},
    "dl": {**_ALGEBRA, "check": ("algebra", "validate_distributive_lattice"),
           "sum_kind": "bsl",
           "dual": ("lattices", "priestley_dual"),
           "lift": ("lattices", "lift_system_dl_to_posets"),
           "roundtrip": {"birkhoff-double-dual":
                         ("lattices", "dl_double_dual_iso")}},
    "sl": {**_ALGEBRA, "check": ("algebra", "validate_semilattice")},
    "gr": {**_GR, "parse": ("duality", "parse_gr"),
           "check": ("duality", "validate_gr_space"),
           "dual": ("duality", "bsl_of_gr"), "dual_kind": "bsl"},
    "igr": {**_GR, "check": ("duality", "validate_gr_involution"),
            "dual": ("duality", "dual_of_gr"), "dual_kind": "ibsl",
            "roundtrip": {"double-dual-iso": ("duality", "delta_iso")}},
    "poset": {"parse": ("orders", "parse_poset"),
              "check": ("orders", "check_poset"),
              "realize": ("orders", "realize_poset"),
              "data": ("orders", "poset_data"),
              "dual": ("lattices", "dl_of_poset"), "dual_kind": "dl",
              "lift": ("lattices", "lift_system_posets_to_dl"),
              "roundtrip": {"downset-double-dual":
                            ("lattices", "poset_double_dual_iso")},
              "hasse": dict.fromkeys(("join", "meet", "box"),
                                     attrgetter("leq"))},
    "space": {"parse": ("orders", "parse_space"),
              "check": lambda s: ValidationReport("finite discrete space", (
                  Check("size-non-negative", s.size >= 0),)),
              "data": lambda s, kind: {"kind": kind, "size": s.size},
              "dual": ("lattices", "ba_of_space"), "dual_kind": "ba",
              "lift": ("lattices", "lift_functor_inv_to_dir")},
    "direct-system": {**_SYSTEM, "plonka": ("sum", _plonka_sum)},
    "inverse-system": _SYSTEM,
}
# the kinds a document can declare, those of algebras and of GR spaces
KINDS = tuple(kind for kind, entry in KIND_TABLE.items() if "parse" in entry)
ALGEBRA_KINDS = tuple(kind for kind in KINDS
                      if KIND_TABLE[kind]["parse"] is parse_algebra)
SPACE_KINDS = ("gr", "igr")
# the kind of every library object other than an algebra, by class name
KIND_OF_CLASS = {"GRSpace": "gr", "GRSpaceWithInvolution": "igr",
                  "FinitePoset": "poset", "FiniteSpace": "space",
                  "DirectSystem": "direct-system",
                  "InverseSystem": "inverse-system"}


def kind_entry(kind: str, obj) -> dict:
    """The entry of ``obj``, read from a document of kind ``kind``."""
    return KIND_TABLE[KIND_OF_CLASS.get(type(obj).__name__, kind)]


# the writer loads only with the commands that write a document
__getattr__ = forwarder(globals(), {"writer": ("dumps_document",)})
