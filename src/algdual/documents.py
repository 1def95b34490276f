"""The JSON document format shared by the library and the CLI.

One parser covers every kind: algebras (``ibsl``, ``ba``, ``bsl``, ``dl``,
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

Every kind has one entry in :data:`KIND_TABLE`.  Algebra documents need only
:mod:`algdual.algebra`; the other modules load with the kinds that use them.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Optional

from .algebra import (
    ALGEBRA_KINDS,
    MORPHISM_KINDS,
    Check,
    FiniteAlgebra,
    JoinSemilattice,
    Record,
    ValidationReport,
    find_isomorphism,
    ibsl_completion,
    is_partial_order,
    least_element,
    order_from_binary,
    permute_algebra,
    resolve,
    validate_for_kind,
)
from .errors import AlgebraError, DocumentError, IsomorphismFailure


class SystemParts(Record):
    """Shape-valid but not yet coherence-checked system data."""

    variant: str  # "direct" | "inverse"
    index_algebra: FiniteAlgebra
    bottom: int
    objects: dict
    arrows: dict
    fiber_kind: Optional[str]

    def __init__(self, variant: str, index_algebra: FiniteAlgebra,
                 bottom: int, objects: dict, arrows: dict,
                 fiber_kind: Optional[str]):
        self.__dict__.update(variant=variant, index_algebra=index_algebra,
                             bottom=bottom, objects=objects, arrows=arrows,
                             fiber_kind=fiber_kind)


class Document(Record):
    kind: str
    payload: object

    def __init__(self, kind: str, payload: object):
        self.__dict__.update(kind=kind, payload=payload)


def _fail(msg: str) -> DocumentError:
    return DocumentError(f"malformed document: {msg}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        raise _fail(f"{what} must be a list of integers")
    return value


def _int_table(value, what: str) -> list:
    if not isinstance(value, list):
        raise _fail(f"{what} must be a table of integers")
    return [_int_list(row, f"rows of {what}") for row in value]


def _expect_int(data, key: str) -> int:
    value = data.get(key)
    if not _is_int(value):
        raise _fail(f"{key!r} must be an integer")
    return value


# Operation names with a fixed meaning, by arity: validators synthesize or
# look up each under that arity only.
_RESERVED_ARITY = {"join": "binary", "meet": "binary", "neg": "unary",
                   "zero": "constant", "one": "constant", "bottom": "constant"}


def _parse_algebra(data: dict) -> FiniteAlgebra:
    size = _expect_int(data, "size")
    ops = data.get("ops")
    if not isinstance(ops, dict):
        raise _fail("'ops' must be an object")
    names = data.get("names")
    if names is not None and (not isinstance(names, list) or not all(
            isinstance(v, str) for v in names)):
        raise _fail("'names' must be a list of strings")
    binary, unary, constants = {}, {}, {}
    for name, value in ops.items():
        if _is_int(value):
            constants[name] = value
        elif isinstance(value, list) and value and isinstance(value[0], list):
            binary[name] = _int_table(value, f"op {name!r}")
        elif isinstance(value, list):
            unary[name] = _int_list(value, f"op {name!r}")
        else:
            raise _fail(f"op {name!r} must be an int, list or table")
    for arity, ops_of in (("binary", binary), ("unary", unary),
                          ("constant", constants)):
        for name in ops_of:
            if _RESERVED_ARITY.get(name, arity) != arity:
                raise _fail(f"op {name!r} must be a {_RESERVED_ARITY[name]} "
                            f"operation, not a {arity} one")
    try:
        return FiniteAlgebra(size, binary, unary, constants,
                             tuple(names) if names else None)
    except (ValueError, TypeError) as exc:
        raise _fail(str(exc))


def _parse_matrix01(data, key: str, size: int):
    m = data.get(key)
    if (not isinstance(m, list) or len(m) != size
            or any(not isinstance(r, list) or len(r) != size for r in m)):
        raise _fail(f"'{key}' must be a {size}x{size} matrix")
    if any(not isinstance(v, int) or v not in (0, 1) for r in m for v in r):
        raise _fail(f"'{key}' entries must be 0 or 1")
    return tuple(tuple(bool(v) for v in r) for r in m)


def _parse_gr(data: dict):
    size = _expect_int(data, "size")
    leq = _parse_matrix01(data, "leq", size)
    star = _int_table(data.get("star"), "'star'")
    c0, c1, calpha = (_expect_int(data, key) for key in ("c0", "c1", "calpha"))
    neg = _int_list(data["neg"], "'neg'") if "neg" in data else None
    from .duality import GRSpace, GRSpaceWithInvolution

    try:
        base = GRSpace(size, star, leq, c0, c1, calpha)
        if neg is not None:
            return GRSpaceWithInvolution(base, neg)
        return base
    except (ValueError, TypeError) as exc:
        raise _fail(str(exc))


def _parse_arrow_key(key: str, size: int) -> tuple[int, int]:
    parts = key.split("->")
    if len(parts) != 2:
        raise _fail(f"arrow key {key!r} is not of the form 'i->j'")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise _fail(f"arrow key {key!r} is not a pair of integers")
    if not (0 <= i < size and 0 <= j < size):
        raise _fail(f"arrow key {key!r} is out of range")
    return i, j


def _parse_space(data: dict):
    size = _expect_int(data, "size")
    if size < 0:
        raise _fail("space size must be non-negative")
    from .duality import FiniteSpace

    return FiniteSpace(size)


def _parse_poset(data: dict) -> tuple:
    size = _expect_int(data, "size")
    return size, _parse_matrix01(data, "leq", size)


def _parse_system(data: dict) -> SystemParts:
    index_doc = data.get("index")
    if not isinstance(index_doc, dict):
        raise _fail("'index' must be a semilattice document")
    index_algebra = _parse_algebra(index_doc)
    if "join" not in index_algebra.binary_ops:
        raise _fail("index semilattice needs a 'join' op")
    bottom = index_algebra.constants.get("bottom")
    if bottom is None:
        # without a least element, index-bottom fails at element 0
        bottom = least_element(index_algebra.binary("join")) or 0

    variant = "direct" if data["kind"] == "direct-system" else "inverse"
    obj_key = "fibers" if variant == "direct" else "terms"
    raw_objects = data.get(obj_key)
    if not isinstance(raw_objects, dict):
        raise _fail(f"'{obj_key}' must be an object keyed by index element")
    objects, fiber_kind = {}, None
    for key, doc in raw_objects.items():
        try:
            i = int(key)
        except ValueError:
            raise _fail(f"object key {key!r} is not an integer")
        if not (0 <= i < index_algebra.size):
            raise _fail(f"object key {key!r} is out of range")
        if not isinstance(doc, dict):
            raise _fail(f"object {key!r} must be a document")
        inner = doc.get("kind")
        if variant == "direct":
            if inner not in ALGEBRA_KINDS:
                raise _fail(f"fiber {key!r} has unsupported kind {inner!r}")
            if fiber_kind is None:
                fiber_kind = inner
            elif fiber_kind != inner:
                raise _fail("fibers carry inconsistent kinds")
            objects[i] = _parse_algebra(doc)
        else:
            if inner == "space":
                size = _expect_int(doc, "size")
                if size < 0:
                    raise _fail(f"term {key!r} size must be non-negative")
                from .duality import FiniteSpace

                objects[i] = FiniteSpace(size)
            elif inner == "poset":
                size, leq = _parse_poset(doc)
                if is_partial_order(leq) is not None:
                    raise _fail(f"term {key!r} order is not a partial order")
                from .lattices import FinitePoset

                objects[i] = FinitePoset(size, leq)
            else:
                raise _fail(f"term {key!r} has unsupported kind {inner!r}")

    arrow_key = "transitions" if variant == "direct" else "bondings"
    raw_arrows = data.get(arrow_key, {})
    if not isinstance(raw_arrows, dict):
        raise _fail(f"'{arrow_key}' must be an object keyed by 'i->j'")
    arrows = {}
    for key, vec in raw_arrows.items():
        i, j = _parse_arrow_key(key, index_algebra.size)
        arrows[(i, j)] = tuple(_int_list(vec, f"arrow {key!r}"))
    for i in objects:
        arrows.setdefault((i, i), tuple(range(objects[i].size)))
    return SystemParts(variant, index_algebra, bottom, objects, arrows,
                       fiber_kind)


def parse_document(data: dict) -> Document:
    if not isinstance(data, dict):
        raise _fail("top level must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise _fail(f"unknown kind {kind!r}")
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


def document_data(obj, kind: Optional[str] = None) -> dict:
    """Serialize a library object to its JSON document dict.  An algebra
    needs its ``kind``; every other object has a class of its own."""
    if isinstance(obj, Document):
        return document_data(obj.payload, obj.kind)
    if isinstance(obj, FiniteAlgebra):
        if kind not in ALGEBRA_KINDS:
            raise ValueError("algebra serialization needs an explicit kind")
    else:
        kind = _KIND_OF_CLASS.get(type(obj).__name__)
        if kind is None:
            raise ValueError(f"cannot serialize {type(obj).__name__}")
    return resolve(KIND_TABLE[kind]["data"])(obj, kind)


def dumps_document(obj, kind: Optional[str] = None) -> str:
    """Canonical UTF-8 JSON text: sorted keys, two-space indent, trailing
    newline.  Equal objects serialize byte-identically.

    The text is that of ``json.dumps(data, ensure_ascii=False, indent=2,
    sort_keys=True)``, written by :func:`_json`, which joins each list of
    ints in one step; ``json.dumps`` with an indent always runs its
    pure-Python encoder."""
    return _json(document_data(obj, kind), "") + "\n"


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True)`` writes it at ``indent``.  Takes str, int, bool, None,
    lists and tuples, and dicts with str keys, each of exactly that type;
    anything else, floats included, raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        body = sep.join([f"{_quote(key)}: {_json(v, inner)}"
                         for key, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"cannot write a {kind.__name__} to a document")


_quote = json.encoder.encode_basestring
_LITERALS = {None: "null", True: "true", False: "false"}


def _check_poset(payload: tuple) -> ValidationReport:
    w = is_partial_order(payload[1])
    return ValidationReport("finite poset",
                            (Check("order-partial", w is None, w),))


def _check_system(parts: SystemParts) -> ValidationReport:
    from .systems import check_system

    return check_system(parts.index_algebra, parts.bottom, parts.objects,
                        parts.arrows, parts.fiber_kind,
                        inverse=(parts.variant == "inverse"))


def _realize_system(parts: SystemParts):
    from .systems import DirectSystem, InverseSystem

    index = JoinSemilattice(
        parts.index_algebra if "bottom" in parts.index_algebra.constants
        else parts.index_algebra.with_ops(constants={"bottom": parts.bottom}),
        parts.bottom)
    if parts.variant == "direct":
        return DirectSystem(index, parts.objects, parts.arrows,
                            parts.fiber_kind)
    return InverseSystem(index, parts.objects, parts.arrows)


def _algebra_data(a: FiniteAlgebra, kind: str) -> dict:
    ops = {}
    for name, t in a.binary_ops.items():
        ops[name] = [list(row) for row in t]
    for name, t in a.unary_ops.items():
        ops[name] = list(t)
    for name, c in a.constants.items():
        ops[name] = c
    data = {"kind": kind, "size": a.size, "ops": ops}
    if a.names:
        data["names"] = list(a.names)
    return data


def _gr_data(g, kind: str) -> dict:
    # a GR space with involution is a "gr" document with a "neg" map
    data = {"kind": "gr", "size": g.size, "star": [list(r) for r in g.star],
            "leq": [list(map(int, r)) for r in g.leq],
            "c0": g.c0, "c1": g.c1, "calpha": g.calpha}
    if kind == "igr":
        data["neg"] = list(g.neg)
    return data


def _system_data(s, kind: str) -> dict:
    keys = (("fibers", "transitions") if kind == "direct-system"
            else ("terms", "bondings"))
    objects, arrows = (getattr(s, key) for key in keys)
    # fibers are algebras of the system's kind; terms know their kind
    fiber_kind = getattr(s, "kind", None)
    return {"kind": kind, "index": _algebra_data(s.index.algebra, "sl"),
            keys[0]: {str(i): document_data(objects[i], fiber_kind)
                      for i in range(s.index.size)},
            keys[1]: {f"{i}->{j}": list(v)
                      for (i, j), v in sorted(arrows.items()) if i != j}}


def _lifted_dual(system):
    """The duality of a system's terms applied termwise.  A direct system
    names its fiber kind; an inverse system's terms are spaces or posets."""
    term_kind = (getattr(system, "kind", None) or _KIND_OF_CLASS.get(
        type(system.term(0)).__name__, "space"))
    lift = KIND_TABLE[term_kind].get("lift")
    if lift is None:
        raise AlgebraError(f"no dual for systems of kind {term_kind!r}")
    return resolve(lift)(system)


def _plonka_roundtrip(b: FiniteAlgebra, kind: str) -> None:
    """Check that ``b`` is isomorphic to the Plonka sum of its
    decomposition.

    The decomposition names the isomorphism: the sum puts the elements of
    ``b`` fiber by fiber (:func:`algdual.systems.plonka_layout`).  If the
    layout is a bijection along which the sum has every table of ``b`` (of
    its completion for ``ibsl``), the sum is ``b`` renamed, so it is valid.
    Otherwise the sum is validated, and an invalid one fails with its
    failing checks; a valid one is searched for an isomorphism."""
    system = resolve(KIND_TABLE[kind]["plonka"][1])(b)
    total = resolve(("systems", "plonka_sum"))(system)
    layout = resolve(("systems", "plonka_layout"))(b, kind)
    if total.size == b.size and sorted(layout) == list(range(b.size)):
        moved = permute_algebra(total, layout)
        expected = ibsl_completion(b) if kind == "ibsl" else b
        if all(getattr(moved, ops) == getattr(expected, ops)
               for ops in ("binary_ops", "unary_ops", "constants")):
            return
    report = validate_for_kind(total, kind)
    report.require(IsomorphismFailure, f"sum of decomposition is not a valid "
                   f"{kind!r}: {[c.name for c in report.failures()]}")
    if find_isomorphism(total, b, kind) is None:
        raise IsomorphismFailure("sum of decomposition not isomorphic")


def _plonka_sum(system) -> Document:
    from .systems import plonka_sum

    # over Boolean fibers the sum is involutive
    return Document("ibsl" if system.kind == "ba" else "bsl",
                    plonka_sum(system))


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------
# A function is named by a (module, name) pair when its module may not be
# loaded yet (see ``algebra.resolve``).  parse: document dict -> payload
# (``igr`` comes from ``gr`` documents); check: payload -> report; realize:
# checked payload -> object (default: the payload); data: (object, kind) ->
# document dict; dual, and dual_kind when the dual is an algebra; lift: the
# duality applied termwise to a system; roundtrip: check name -> function
# raising AlgebraError; plonka: (mode, function); hasse: order name ->
# function giving the order matrix.

_ALGEBRA = {"parse": _parse_algebra, "data": _algebra_data,
            "hasse": {op: lambda a, op=op: order_from_binary(a.binary(op), op)
                      for op in ("join", "meet")},
            "hasse_refusal": "the box order exists only on GR spaces"}
_GR = {"data": _gr_data, "hasse": {"meet": attrgetter("leq"),
                                   "box": attrgetter("box")},
       "hasse_refusal": "GR spaces carry the base order (--order meet) and "
                        "the derived order (--order box)"}
_SYSTEM = {"parse": _parse_system, "check": _check_system,
           "realize": _realize_system, "data": _system_data,
           "dual": _lifted_dual}

KIND_TABLE = {
    "ibsl": {**_ALGEBRA, "check": MORPHISM_KINDS["ibsl"][0],
             "dual": ("duality", "dual_of_ibsl"),
             "roundtrip": {"plonka-roundtrip":
                           lambda b: _plonka_roundtrip(b, "ibsl"),
                           "double-dual-iso": ("duality", "eps_iso")},
             "plonka": ("decompose", ("systems", "plonka_decompose"))},
    "ba": {**_ALGEBRA, "check": MORPHISM_KINDS["ba"][0],
           "dual": ("duality", "stone_dual"),
           "lift": ("duality", "lift_functor_dir_to_inv"),
           "roundtrip": {"stone-double-dual":
                         ("duality", "stone_double_dual_iso")}},
    "bsl": {**_ALGEBRA, "check": MORPHISM_KINDS["bsl"][0],
            "dual": ("duality", "dual_of_bsl"),
            "roundtrip": {"plonka-roundtrip":
                          lambda b: _plonka_roundtrip(b, "bsl")},
            "plonka": ("decompose", ("systems", "plonka_decompose_bsl"))},
    "dl": {**_ALGEBRA, "check": MORPHISM_KINDS["dl"][0],
           "dual": ("lattices", "priestley_dual"),
           "lift": ("lattices", "lift_system_dl_to_posets"),
           "roundtrip": {"birkhoff-double-dual":
                         ("lattices", "dl_double_dual_iso")}},
    "sl": {**_ALGEBRA, "check": MORPHISM_KINDS["sl"][0]},
    "gr": {**_GR, "parse": _parse_gr, "check": MORPHISM_KINDS["gr"][0],
           "dual": ("duality", "bsl_of_gr"), "dual_kind": "bsl"},
    "igr": {**_GR, "check": MORPHISM_KINDS["igr"][0],
            "dual": ("duality", "dual_of_gr"), "dual_kind": "ibsl",
            "roundtrip": {"double-dual-iso": ("duality", "delta_iso")}},
    "poset": {"parse": _parse_poset, "check": _check_poset,
              "realize": lambda p: resolve(("lattices", "FinitePoset"))(*p),
              "data": lambda p, kind: {"kind": kind, "size": p.size, "leq": [
                  list(map(int, r)) for r in p.leq]},
              "dual": ("lattices", "dl_of_poset"), "dual_kind": "dl",
              "lift": ("lattices", "lift_system_posets_to_dl"),
              "roundtrip": {"downset-double-dual":
                            ("lattices", "poset_double_dual_iso")},
              "hasse": dict.fromkeys(("join", "meet", "box"),
                                     attrgetter("leq"))},
    "space": {"parse": _parse_space,
              "check": lambda s: ValidationReport("finite discrete space", (
                  Check("size-non-negative", s.size >= 0),)),
              "data": lambda s, kind: {"kind": kind, "size": s.size},
              "dual": ("duality", "ba_of_space"), "dual_kind": "ba",
              "lift": ("duality", "lift_functor_inv_to_dir")},
    "direct-system": {**_SYSTEM, "plonka": ("sum", _plonka_sum)},
    "inverse-system": _SYSTEM,
}
# the kinds a document can declare
KINDS = tuple(kind for kind, entry in KIND_TABLE.items() if "parse" in entry)
# the kind of every library object other than an algebra, by class name
_KIND_OF_CLASS = {"GRSpace": "gr", "GRSpaceWithInvolution": "igr",
                  "FinitePoset": "poset", "FiniteSpace": "space",
                  "DirectSystem": "direct-system",
                  "InverseSystem": "inverse-system"}


def kind_entry(kind: str, obj) -> dict:
    """The entry of ``obj``, read from a document of kind ``kind``."""
    return KIND_TABLE[_KIND_OF_CLASS.get(type(obj).__name__, kind)]
