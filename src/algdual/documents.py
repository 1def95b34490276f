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

Algebra documents need only :mod:`algdual.algebra`; the space, poset and
system modules are imported by the functions below when a document of
their kinds comes up.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from .algebra import (
    Check,
    FiniteAlgebra,
    JoinSemilattice,
    Record,
    ValidationReport,
    is_partial_order,
    validate_for_kind,
)
from .errors import DocumentError

ALGEBRA_KINDS = ("ibsl", "ba", "bsl", "dl", "sl")
KINDS = ALGEBRA_KINDS + ("gr", "poset", "space", "direct-system",
                         "inverse-system")


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


def _parse_algebra(kind: str, data: dict) -> FiniteAlgebra:
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


def _parse_system(kind: str, data: dict) -> SystemParts:
    index_doc = data.get("index")
    if not isinstance(index_doc, dict):
        raise _fail("'index' must be a semilattice document")
    index_algebra = _parse_algebra("sl", index_doc)
    if "join" not in index_algebra.binary_ops:
        raise _fail("index semilattice needs a 'join' op")
    bottom = index_algebra.constants.get("bottom")
    if bottom is None:
        join = index_algebra.binary("join")
        bottom = next(
            (b for b in range(index_algebra.size)
             if all(join[b][x] == x for x in range(index_algebra.size))), 0)

    variant = "direct" if kind == "direct-system" else "inverse"
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
            objects[i] = _parse_algebra(inner, doc)
        else:
            if inner == "space":
                size = _expect_int(doc, "size")
                if size < 0:
                    raise _fail(f"term {key!r} size must be non-negative")
                from .duality import FiniteSpace

                objects[i] = FiniteSpace(size)
            elif inner == "poset":
                size = _expect_int(doc, "size")
                leq = _parse_matrix01(doc, "leq", size)
                w = is_partial_order(leq)
                if w is not None:
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
    if kind in ALGEBRA_KINDS:
        return Document(kind, _parse_algebra(kind, data))
    if kind == "gr":
        return Document(kind, _parse_gr(data))
    if kind == "space":
        size = _expect_int(data, "size")
        if size < 0:
            raise _fail("space size must be non-negative")
        from .duality import FiniteSpace

        return Document(kind, FiniteSpace(size))
    if kind == "poset":
        size = _expect_int(data, "size")
        leq = _parse_matrix01(data, "leq", size)
        return Document(kind, (size, leq))
    return Document(kind, _parse_system(kind, data))


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
# Semantic checking and realization
# ---------------------------------------------------------------------------

def check_document(doc: Document) -> ValidationReport:
    """Kind-appropriate semantic validation of a shape-valid document."""
    if doc.kind in ALGEBRA_KINDS:
        return validate_for_kind(doc.payload, doc.kind)
    if doc.kind == "gr":
        from .duality import (
            GRSpaceWithInvolution,
            validate_gr_involution,
            validate_gr_space,
        )

        if isinstance(doc.payload, GRSpaceWithInvolution):
            return validate_gr_involution(doc.payload)
        return validate_gr_space(doc.payload)
    if doc.kind == "space":
        return ValidationReport("finite discrete space",
                                (Check("size-non-negative",
                                       doc.payload.size >= 0),))
    if doc.kind == "poset":
        size, leq = doc.payload
        w = is_partial_order(leq)
        return ValidationReport("finite poset",
                                (Check("order-partial", w is None, w),))
    from .systems import check_system

    parts = doc.payload
    return check_system(parts.index_algebra, parts.bottom, parts.objects,
                        parts.arrows, parts.fiber_kind,
                        inverse=(parts.variant == "inverse"),
                        subject=doc.kind)


def realize_document(doc: Document):
    """Build the validated object; assumes :func:`check_document` passed."""
    if doc.kind in ALGEBRA_KINDS or doc.kind in ("gr", "space"):
        return doc.payload
    if doc.kind == "poset":
        from .lattices import FinitePoset

        size, leq = doc.payload
        return FinitePoset(size, leq)
    from .systems import DirectSystem, InverseSystem

    parts = doc.payload
    index = JoinSemilattice(
        parts.index_algebra if "bottom" in parts.index_algebra.constants
        else parts.index_algebra.with_ops(constants={"bottom": parts.bottom}),
        parts.bottom)
    if parts.variant == "direct":
        return DirectSystem(index, parts.objects, parts.arrows,
                            parts.fiber_kind)
    return InverseSystem(index, parts.objects, parts.arrows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _algebra_data(kind: str, a: FiniteAlgebra) -> dict:
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


def document_data(obj, kind: Optional[str] = None) -> dict:
    """Serialize a library object to its JSON document dict."""
    if isinstance(obj, Document):
        return document_data(obj.payload, obj.kind)
    if isinstance(obj, FiniteAlgebra):
        if kind is None:
            raise ValueError("algebra serialization needs an explicit kind")
        return _algebra_data(kind, obj)
    # Every other object is an instance of a class of duality, lattices or
    # systems, and a module nobody has imported has no instances, so look
    # only at the loaded ones instead of importing all three.
    duality, lattices, systems = (sys.modules.get(f"{__package__}.{name}")
                                  for name in ("duality", "lattices",
                                               "systems"))
    if duality and isinstance(obj, (duality.GRSpace,
                                    duality.GRSpaceWithInvolution)):
        base = duality.base_of(obj)
        data = {"kind": "gr", "size": base.size,
                "star": [list(r) for r in base.star],
                "leq": [[1 if v else 0 for v in r] for r in base.leq],
                "c0": base.c0, "c1": base.c1, "calpha": base.calpha}
        if isinstance(obj, duality.GRSpaceWithInvolution):
            data["neg"] = list(obj.neg)
        return data
    if duality and isinstance(obj, duality.FiniteSpace):
        return {"kind": "space", "size": obj.size}
    if lattices and isinstance(obj, lattices.FinitePoset):
        return {"kind": "poset", "size": obj.size,
                "leq": [[1 if v else 0 for v in r] for r in obj.leq]}
    if systems and isinstance(obj, systems.DirectSystem):
        return {
            "kind": "direct-system",
            "index": _algebra_data("sl", obj.index.algebra),
            "fibers": {str(i): _algebra_data(obj.kind, obj.fiber(i))
                       for i in range(obj.index.size)},
            "transitions": {f"{i}->{j}": list(v)
                            for (i, j), v in sorted(obj.transitions.items())
                            if i != j},
        }
    if systems and isinstance(obj, systems.InverseSystem):
        return {
            "kind": "inverse-system",
            "index": _algebra_data("sl", obj.index.algebra),
            "terms": {str(i): document_data(obj.term(i))
                      for i in range(obj.index.size)},
            "bondings": {f"{i}->{j}": list(v)
                         for (i, j), v in sorted(obj.bondings.items())
                         if i != j},
        }
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def dumps_document(obj, kind: Optional[str] = None) -> str:
    """Canonical UTF-8 JSON text: sorted keys, two-space indent, trailing
    newline.  Equal objects serialize byte-identically."""
    return json.dumps(document_data(obj, kind), ensure_ascii=False,
                      indent=2, sort_keys=True) + "\n"
