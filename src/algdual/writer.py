"""Writing documents: the canonical JSON text of every library object.

Equal objects serialize byte-identically.  Only the commands that write a
document (``dual``, ``plonka``, ``gen``) or a JSON report load this module;
:func:`document_data` and :func:`dumps_document` are also names of
:mod:`algdual.documents`, which resolves them on first use.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import ALGEBRA_KINDS, FiniteAlgebra, resolve
from .documents import KIND_OF_CLASS, KIND_TABLE, Document


def document_data(obj, kind: Optional[str] = None) -> dict:
    """Serialize a library object to its JSON document dict.  An algebra
    needs its ``kind``; every other object has a class of its own."""
    if isinstance(obj, Document):
        return document_data(obj.payload, obj.kind)
    if isinstance(obj, FiniteAlgebra):
        if kind not in ALGEBRA_KINDS:
            raise ValueError("algebra serialization needs an explicit kind")
    else:
        kind = KIND_OF_CLASS.get(type(obj).__name__)
        if kind is None:
            raise ValueError(f"cannot serialize {type(obj).__name__}")
    return resolve(KIND_TABLE[kind]["data"])(obj, kind)


def dumps_document(obj, kind: Optional[str] = None) -> str:
    """Canonical UTF-8 JSON text: sorted keys, two-space indent, trailing
    newline.  Equal objects serialize byte-identically.

    The text is that of ``json.dumps(data, ensure_ascii=False, indent=2,
    sort_keys=True)``, written by :func:`_json`, which joins each list of
    ints in one step, and each :class:`_IntRow` from cached texts;
    ``json.dumps`` with an indent always runs its pure-Python encoder."""
    return _json(document_data(obj, kind), "") + "\n"


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True)`` writes it at ``indent``.  Takes str, int, bool, None,
    lists, tuples and :class:`_IntRow`, and dicts with str keys, each of
    exactly that type; anything else, floats included, raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list or kind is tuple or kind is _IntRow:
        if not value:
            return "[]"
        if kind is _IntRow:
            body = sep.join(map(_DECIMALS.__getitem__, value))
        elif set(map(type, value)) == {int}:
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

# The decimal text of every int below the largest carrier written so far
_DECIMALS: list = []


class _IntRow(list):
    """A list of ints below the size of its algebra, such as a row of one
    of its tables: :func:`_json` writes it from the cached texts without
    looking at its entries.  It is a list, and equals one."""

    __slots__ = ()


def algebra_data(a: FiniteAlgebra, kind: str) -> dict:
    _DECIMALS.extend(map(str, range(len(_DECIMALS), a.size)))
    ops = {}
    for name, t in a.binary_ops.items():
        ops[name] = list(map(_IntRow, t))
    for name, t in a.unary_ops.items():
        ops[name] = _IntRow(t)
    for name, c in a.constants.items():
        ops[name] = c
    data = {"kind": kind, "size": a.size, "ops": ops}
    if a.names:
        data["names"] = list(a.names)
    return data
