"""Reading ``direct-system`` and ``inverse-system`` documents.

Only system documents load this module.  Parsing needs no system code, so a
malformed system document exits before :mod:`algdual.systems` (and the
morphism code it imports) is compiled; checking and realizing a parsed one
load it.  Writing a system is :func:`algdual.systems.system_data`, since
``plonka decompose`` writes systems it builds.
"""

from __future__ import annotations

from typing import Optional

from .algebra import ALGEBRA_KINDS, FiniteAlgebra, Record, ValidationReport
from .documents import expect_int, fail, int_list, parse_algebra


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


def _parse_arrow_key(key: str, size: int) -> tuple[int, int]:
    parts = key.split("->")
    if len(parts) != 2:
        raise fail(f"arrow key {key!r} is not of the form 'i->j'")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise fail(f"arrow key {key!r} is not a pair of integers")
    if not (0 <= i < size and 0 <= j < size):
        raise fail(f"arrow key {key!r} is out of range")
    return i, j


def _parse_term(key: str, doc: dict):
    """The term of an inverse-system document: a space or a poset."""
    from .orders import FinitePoset, FiniteSpace, parse_poset

    inner = doc.get("kind")
    if inner == "space":
        size = expect_int(doc, "size")
        if size < 0:
            raise fail(f"term {key!r} size must be non-negative")
        return FiniteSpace(size)
    if inner == "poset":
        try:
            return FinitePoset(*parse_poset(doc))
        except ValueError:
            raise fail(f"term {key!r} order is not a partial order") from None
    raise fail(f"term {key!r} has unsupported kind {inner!r}")


def parse_system(data: dict) -> SystemParts:
    """The parts of a ``direct-system`` or ``inverse-system`` document."""
    index_doc = data.get("index")
    if not isinstance(index_doc, dict):
        raise fail("'index' must be a semilattice document")
    index_algebra = parse_algebra(index_doc)
    if "join" not in index_algebra.binary_ops:
        raise fail("index semilattice needs a 'join' op")
    bottom = index_algebra.constants.get("bottom")
    if bottom is None:
        # the least element is the one whose join row is the identity
        # (``systems.least_element``); without one, index-bottom fails at 0
        join = index_algebra.binary("join")
        identity = tuple(range(len(join)))
        bottom = next((b for b, row in enumerate(join) if row == identity), 0)

    variant = "direct" if data["kind"] == "direct-system" else "inverse"
    obj_key = "fibers" if variant == "direct" else "terms"
    raw_objects = data.get(obj_key)
    if not isinstance(raw_objects, dict):
        raise fail(f"'{obj_key}' must be an object keyed by index element")
    objects, fiber_kind = {}, None
    for key, doc in raw_objects.items():
        try:
            i = int(key)
        except ValueError:
            raise fail(f"object key {key!r} is not an integer")
        if not (0 <= i < index_algebra.size):
            raise fail(f"object key {key!r} is out of range")
        if not isinstance(doc, dict):
            raise fail(f"object {key!r} must be a document")
        inner = doc.get("kind")
        if variant == "direct":
            if inner not in ALGEBRA_KINDS:
                raise fail(f"fiber {key!r} has unsupported kind {inner!r}")
            if fiber_kind is None:
                fiber_kind = inner
            elif fiber_kind != inner:
                raise fail("fibers carry inconsistent kinds")
            objects[i] = parse_algebra(doc)
        else:
            objects[i] = _parse_term(key, doc)

    arrow_key = "transitions" if variant == "direct" else "bondings"
    raw_arrows = data.get(arrow_key, {})
    if not isinstance(raw_arrows, dict):
        raise fail(f"'{arrow_key}' must be an object keyed by 'i->j'")
    arrows = {}
    for key, vec in raw_arrows.items():
        i, j = _parse_arrow_key(key, index_algebra.size)
        arrows[(i, j)] = tuple(int_list(vec, f"arrow {key!r}"))
    for i in objects:
        arrows.setdefault((i, i), tuple(range(objects[i].size)))
    return SystemParts(variant, index_algebra, bottom, objects, arrows,
                       fiber_kind)


# ``systems.check_system`` is looked up when called, so a wrapper that
# replaces it there (the benchmark's tracer) is seen

def check_system_parts(parts: SystemParts) -> ValidationReport:
    from . import systems

    return systems.check_system(parts.index_algebra, parts.bottom,
                                parts.objects, parts.arrows, parts.fiber_kind,
                                inverse=(parts.variant == "inverse"))


def realize_system(parts: SystemParts):
    """The system of parts that passed :func:`check_system_parts`, built
    without checking them again, as :func:`algdual.orders.realize_poset`."""
    from .systems import DirectSystem, InverseSystem, JoinSemilattice

    algebra = parts.index_algebra
    if "bottom" not in algebra.constants:
        algebra = algebra.with_ops(constants={"bottom": parts.bottom})
    index = JoinSemilattice.__new__(JoinSemilattice)
    index.__dict__.update(algebra=algebra, bottom=parts.bottom)
    if parts.variant == "direct":
        s = DirectSystem.__new__(DirectSystem)
        s.__dict__.update(index=index, fibers=parts.objects,
                          transitions=parts.arrows, kind=parts.fiber_kind)
    else:
        s = InverseSystem.__new__(InverseSystem)
        s.__dict__.update(index=index, terms=parts.objects,
                          bondings=parts.arrows)
    return s
