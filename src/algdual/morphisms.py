"""What a morphism of each kind must satisfy, stated once, and the
:class:`Morphism` checked against it.

:func:`_signature` lists the conditions of a kind-hom: the tables, maps
and constants it preserves, the labels it keeps and the order.
:func:`morphism_violations` checks a map against them, and the search
(:mod:`algdual.search`) and its isomorphism colouring read them too.  Only
commands that build or check morphisms load this module: ``hom``, ``iso``,
the theorem checks of ``dual`` and ``roundtrip``, and systems, whose
transitions are homs.

The public names here are also names of :mod:`algdual.algebra`, which
resolves them on first use; a morphism's check goes through that binding,
so a wrapper installed on ``algebra.morphism_violations`` sees every one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import algebra
from .algebra import (
    ALGEBRA_KINDS,
    MORPHISM_KINDS,
    SPACE_KINDS,
    Record,
    resolve,
)
from .errors import (
    DomainMismatch,
    InvalidMorphism,
    IsomorphismFailure,
    KindMismatch,
)

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
    # a label kept is lb . f = la, a unary map kept f . ua = ub . f
    compose = algebra.compose
    rows = [(nm, compose(lb, f), la) for nm, la, lb in labels]
    rows += [(nm, compose(f, ua), compose(ub, f)) for nm, ua, ub in unary]
    for name, u, v in rows:
        x = algebra.first_difference(u, v)
        if x is not None:
            return name, (x,)
    for name, ta, tb in binary:
        w = algebra.table_break(f, ta, tb)
        if w is not None:
            return name, w
    if order is not None:
        w = next(algebra.order_breaks((f,), *order, reflect))
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
        if map and (min(map) < 0 or max(map) >= target.size):
            raise InvalidMorphism("map has out-of-range values")
        bad = algebra.morphism_violations(source, target, map, kind)
        if bad is not None:
            raise InvalidMorphism(
                f"map does not preserve {bad[0]!r} at {bad[1]}")
        self.__dict__.update(source=source, target=target, map=map,
                             kind=kind)

    @classmethod
    def _proved(cls, source, target, map: tuple[int, ...], kind: str):
        """A value vector the hom search proved a kind-hom, as a morphism,
        without the check again; for :func:`algdual.search.enumerate_homs`
        only."""
        m = cls.__new__(cls)
        m.__dict__.update(source=source, target=target, map=map, kind=kind)
        return m

    def __call__(self, x: int) -> int:
        return self.map[x]

    @classmethod
    def identity(cls, obj, kind: str) -> "Morphism":
        return cls(obj, obj, tuple(range(obj.size)), kind)

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise DomainMismatch("codomain of inner morphism != domain of outer")
        return Morphism(other.source, self.target,
                        algebra.compose(self.map, other.map), self.kind)

    @property
    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.map)) == self.source.size)


def as_isomorphism(source, target, map: Sequence[int], kind: str) -> Morphism:
    """``map`` as an isomorphism source -> target, by the rule of
    :func:`algdual.search.find_isomorphism`: a bijective kind-hom whose
    inverse is one.  The inverse of a bijective hom preserves the tables,
    constants, involution and zero-morphism; it preserves the order exactly
    when both orders have equally many related pairs, as f maps the related
    pairs injectively into the related pairs.  Raises IsomorphismFailure
    otherwise."""
    try:
        m = Morphism(source, target, map, kind)
    except InvalidMorphism as exc:
        raise IsomorphismFailure(f"map is not a {kind!r} morphism: {exc}")
    if not m.is_bijective or kind in SPACE_KINDS and (
            _related_pairs(source.leq) != _related_pairs(target.leq)):
        raise IsomorphismFailure(f"map is not a {kind!r} isomorphism")
    return m


def validate_for_kind(obj, kind: str):
    """Run the validator of a morphism kind, on an object of its class."""
    if kind not in MORPHISM_KINDS:
        raise KindMismatch(f"unknown morphism kind {kind!r}")
    if type(obj).__name__ not in _KIND_CLASSES[kind]:
        raise KindMismatch(
            f"kind {kind!r} does not apply to a {type(obj).__name__}")
    return resolve(MORPHISM_KINDS[kind][0])(obj)
