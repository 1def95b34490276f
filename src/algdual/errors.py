"""Exception hierarchy shared by all modules.

Every semantic failure raises a subclass of :class:`AlgebraError`; callers
that need a machine-readable verdict (the CLI) catch the base class.
Exceptions produced by validators carry the offending
:class:`~algdual.algebra.ValidationReport` in ``report`` when available.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all structural and semantic errors."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MissingOperation(AlgebraError):
    """A required operation table is absent from the algebra."""


class KindMismatch(AlgebraError):
    """An object is not valid for the requested morphism kind."""


class InvalidMorphism(AlgebraError):
    """A map fails the preservation equations of its kind."""


class NotSemilattice(AlgebraError):
    """The single binary operation is not a join semilattice operation."""


class MissingBottom(AlgebraError):
    """A join semilattice has no least element."""


class NotBisemilattice(AlgebraError):
    pass


class NotIBSL(AlgebraError):
    pass


class NotBoolean(AlgebraError):
    pass


class NotDistributive(AlgebraError):
    pass


class NotGRSpace(AlgebraError):
    pass


class InvalidSystem(AlgebraError):
    """A direct/inverse system violates a coherence condition."""


class InvalidSystemMorphism(AlgebraError):
    """A pair (index map, components) fails the commuting-square condition."""


class DomainMismatch(AlgebraError):
    """Composition attempted between morphisms that do not line up."""


class FiberSplit(AlgebraError):
    """A map scatters one fiber of a Plonka sum across several target fibers.

    Unreachable for validated homomorphisms; kept as an internal assertion.
    """


class IllDefinedTransition(AlgebraError):
    """A decomposition transition depends on the choice of representative.

    Signals a decomposition-hypothesis failure; must never fire on valid
    input.
    """


class UnboundedTransition(AlgebraError):
    """A lattice homomorphism does not preserve bounds, so it has no total
    Birkhoff dual."""


class IsomorphismFailure(AlgebraError):
    """A canonical double-dual map failed to validate as an isomorphism.

    Signals an implementation bug, never expected on valid input.
    """


class TooLarge(AlgebraError):
    """A result over a fixed size bound, refused before it is built."""


class UnknownBuiltin(AlgebraError):
    pass


class DocumentError(AlgebraError):
    """A JSON document is malformed or violates its kind's schema."""
