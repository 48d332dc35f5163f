"""Exception types shared across the package.

LAPACK failures are not wrapped: they surface as numpy.linalg.LinAlgError.
"""


class DomainError(ValueError):
    """A parameter lies outside its documented range."""


class ShapeMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NonHermitianInput(ValueError):
    """A matrix expected to be Hermitian violates the tolerance."""


class UnknownOperation(ValueError):
    """An operation name is not in the flip catalog for the given dimension."""
