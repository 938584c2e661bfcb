"""Shared exception types."""

__all__ = ["DimensionMismatch", "NumericError", "SecondOrderUnavailable",
           "SymbolicOnlyError", "InfeasibleModel", "IterationLimit", "InvalidBasis"]


class DimensionMismatch(ValueError):
    """Input shapes do not match a descriptor or chain."""


class NumericError(FloatingPointError):
    """A state became NaN/inf during evaluation."""


class SecondOrderUnavailable(TypeError):
    """Second-order information requested from a non-smooth layer."""


class SymbolicOnlyError(RuntimeError):
    """Numeric evaluation requested from a symbolic-only descriptor."""


class InfeasibleModel(RuntimeError):
    """A quadratic model stayed indefinite past the retry cap."""


class IterationLimit(RuntimeError):
    """An iterative solver hit its iteration cap before its tolerance."""


class InvalidBasis(ValueError):
    """A curvature basis does not have orthonormal columns."""
