"""Exception hierarchy shared across the package."""


class HamkitError(Exception):
    """Base class for all package errors."""


class DomainError(HamkitError, ValueError):
    """An argument violates a documented precondition."""


class NumericOverflowError(HamkitError, ArithmeticError):
    """A computed quantity is NaN or infinite."""


class DivergenceError(HamkitError, ArithmeticError):
    """An iteration produced a non-finite or runaway state.

    Carries the step index at which the divergence was detected (None when
    the caller did not track one).
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class GeometryError(HamkitError):
    """A manifold invariant was lost (group drift, rank-deficient Jacobian)."""


class ConstraintSolveError(HamkitError):
    """The Newton iteration for constraint multipliers did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConditioningError(HamkitError):
    """A linear solve failed; a larger ridge/regularisation is advised."""


class ConditioningWarning(UserWarning):
    """A matrix estimate is indefinite beyond the accepted tolerance."""


class FitDomainError(HamkitError, ValueError):
    """Rate fitting saw non-positive gaps inside the fitting window."""


class CapabilityError(HamkitError):
    """A model lacks a required capability and no fallback was enabled."""


class ConfigError(HamkitError, ValueError):
    """A benchmark configuration document violates the strict schema."""
