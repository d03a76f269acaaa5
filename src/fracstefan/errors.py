"""Exception types shared across the solver."""


class FracStefanError(Exception):
    """Base class for all solver-specific errors."""


class InvalidInputError(FracStefanError, ValueError):
    """A parameter violates its documented range or positivity constraint."""


class NonConvergenceError(FracStefanError):
    """A truncated series hit its term cap before meeting tolerance."""

    def __init__(self, message, *, partial=None, last_term=None, terms=None):
        super().__init__(message)
        self.partial = partial
        self.last_term = last_term
        self.terms = terms


class DegenerateInputError(FracStefanError):
    """Inputs put the computation within roundoff of a singular configuration."""


class DomainError(FracStefanError, ValueError):
    """A coordinate lies outside the region where the requested field is defined."""


class NoSignChangeError(FracStefanError):
    """Bracket endpoints have residuals of the same sign; bisection cannot start."""


class ZeroPivotError(FracStefanError):
    """Tridiagonal elimination met a zero pivot (non-dominant assembly)."""


class InvalidStateError(FracStefanError):
    """A grid is missing history rows or holds non-finite values."""


class GridMismatchError(FracStefanError):
    """Two phase grids were built with different p, time step, or step count."""


class ParseError(FracStefanError, ValueError):
    """A configuration file could not be parsed."""


class ValidationError(FracStefanError, ValueError):
    """One or more resolved configuration values violate their invariants."""
