"""Exception hierarchy for taplab."""


class TapLabError(Exception):
    """Base class for all taplab errors."""


class DegenerateTiltError(TapLabError):
    """A tilted log-partition is not finite (an overflowing or NaN dual)."""


class NoConvergenceError(TapLabError):
    """An iterative solver exhausted its iteration budget."""


class NoBracketError(TapLabError):
    """A root finder found no sign change on the supplied grid."""


class DomainError(TapLabError, ValueError):
    """An input violates a domain precondition (e.g. gamma <= 0)."""
