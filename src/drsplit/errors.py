"""Exception types raised by the solver stack."""


class DrsplitError(Exception):
    """Base of every exception type defined here."""


class InvalidFilterError(DrsplitError, ValueError):
    """Filter is empty or has no nonzero tap."""


class RankDeficiencyError(DrsplitError, ValueError):
    """Gram matrix is numerically rank deficient; no strong convexity."""


class FactorizationError(DrsplitError, ValueError):
    """A Cholesky solve failed: LAPACK returned a nonzero info."""


class StepSizeError(DrsplitError, ValueError):
    """Step size violates the gate of the requested operation or variant."""


class NonConvexShiftError(DrsplitError, ValueError):
    """Quadratic shift exceeds the strong convexity of the smooth term."""


class BoundInapplicableError(DrsplitError, ValueError):
    """Rate formula evaluated outside its domain of validity."""


class FilterDesignError(DrsplitError, RuntimeError):
    """Target condition ratio unreachable within the filter family."""


class DivergenceError(DrsplitError, RuntimeError):
    """Iteration produced a non-finite value."""
