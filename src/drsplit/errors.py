"""Exception types raised by the solver stack, and the checks shared by its modules."""

import numbers


class DrsplitError(Exception):
    """Base of every exception type defined here."""


class InvalidFilterError(DrsplitError, ValueError):
    """Filter is empty or has no nonzero tap."""


class RankDeficiencyError(DrsplitError, ValueError):
    """Gram matrix is numerically rank deficient; no strong convexity."""


class StepSizeError(DrsplitError, ValueError):
    """Step size violates the gate of the requested operation or variant."""


class NonConvexShiftError(DrsplitError, ValueError):
    """Quadratic shift exceeds the strong convexity of the smooth term."""


def check_prox_step(alpha: float, rho: float = 0.0, s: float | None = None) -> None:
    """The step rule of every prox and bound, checked in this order: alpha > 0,
    rho >= 0 (ValueError), alpha * rho < 1 and, given s, rho <= s
    (NonConvexShiftError).  Each test is negated, so a NaN fails it."""
    if not alpha > 0:
        raise StepSizeError(f"alpha must be positive, got {alpha}")
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if not alpha * rho < 1.0:
        raise StepSizeError(f"alpha * rho = {alpha * rho:.6g} must be below 1")
    if s is not None and not rho <= s:
        raise NonConvexShiftError(f"shift rho = {rho:.6g} exceeds the strong convexity s = {s:.6g}")


def is_integer(value) -> bool:
    """Whether value is an integer: of any integral type but bool, which
    Python counts as one, so that True passes as no count, index or seed."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class BoundInapplicableError(DrsplitError, ValueError):
    """Rate formula evaluated outside its domain of validity."""


class FilterDesignError(DrsplitError, RuntimeError):
    """Target condition ratio unreachable within the filter family."""


class DivergenceError(DrsplitError, RuntimeError):
    """Iteration produced a non-finite value."""
