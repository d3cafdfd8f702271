"""Douglas-Rachford and ISTA iteration engines with trace recording.

Two DR families act on a splitting h = f + g with f strongly convex and g
weakly convex (modulus rho):

* ``dr-main-*``  relaxed double reflection of the plain proximity operators;
  step gate alpha <= 1/sqrt(sigma*rho), where sigma is the gradient Lipschitz
  constant of f.  The ``fg`` order applies the f-reflection last and extracts
  the primal point as prox_g(z); ``gf`` swaps the order and extracts prox_f(z).
* ``dr-shift-*``  the same double reflection built from the proxes of the
  convexified pair g + (rho/2)|.|^2 and f - (rho/2)|.|^2; step gate
  alpha*rho < 1 (strict), and rho may not exceed the strong convexity s of f.
  Extraction uses the corresponding shifted prox.

``ista`` is the forward-backward baseline x <- prox_g(x - alpha grad f(x)).

A ``Problem`` may hold a block of B problems that share everything but
their data: a ``QuadraticTerm`` with observations of shape (B, m) and a
``FirmPenalty`` with a (B, 1) column of weights.  ``run`` then iterates all
rows at once, in the same loop, on (B, n) arrays, and each row gets the bits
a run on that row's problem alone would give; ``IterationTrace.split``
returns the per-row traces.  A row that meets the tolerance stops there and
keeps its final point while the others go on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DivergenceError, DrsplitError, NonConvexShiftError, StepSizeError
from .linalg import row_norm

# Every DR variant is a reflection order and a choice of proxes: plain (f, g)
# or the convexified pair f - (rho/2)|.|^2, g + (rho/2)|.|^2.
DR_TABLE = {
    "dr-main-fg": ("fg", False),
    "dr-main-gf": ("gf", False),
    "dr-shift-fg": ("fg", True),
    "dr-shift-gf": ("gf", True),
}
DR_VARIANTS = tuple(DR_TABLE)
VARIANTS = DR_VARIANTS + ("ista",)

# Margin below the step-size bound used when no explicit alpha is given.
DEFAULT_ALPHA_FRACTION = 0.99


@dataclass(frozen=True)
class Problem:
    """A splitting h = f + g: ``smooth`` is the f-side, ``penalty`` the g-side."""

    smooth: object
    penalty: object

    @property
    def dim(self) -> int:
        return self.smooth.dim

    @property
    def shape(self) -> tuple:
        """Shape of an iterate: (dim,), or (B, dim) for a block of B problems."""
        lead = np.broadcast_shapes(
            getattr(self.smooth, "block_shape", ()), getattr(self.penalty, "block_shape", ())
        )
        return (*lead, self.dim)

    @property
    def rho(self) -> float:
        return float(self.penalty.modulus)

    @property
    def grad_lipschitz(self):
        return getattr(self.smooth, "grad_lipschitz", None)

    @property
    def strong_convexity(self):
        return getattr(self.smooth, "strong_convexity", None)

    def cost(self, x):
        """h(x), one value per row of a block."""
        return self.smooth.value(x) + self.penalty.value(x)

    def has_gradient(self) -> bool:
        return callable(getattr(self.smooth, "grad", None))

    def fixed_point_residual(self, x, alpha: float):
        """|| x - prox_g(x - alpha grad f(x), alpha) ||, zero exactly at minimizers
        (one value per row of a block)."""
        x = np.asarray(x, dtype=float)
        return row_norm(x - self.penalty.prox(x - alpha * self.smooth.grad(x), alpha))


def step_bound(variant: str, sigma, rho: float) -> float:
    """Upper step bound of a variant (may be infinite).

    1/sqrt(sigma*rho) for dr-main, 1/rho for dr-shift and 1/sigma for ista;
    a zero modulus leaves both DR families unbounded.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if variant != "ista" and DR_TABLE[variant][1]:
        return math.inf if rho == 0 else 1.0 / rho
    if sigma is None:
        raise StepSizeError(f"{variant} needs the gradient Lipschitz constant of the smooth term")
    if variant == "ista":
        return 1.0 / sigma
    if sigma < rho:
        raise ValueError(f"need sigma >= rho >= 0, got sigma={sigma}, rho={rho}")
    return math.inf if rho == 0 else 1.0 / math.sqrt(sigma * rho)


def check_step(variant: str, alpha: float, sigma, rho: float, s=None) -> None:
    """Raise StepSizeError unless alpha passes the variant's step gate:
    0 < alpha <= step_bound for dr-main and ista, alpha * rho < 1 (strict)
    for dr-shift.  A shifted variant also raises NonConvexShiftError when s
    is given and rho exceeds it."""
    bound = step_bound(variant, sigma, rho)
    shifted = variant != "ista" and DR_TABLE[variant][1]
    if shifted and s is not None and rho > s:
        raise NonConvexShiftError(f"shift rho = {rho:.6g} exceeds the strong convexity s = {s:.6g}")
    if not (0 < alpha and alpha * rho < 1.0 if shifted else 0 < alpha <= bound):
        kind = "strict bound" if shifted else "bound"
        raise StepSizeError(f"alpha = {alpha:.6g} violates the {kind} {bound:.6g} of {variant}")


def default_alpha(problem: Problem, variant: str) -> float:
    """0.99x the variant's step bound; 1/sigma for ista or when unbounded."""
    sigma = problem.grad_lipschitz
    bound = step_bound(variant, sigma, problem.rho)
    if variant == "ista":
        return bound
    if math.isfinite(bound):
        return DEFAULT_ALPHA_FRACTION * bound
    if sigma is not None:
        return 1.0 / sigma
    raise StepSizeError(f"{variant} has no finite step bound here; pass alpha explicitly")


def reflect(prox_op: Callable, z, alpha: float) -> np.ndarray:
    """Reflected prox 2*prox(z) - z for a prox callable (z, alpha) -> x."""
    z = np.asarray(z, dtype=float)
    return 2.0 * prox_op(z, alpha) - z


def prox_pair(problem: Problem, alpha: float, variant: str) -> tuple[Callable, Callable]:
    """The (first, second) proxes z -> x of a DR variant, in reflection order.

    The ``fg`` order reflects through the g-side first and the f-side last;
    ``gf`` swaps them.  The variant's primal point is always first(z).
    """
    if variant not in DR_TABLE:
        raise ValueError(f"unknown double-reflection variant {variant!r}")
    order, shifted = DR_TABLE[variant]
    f, g = problem.smooth, problem.penalty
    if shifted:
        rho = problem.rho
        f_prox, g_prox = (lambda z: f.shifted_prox(z, alpha, rho)), (lambda z: g.shifted_prox(z, alpha))
    else:
        f_prox, g_prox = (lambda z: f.prox(z, alpha)), (lambda z: g.prox(z, alpha))
    return (g_prox, f_prox) if order == "fg" else (f_prox, g_prox)


def double_reflection(problem: Problem, alpha: float, variant: str) -> Callable:
    """The unrelaxed composition of the variant's two reflections.

    For ``dr-main-fg`` / ``dr-shift-fg`` this is the raw double-reflection
    operator whose contraction rates the rate calculators bound.
    """
    first, second = prox_pair(problem, alpha, variant)

    def op(z, x=None):
        """T(z); pass x = first(z) when it is already known to skip that prox."""
        z = np.asarray(z, dtype=float)
        w = 2.0 * (first(z) if x is None else x) - z
        return 2.0 * second(w) - w

    return op


def dr_step(problem: Problem, z, alpha: float, variant: str, relaxation: float = 0.5) -> np.ndarray:
    """One relaxed step (1 - relaxation) z + relaxation T(z) of a DR variant."""
    check_step(variant, alpha, problem.grad_lipschitz, problem.rho, problem.strong_convexity)
    if not 0.0 < relaxation < 1.0:
        raise ValueError(f"relaxation must lie in (0, 1), got {relaxation}")
    z = np.asarray(z, dtype=float)
    return (1.0 - relaxation) * z + relaxation * double_reflection(problem, alpha, variant)(z)


def ista_step(problem, x, alpha):
    """Forward-backward step prox_g(x - alpha grad f(x))."""
    check_step("ista", alpha, problem.grad_lipschitz, problem.rho)
    x = np.asarray(x, dtype=float)
    return problem.penalty.prox(x - alpha * problem.smooth.grad(x), alpha)


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: variant, step alpha (None = variant default),
    relaxation weight in (0,1), iteration/tolerance limits, and an optional
    reference point for distance recording."""

    variant: str
    alpha: float | None = None
    relaxation: float = 0.5
    max_iters: int = 1000
    tol: float = 0.0
    record_reference: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.tol < 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if self.variant != "ista" and not 0.0 < self.relaxation < 1.0:
            raise ValueError(f"relaxation must lie in (0, 1), got {self.relaxation}")


class _Columns:
    """The four trace columns, each grown in place to twice its length when
    full, and cut to the rows written at the end."""

    FIRST_ROWS = 256

    def __init__(self, lead: tuple, max_rows: int):
        self.max_rows = max_rows
        self.data = [np.empty((min(max_rows, self.FIRST_ROWS), *lead)) for _ in range(4)]
        self.rows = 0

    def append(self, *values) -> None:
        if self.rows == len(self.data[0]):
            self._resize(min(2 * self.rows, self.max_rows))
        for column, value in zip(self.data, values):
            column[self.rows] = value
        self.rows += 1

    def trimmed(self) -> list[np.ndarray]:
        self._resize(self.rows)
        return self.data

    def _resize(self, rows: int) -> None:
        # In place: no view of a column exists until trimmed() hands them out.
        for column in self.data:
            column.resize((rows, *column.shape[1:]), refcheck=False)


@dataclass
class IterationTrace:
    """Per-iteration history of a solver run plus the final points.

    Row n holds the cost at the primal extraction of iterate n, the step norm
    ||z^n - z^(n-1)|| (nan at n = 0), the fixed-point residual at the audit
    step 1/sigma (nan when the smooth term has no gradient), and the distance
    to the reference point when one was given.

    A block run gives one trace whose columns have shape (rows, B), whose
    final points have shape (B, n), and whose ``converged`` and ``row_iters``
    hold one entry per row; ``split`` cuts it into one trace per row.
    """

    variant: str
    alpha: float
    relaxation: float
    max_iters: int
    tol: float
    iterations: np.ndarray
    cost: np.ndarray
    step_norm: np.ndarray
    fp_residual: np.ndarray
    dist_to_ref: np.ndarray
    final_x: np.ndarray
    final_z: np.ndarray
    converged: bool | np.ndarray
    row_iters: np.ndarray | None = None

    @property
    def n_iters(self) -> int:
        return int(self.iterations[-1])

    def split(self) -> list["IterationTrace"]:
        """One trace per row of a block trace, each ending at its row's last
        iteration; ``[self]`` for the trace of a single problem."""
        if self.row_iters is None:
            return [self]
        # Each row trace views the block's arrays rather than copying them.
        return [
            replace(
                self,
                iterations=self.iterations[: k + 1],
                cost=self.cost[: k + 1, b],
                step_norm=self.step_norm[: k + 1, b],
                fp_residual=self.fp_residual[: k + 1, b],
                dist_to_ref=self.dist_to_ref[: k + 1, b],
                final_x=self.final_x[b],
                final_z=self.final_z[b],
                converged=bool(self.converged[b]),
                row_iters=None,
            )
            for b, k in enumerate(self.row_iters.tolist())
        ]

    @property
    def final_cost(self) -> float:
        self._require_single("final_cost")
        return float(self.cost[-1])

    def _require_single(self, what: str) -> None:
        if self.row_iters is not None:
            raise ValueError(f"{what} of a block trace: split() it into row traces first")

    def iterations_to(self, threshold: float):
        """First iteration index with dist_to_ref <= threshold, else None."""
        self._require_single("iterations_to")
        hits = np.nonzero(self.dist_to_ref <= threshold)[0]
        return int(self.iterations[hits[0]]) if hits.size else None

    def to_csv(self, path) -> None:
        self._require_single("to_csv")
        with open(path, "w") as fh:
            fh.write("iter,cost,step_norm,fp_residual,dist_to_ref\n")
            for i in range(self.iterations.size):
                fh.write(
                    f"{int(self.iterations[i])},{self.cost[i]:.17g},{self.step_norm[i]:.17g},"
                    f"{self.fp_residual[i]:.17g},{self.dist_to_ref[i]:.17g}\n"
                )

    def config_dict(self) -> dict:
        return {
            "variant": self.variant,
            "alpha": self.alpha,
            "relaxation": self.relaxation,
            "max_iters": self.max_iters,
            "tol": self.tol,
        }

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_dict(),
            "iterations": self.n_iters,
            "converged": self.converged,
            "final_cost": self.final_cost,
            "final_x": [float(v) for v in self.final_x],
            "final_z": [float(v) for v in self.final_z],
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)


def run(problem: Problem, config: SolverConfig) -> IterationTrace:
    """Iterate the configured variant from z0 = 0 until tol or max_iters.

    Records cost, step norm, fixed-point residual, and reference distance at
    every iterate (including the initial point).  The step gate runs before
    the first iteration: StepSizeError when alpha fails it, and
    NonConvexShiftError when a shifted variant's rho exceeds s.  Raises
    DivergenceError as soon as an iterate stops being finite or a prox solve,
    the extraction of x0 included, meets a non-finite value; drsplit's own
    errors raised there propagate unchanged.

    For a block problem the reference has the iterate shape (B, n), each row
    stops on its own once its step norm meets tol, and the loop ends when
    every row has stopped; one non-finite row raises DivergenceError for the
    whole block.
    """
    alpha = config.alpha if config.alpha is not None else default_alpha(problem, config.variant)
    check_step(config.variant, alpha, problem.grad_lipschitz, problem.rho, problem.strong_convexity)
    shape = problem.shape
    lead = shape[:-1]

    reference = None
    if config.record_reference is not None:
        reference = np.asarray(config.record_reference, dtype=float)
        if reference.shape != shape:
            raise ValueError(f"reference has shape {reference.shape}, iterates have shape {shape}")

    if config.variant == "ista":
        step = lambda x, z: problem.penalty.prox(z - alpha * problem.smooth.grad(z), alpha)
        extract = lambda z: z
    else:
        operator = double_reflection(problem, alpha, config.variant)
        lam = config.relaxation
        # x = first(z) is the primal point already extracted from z.
        step = lambda x, z: (1.0 - lam) * z + lam * operator(z, x)
        extract = prox_pair(problem, alpha, config.variant)[0]

    # Residuals are audited at a fixed step so they compare across variants.
    sigma = problem.grad_lipschitz
    audit_alpha = None
    if problem.has_gradient() and sigma is not None and problem.rho < sigma:
        audit_alpha = 1.0 / sigma

    columns = _Columns(lead, config.max_iters + 1)

    def record(x, step_norm):
        columns.append(
            problem.cost(x),
            step_norm,
            problem.fixed_point_residual(x, audit_alpha) if audit_alpha is not None else math.nan,
            row_norm(x - reference) if reference is not None else math.nan,
        )

    def guarded(n, fn, *args):
        try:
            return fn(*args)
        except DrsplitError:
            raise
        except (ValueError, FloatingPointError) as exc:
            # a non-finite input to a prox solve surfaces as one of these
            raise DivergenceError(f"non-finite value at iteration {n} of {config.variant}: {exc}") from exc

    z = np.zeros(shape)
    x = guarded(0, extract, z)
    record(x, math.nan)
    converged = np.zeros(lead, dtype=bool)
    row_iters = np.full(lead, config.max_iters)
    for n in range(1, config.max_iters + 1):
        z_new = guarded(n, step, x, z)
        if not np.all(np.isfinite(z_new)):
            raise DivergenceError(f"non-finite iterate at iteration {n} of {config.variant}")
        delta = row_norm(z_new - z)
        if not converged.any():
            z = z_new
        else:  # rows that met tol keep their final point
            z = np.where(converged[..., None], z, z_new)
        x = guarded(n, extract, z)
        record(x, delta)
        stopped = delta <= config.tol
        if stopped.any():
            stopped &= ~converged
            converged |= stopped
            row_iters[stopped] = n
            if converged.all():
                break

    cost, step_norm, fp_residual, dist_to_ref = columns.trimmed()
    return IterationTrace(
        variant=config.variant,
        alpha=alpha,
        relaxation=config.relaxation,
        max_iters=config.max_iters,
        tol=config.tol,
        iterations=np.arange(columns.rows),
        cost=cost,
        step_norm=step_norm,
        fp_residual=fp_residual,
        dist_to_ref=dist_to_ref,
        final_x=x,
        final_z=z.copy(),
        converged=converged if lead else bool(converged),
        row_iters=row_iters if lead else None,
    )
