"""Douglas-Rachford and ISTA iteration engines with trace recording.

Two DR families act on a splitting h = f + g with f strongly convex and g
weakly convex (modulus rho):

* ``dr-main-*``  relaxed double reflection of the plain proximity operators;
  step gate alpha <= 1/sqrt(sigma*rho), where sigma is the gradient Lipschitz
  constant of f.  The ``fg`` order applies the f-reflection last and extracts
  the primal point as prox_g(z); ``gf`` swaps the order and extracts prox_f(z).
* ``dr-shift-*``  the same double reflection built from the proxes of the
  convexified pair g + (rho/2)|.|^2 and f - (rho/2)|.|^2; step gate
  ``errors.check_prox_step``: alpha*rho < 1 (strict), rho <= s (of f).
  Extraction uses the corresponding shifted prox.

``ista`` is the forward-backward baseline x <- prox_g(x - alpha grad f(x)).

A ``Problem`` may hold a block of B problems that share everything but
their data: a ``QuadraticTerm`` with observations of shape (B, m) and a
``FirmPenalty`` with a (B, 1) column of weights.  ``run`` then iterates all
rows at once, in the same loop, on (B, n) arrays, and each row gets the bits
a run on that row's problem alone would give; ``IterationTrace.split``
returns the per-row traces.  A row that stops (on tol or on stop_dist) is
never stepped again: ``run`` keeps its final point and goes on with
``Problem.take`` of the rows still running, for which each block term gives
``take(rows)``, the term cut to those rows.  The stopped row's audit and
distance columns repeat its stop row up to the block's last row, and its
step norm reads NaN there.

``run`` allocates the trace columns it records at max_iters + 1 rows and
returns them cut to the rows it wrote.  The loop writes the step norm (and
the reference distance, if any) of each iterate and keeps its primal point
x in a buffer of ``linalg.rows_per_call(B)`` iterates for B running rows:
96 iterates of a single problem, 16 of a 6-row block, 9 of a 10-row one.
Each time the buffer fills, one stacked call each of ``Problem.cost`` and
``Problem.fixed_point_residual`` fills the audit columns of those rows, and
the rows left when rows of a block stop, or when the loop ends, are audited
then.  Every call acts row by row, so each column has the bits of auditing
one iterate at a time.  The terms' ``value``, the smooth term's ``grad`` and
the penalty's ``prox`` therefore take a (k, *shape) stack of iterates, one
result per row.

Two options serve callers that read less than the full history: a row stops
at the first iterate whose distance to the reference meets ``stop_dist``, and
``audit=False`` leaves the cost and fixed-point residual columns NaN (the
step norm, the distance to a given reference and the final cost are always
recorded).  ``run_experiment`` uses both: its traced runs stop at the
distance threshold, and it audits none of its runs unless it writes their
traces.  The defaults keep every iterate and every column.  A row caught in
an exact floating-point cycle of period 2 or more never meets tol: unless
stop_dist stops it, it runs every iteration up to max_iters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DivergenceError, StepSizeError, check_prox_step
from .linalg import row_norm, rows_per_call

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
        """h(x), one value per row of a block or of a stack of iterates."""
        return self.smooth.value(x) + self.penalty.value(x)

    def has_gradient(self) -> bool:
        return callable(getattr(self.smooth, "grad", None))

    def take(self, rows) -> "Problem":
        """The block problem of the given rows (indices into the block axis):
        each term with a non-empty ``block_shape`` gives its ``take(rows)``,
        and a term without one is shared unchanged."""
        cut = lambda term: term.take(rows) if getattr(term, "block_shape", ()) else term
        return Problem(cut(self.smooth), cut(self.penalty))

    def fixed_point_residual(self, x, alpha: float):
        """|| x - prox_g(x - alpha grad f(x), alpha) ||, zero exactly at minimizers
        (one value per row of a block or of a stack of iterates)."""
        x = np.asarray(x, dtype=float)
        return row_norm(x - self.penalty.prox(x - alpha * self.smooth.grad(x), alpha))


def step_bound(variant: str, sigma, rho: float) -> float:
    """Upper step bound of a variant (may be infinite).

    1/sqrt(sigma*rho) for dr-main, 1/rho for dr-shift and 1/sigma for ista;
    a zero modulus leaves both DR families unbounded.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if variant != "ista" and DR_TABLE[variant][1]:
        return math.inf if rho == 0 else 1.0 / rho
    if sigma is None:
        raise StepSizeError(f"{variant} needs the gradient Lipschitz constant of the smooth term")
    if variant == "ista":
        if not sigma > 0:
            raise ValueError(f"ista needs sigma > 0, got sigma={sigma}")
        return 1.0 / sigma
    if not sigma >= rho:
        raise ValueError(f"need sigma >= rho >= 0, got sigma={sigma}, rho={rho}")
    return math.inf if rho == 0 else 1.0 / math.sqrt(sigma * rho)


def check_step(variant: str, alpha: float, sigma, rho: float, s=None) -> None:
    """Raise StepSizeError unless 0 < alpha and alpha <= step_bound (dr-main,
    ista) or alpha * rho < 1, strict (dr-shift).  A passing dr-shift alpha then
    goes through ``check_prox_step`` for its rho <= s test, which raises
    NonConvexShiftError when rho exceeds a given s."""
    bound = step_bound(variant, sigma, rho)
    shifted = variant != "ista" and DR_TABLE[variant][1]
    if not (0 < alpha and (alpha * rho < 1.0 if shifted else alpha <= bound)):
        kind = "strict bound" if shifted else "bound"
        raise StepSizeError(f"alpha = {alpha:.6g} violates the {kind} {bound:.6g} of {variant}")
    if shifted:
        check_prox_step(alpha, rho, s)


def default_alpha(problem: Problem, variant: str, fraction: float = 0.99) -> float:
    """fraction x the variant's step bound; the bound 1/sigma itself for
    ista, and 1/sigma when the bound is infinite."""
    sigma = problem.grad_lipschitz
    bound = step_bound(variant, sigma, problem.rho)
    if variant == "ista":
        return bound
    if math.isfinite(bound):
        return fraction * bound
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
    operator whose contraction rates the rate calculators bound.  On a
    single problem it maps a point (n,), or a (k, n) stack of points row by
    row: each row of the result has the bits of the call on that row alone
    (the quadratic prox is one multi-right-hand-side ``dpotrs`` solve, the
    rest is elementwise), which ``analysis.empirical_lipschitz`` relies on.
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
    reference point for distance recording.

    ``stop_dist`` (needs the reference) stops a row after the first iterate
    whose distance to the reference is at most stop_dist.  ``audit=False``
    leaves the cost and fixed-point residual columns NaN; the step norm, and
    the distance to a given reference, are recorded either way, and
    stop_dist stops a row at the same iterate."""

    variant: str
    alpha: float | None = None
    relaxation: float = 0.5
    max_iters: int = 1000
    tol: float = 0.0
    record_reference: np.ndarray | None = field(default=None, repr=False)
    stop_dist: float | None = None
    audit: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if self.stop_dist is not None:
            if not self.stop_dist >= 0:
                raise ValueError(f"stop_dist must be nonnegative, got {self.stop_dist}")
            if self.record_reference is None:
                raise ValueError("stop_dist needs record_reference")
        if self.variant != "ista" and not 0.0 < self.relaxation < 1.0:
            raise ValueError(f"relaxation must lie in (0, 1), got {self.relaxation}")


@dataclass
class IterationTrace:
    """Per-iteration history of a solver run plus the final points.

    Row n holds the cost at the primal extraction of iterate n, the step norm
    ||z^n - z^(n-1)|| (nan at n = 0), the fixed-point residual at the audit
    step 1/sigma (nan when the smooth term has no gradient), and the distance
    to the reference point when one was given; read-only ``iterations``
    numbers the rows.  An unaudited run leaves the cost and fixed-point
    residual NaN; ``final_cost``, the cost at final_x, is taken either way.

    ``stop_reason`` says why the run stopped: ``"tol"`` when the step norm
    met tol (also when stop_dist was met at the same iterate), ``"stop_dist"``
    or ``"max_iters"``; ``converged`` is ``stop_reason == "tol"``, read-only.

    A block run gives one trace whose columns have shape (rows, B), whose
    final points have shape (B, n), and whose ``final_cost``, ``converged``,
    ``stop_reason`` and ``row_iters`` hold one entry per row; ``split`` cuts
    it into one trace per row, each ending at its ``row_iters``.  Past that
    row, a row's columns repeat its last one, except for a step norm of NaN.
    """

    variant: str
    alpha: float
    relaxation: float
    max_iters: int
    tol: float
    cost: np.ndarray
    step_norm: np.ndarray
    fp_residual: np.ndarray
    dist_to_ref: np.ndarray
    final_x: np.ndarray
    final_z: np.ndarray
    final_cost: float | np.ndarray
    stop_reason: str | np.ndarray
    row_iters: np.ndarray | None = None

    @property
    def converged(self) -> bool | np.ndarray:
        return self.stop_reason == "tol"

    @property
    def iterations(self) -> np.ndarray:
        return np.arange(len(self.step_norm))

    @property
    def n_iters(self) -> int:
        return len(self.step_norm) - 1

    def split(self) -> list["IterationTrace"]:
        """One trace per row of a block trace, each ending at its row's last
        iteration; ``[self]`` for the trace of a single problem."""
        if self.row_iters is None:
            return [self]
        # Each row trace views the block's arrays rather than copying them.
        return [
            replace(
                self,
                cost=self.cost[: k + 1, b],
                step_norm=self.step_norm[: k + 1, b],
                fp_residual=self.fp_residual[: k + 1, b],
                dist_to_ref=self.dist_to_ref[: k + 1, b],
                final_x=self.final_x[b],
                final_z=self.final_z[b],
                final_cost=float(self.final_cost[b]),
                stop_reason=str(self.stop_reason[b]),
                row_iters=None,
            )
            for b, k in enumerate(self.row_iters.tolist())
        ]

    def _require_single(self, what: str) -> None:
        if self.row_iters is not None:
            raise ValueError(f"{what} of a block trace: split() it into row traces first")

    def iterations_to(self, threshold: float):
        """First iteration index with dist_to_ref <= threshold, else None."""
        self._require_single("iterations_to")
        hits = np.nonzero(self.dist_to_ref <= threshold)[0]
        return int(hits[0]) if hits.size else None

    def to_csv(self, path) -> None:
        self._require_single("to_csv")
        columns = (self.iterations, self.cost, self.step_norm, self.fp_residual, self.dist_to_ref)
        with open(path, "w") as fh:
            fh.write("iter,cost,step_norm,fp_residual,dist_to_ref\n")
            fh.writelines(
                f"{i},{c:.17g},{s:.17g},{r:.17g},{d:.17g}\n" for i, c, s, r, d in zip(*(a.tolist() for a in columns))
            )

    def to_json_dict(self) -> dict:
        """Config and outcome as strict JSON: a non-finite final cost (an indicator's inf) is null."""
        self._require_single("to_json_dict")
        return {
            "config": {
                "variant": self.variant,
                "alpha": self.alpha,
                "relaxation": self.relaxation,
                "max_iters": self.max_iters,
                "tol": self.tol,
            },
            "iterations": self.n_iters,
            "converged": self.converged,
            "final_cost": self.final_cost if math.isfinite(self.final_cost) else None,
            "final_x": [float(v) for v in self.final_x],
        }


def _iteration(problem: Problem, variant: str, alpha: float, relaxation: float) -> tuple[Callable, Callable]:
    """(step, extract) of a variant on problem: step(x, z) is the next iterate
    from z and its primal point x, extract(z) that primal point."""
    if variant == "ista":
        return (lambda x, z: problem.penalty.prox(z - alpha * problem.smooth.grad(z), alpha)), (lambda z: z)
    operator = double_reflection(problem, alpha, variant)
    # x = first(z) is the primal point already extracted from z.
    step = lambda x, z: (1.0 - relaxation) * z + relaxation * operator(z, x)
    return step, prox_pair(problem, alpha, variant)[0]


def run(problem: Problem, config: SolverConfig) -> IterationTrace:
    """Iterate the configured variant from z0 = 0 until tol, stop_dist or
    max_iters.

    Records cost, step norm, fixed-point residual, and reference distance at
    every iterate (including the initial point); with ``audit=False`` no cost
    or residual.  Cost and residual are computed on a stack of up to
    ``linalg.rows_per_call(B)`` iterates of B running rows at a time, with the
    bits of one iterate at a time (see the module docstring), and
    ``final_cost`` by one call on the final points, audited or not.  The step
    gate runs before the first iteration: StepSizeError when alpha fails it,
    and NonConvexShiftError when it passes but a shifted variant's rho exceeds
    s.  Divergence means a non-finite x0 or z, and raises DivergenceError
    naming the iteration and the variant.  A non-finite z is found through the
    step norm (z before the step is finite, so a NaN or infinite entry makes
    its row's norm non-finite) and confirmed on the iterate, so a finite z
    whose step norm overflows runs on with step norm inf.  The proxes do not
    scan their input, so a NaN in the data is found there too.  Any other
    exception raised inside a step propagates as raised.

    For a block problem the reference has the iterate shape (B, n), each row
    stops on its own once its step norm meets tol or its distance meets
    stop_dist, and the loop ends when every row has stopped.  A row's
    stop_reason is written where it stops, and a stopped row is never
    stepped again: the loop goes on with the problem's ``take`` of
    the rows still running, so a term with a non-empty ``block_shape`` must
    have ``take(rows)`` (TypeError before the first iteration otherwise).
    One non-finite running row raises DivergenceError for the whole block.
    """
    whole = problem  # shedding rebinds problem to the rows still running
    alpha = config.alpha if config.alpha is not None else default_alpha(problem, config.variant)
    check_step(config.variant, alpha, problem.grad_lipschitz, problem.rho, problem.strong_convexity)
    shape = problem.shape
    lead = shape[:-1]
    max_iters, tol, stop_dist, audit = config.max_iters, config.tol, config.stop_dist, config.audit
    for side in ("smooth", "penalty"):
        term = getattr(problem, side)
        if getattr(term, "block_shape", ()) and not callable(getattr(term, "take", None)):
            raise TypeError(f"{side} term {term!r} holds a block of rows but has no take(rows)")

    reference = None
    if config.record_reference is not None:
        reference = np.asarray(config.record_reference, dtype=float)
        if reference.shape != shape:
            raise ValueError(f"reference has shape {reference.shape}, iterates have shape {shape}")

    step, extract = _iteration(problem, config.variant, alpha, config.relaxation)

    # Residuals are audited at a fixed step so they compare across variants.
    sigma = problem.grad_lipschitz
    audit_alpha = None
    if problem.has_gradient() and sigma is not None and problem.rho < sigma:
        audit_alpha = 1.0 / sigma

    # One row per iterate the run may reach; a run that stops early never
    # writes the rest, so their pages are never touched.  A column the run
    # does not record reads as NaN: one read-only view, no memory.  cols
    # indexes the block rows still running (all of them until one stops).
    step_norm = np.empty((max_iters + 1, *lead))
    cost = fp_residual = dist_to_ref = unrecorded = np.broadcast_to(math.nan, step_norm.shape)
    cols = ...
    if audit:
        cost, fp_residual = np.empty_like(step_norm), np.empty_like(step_norm)
    if reference is not None:  # written per iterate: the stop test may read it
        dist_to_ref = np.empty_like(step_norm)

    def buffer(shape):
        """(per_call, xs) for iterates of this shape: the iterates per audit
        call, and the buffer that keeps their x until they are audited."""
        per_call = rows_per_call(math.prod(shape[:-1]))
        return per_call, np.empty((per_call, *shape))

    base = 0  # the first iterate not yet audited

    def flush(n):
        """Audit the running rows' iterates base .. n, buffered in xs, with one call per column."""
        nonlocal base
        if audit and base <= n:
            h, done = xs[: n + 1 - base], slice(base, n + 1)
            cost[done, cols] = problem.cost(h)
            fp_residual[done, cols] = math.nan if audit_alpha is None else problem.fixed_point_residual(h, audit_alpha)
            base = n + 1

    z = np.zeros(shape)
    x = extract(z)
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"non-finite x0 at iteration 0 of {config.variant}")
    delta = np.full(lead, math.nan)
    # One problem's delta and stop are numpy scalars, which math.isfinite and
    # bool read without the reduction a block's arrays need.
    if lead:
        finite, any_ = (lambda d: math.isfinite(d.sum())), np.ndarray.any
    else:
        finite, any_ = math.isfinite, bool
    # Per block row, written as the row stops.
    stop_reason = np.full(lead, "max_iters")
    row_iters = np.full(lead, max_iters)
    final_x, final_z = np.empty(shape), np.empty(shape)
    if audit:
        per_call, xs = buffer(shape)
    for n in range(max_iters + 1):
        if n:
            z_new = step(x, z)
            # z is finite, so a non-finite entry of z_new makes its row's
            # delta non-finite; the iterate itself decides, as a finite z_new
            # may still overflow its norm.
            delta = row_norm(z_new - z)
            if not finite(delta) and not np.isfinite(z_new).all():
                raise DivergenceError(f"non-finite iterate at iteration {n} of {config.variant}")
            z = z_new
            x = extract(z)
        step_norm[n, cols] = delta
        stop = met_tol = delta <= tol
        if reference is not None:
            dist_to_ref[n, cols] = dist = row_norm(x - reference)
            if stop_dist is not None:
                stop = met_tol | (dist <= stop_dist)
        if audit:
            xs[n - base] = x
            if n - base == per_call - 1:
                flush(n)
        if any_(stop):
            if not lead or n == max_iters or stop.all():
                break
            # Some rows stop: keep what they end with, audit what is
            # buffered, and go on with the rows still running alone.
            flush(n)
            live = np.arange(lead[0])[cols]
            at, cols, keep = live[stop], live[~stop], np.flatnonzero(~stop)
            stop_reason[at], row_iters[at] = np.where(met_tol[stop], "tol", "stop_dist"), n
            final_x[at], final_z[at] = x[stop], z[stop]
            z, x = z[keep], x[keep]
            if reference is not None:
                reference = reference[keep]
            problem = problem.take(keep)
            step, extract = _iteration(problem, config.variant, alpha, config.relaxation)
            if audit:
                per_call, xs = buffer(z.shape)

    flush(n)
    stop_reason[cols], row_iters[cols] = np.where(met_tol, "tol", np.where(stop, "stop_dist", "max_iters")), n
    final_x[cols], final_z[cols] = x, z
    # A row that stopped before the loop ended repeats its last row, with no
    # step norm (it took no step).
    end = n + 1
    recorded = [col for col in (step_norm, cost, fp_residual, dist_to_ref) if col is not unrecorded]
    for b, last in enumerate(np.atleast_1d(row_iters).tolist()):
        for col in recorded if last + 1 < end else ():
            c = col.reshape(len(col), -1)[:, b]  # row b's column, a view
            c[last + 1 : end] = math.nan if col is step_norm else c[last]
    return IterationTrace(
        variant=config.variant,
        alpha=alpha,
        relaxation=config.relaxation,
        max_iters=max_iters,
        tol=tol,
        cost=cost[:end],
        step_norm=step_norm[:end],
        fp_residual=fp_residual[:end],
        dist_to_ref=dist_to_ref[:end],
        final_x=final_x,
        final_z=final_z,
        final_cost=whole.cost(final_x) if lead else float(whole.cost(final_x)),
        stop_reason=stop_reason if lead else str(stop_reason),
        row_iters=row_iters if lead else None,
    )
