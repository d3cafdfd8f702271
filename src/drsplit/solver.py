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

``run`` allocates its four trace columns at max_iters + 1 rows when it starts
and returns them cut to the rows it wrote.  The loop writes the step norm of
each iterate and keeps its primal point x in a buffer of AUDIT_ROWS
iterates (fewer for a block of more than 6 rows, so that the buffer holds
at most AUDIT_POINTS points); each time the buffer fills, one stacked call
each of ``Problem.cost``, ``Problem.fixed_point_residual`` and ``row_norm``
fills the audit columns of those rows, and the rows left when the loop
ends are audited then.  Every call acts row by row, so each column has the
bits of auditing one iterate at a time.  The terms' ``value``, the smooth
term's ``grad`` and the penalty's ``prox`` therefore take a (k, *shape)
stack of iterates, one result per row.

Two options serve callers that read less than the full history: a row
stops at the first iterate whose distance to the reference meets
``stop_dist`` (the distance is then computed per iterate, for the stop
test), and ``audit=False`` records only the step norm (the other columns
come back as NaN).  ``run_experiment`` uses both: its reference run is
unaudited and its traced runs stop at the distance threshold.  The defaults
keep every iterate and every column.

A run of at least 2 * CYCLE_WINDOW iterations skips exact floating-point
cycles.  From iteration CYCLE_WINDOW on it keeps an anchor iterate, renewed
every CYCLE_WINDOW iterations; a running row whose z equals it bit for bit
repeats with that period p from then on (its step and columns depend on z
alone) and will never meet tol or stop_dist.  It steps on until its z is
z_max_iters, stops as ``"max_iters"`` with ``row_iters = max_iters``, and
its columns are filled by repeating its last p rows: every bit is that of
the full iteration.  ``IterationTrace.period`` is p, or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DivergenceError, NonConvexShiftError, StepSizeError
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

# Iterations between renewals of run()'s cycle anchor, the longest period it
# finds.  It looks only in runs of two windows or more (a shorter one could
# skip less than one); stock-spec ISTA periods reach 280 (EXP2) and 30 (EXP1).
CYCLE_WINDOW = 512

# Most iterates per stacked audit call in run().  The audit's dozen numpy
# calls cost about as much on one row as on 16: on a 2-core x86-64 host, 16
# rows took a 58-iteration EXP2 solve from 5.8 to 3.4 ms and more rows were
# no faster.  The stacked calls' temporaries grow with the row count: a pass
# of the acceptance gate (6-seed blocks) peaked 0.8 MB higher at 16 rows and
# 2.2 MB at 32, so a history of all max_iters + 1 iterates, audited after
# the loop, is not kept.
AUDIT_ROWS = 16

# Most points (iterate rows times block rows) per stacked audit call: a
# block of B rows audits max(1, min(AUDIT_ROWS, AUDIT_POINTS // B)) iterates
# at a time, 16 up to B = 6 and 9 at B = 10.  The temporaries of 16 rows of
# a 10-seed block pass 128 KB, and the allocator keeps memory after them:
# run_experiment at 20 seeds into an out_dir peaked at 63.7-65.5 MB with 16
# rows and 61.9-63.4 MB with 9 (EXP1 and EXP2, OPENBLAS_NUM_THREADS=1,
# x86-64), in the same wall time.
AUDIT_POINTS = 96


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
    records only the step norm and leaves the cost, fixed-point residual and
    distance columns NaN, so it excludes a reference and stop_dist."""

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
        if self.tol < 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")
        if not self.audit and (self.record_reference is not None or self.stop_dist is not None):
            raise ValueError("audit=False excludes record_reference and stop_dist: it records no distance")
        if self.stop_dist is not None:
            if self.stop_dist < 0:
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
    to the reference point when one was given.  An unaudited run leaves
    every column but the step norm NaN.

    ``converged`` says that the step norm met tol.  ``stop_reason`` says why
    the run stopped: ``"tol"`` (also when stop_dist was met at the same
    iterate), ``"stop_dist"`` or ``"max_iters"``.  ``period`` is the length
    of the exact cycle the run skipped through to max_iters, 0 when none.

    A block run gives one trace whose columns have shape (rows, B), whose
    final points have shape (B, n), and whose ``converged``, ``stop_reason``
    and ``row_iters`` hold one entry per row; ``split`` cuts it into one trace
    per row.
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
    stop_reason: str | np.ndarray
    row_iters: np.ndarray | None = None
    period: int | np.ndarray = 0

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
                stop_reason=str(self.stop_reason[b]),
                row_iters=None,
                period=int(self.period[b]),
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
        columns = (self.iterations, self.cost, self.step_norm, self.fp_residual, self.dist_to_ref)
        with open(path, "w") as fh:
            fh.write("iter,cost,step_norm,fp_residual,dist_to_ref\n")
            fh.writelines(
                f"{i},{c:.17g},{s:.17g},{r:.17g},{d:.17g}\n" for i, c, s, r, d in zip(*(a.tolist() for a in columns))
            )

    def to_json_dict(self) -> dict:
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
            "final_cost": self.final_cost,
            "final_x": [float(v) for v in self.final_x],
            "final_z": [float(v) for v in self.final_z],
        }


def run(problem: Problem, config: SolverConfig) -> IterationTrace:
    """Iterate the configured variant from z0 = 0 until tol, stop_dist or
    max_iters.

    Records cost, step norm, fixed-point residual, and reference distance at
    every iterate (including the initial point); with ``audit=False`` only
    the step norm.  Cost, residual and distance are computed up to AUDIT_ROWS
    iterates at a time, on a stack of their primal points, with the bits of
    one iterate at a time (see the module docstring).  The step gate runs
    before the first iteration: StepSizeError when alpha fails it, and
    NonConvexShiftError when a shifted variant's rho exceeds s.  Divergence
    means a non-finite x0 or z, and raises DivergenceError naming the
    iteration and the variant; the proxes do not scan their input, so a NaN
    in the data is found there too.  Any other exception raised inside a
    step propagates as raised.

    For a block problem the reference has the iterate shape (B, n), each row
    stops on its own once its step norm meets tol or its distance meets
    stop_dist, and the loop ends when every row has stopped; one non-finite
    row raises DivergenceError for the whole block.  Rows in an exact cycle
    skip ahead to max_iters (see the module docstring).
    """
    alpha = config.alpha if config.alpha is not None else default_alpha(problem, config.variant)
    check_step(config.variant, alpha, problem.grad_lipschitz, problem.rho, problem.strong_convexity)
    shape = problem.shape
    lead = shape[:-1]
    max_iters, tol, stop_dist, audit = config.max_iters, config.tol, config.stop_dist, config.audit

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

    # One row per iterate the run may reach; a run that stops early never
    # writes the rest, so their pages are never touched.
    step_norm = np.empty((max_iters + 1, *lead))
    per_call = max(1, min(AUDIT_ROWS, AUDIT_POINTS // math.prod(lead)))
    if audit:
        cost, fp_residual, dist_to_ref = (np.empty((max_iters + 1, *lead)) for _ in range(3))
        xs = np.empty((per_call, *shape))  # x of iterate n at row n % per_call, until audited

    def audit_rows(end):
        """Fill the audit columns of the buffered rows, those from the last
        multiple of per_call below end up to end, with one call each."""
        start = (end - 1) // per_call * per_call
        h, rows = xs[: end - start], slice(start, end)
        cost[rows] = problem.cost(h)
        fp_residual[rows] = problem.fixed_point_residual(h, audit_alpha) if audit_alpha is not None else math.nan
        if stop_dist is None:
            dist_to_ref[rows] = row_norm(h - reference) if reference is not None else math.nan

    def record(n, x, delta):
        step_norm[n] = delta
        if audit:
            xs[n % per_call] = x
            if stop_dist is not None:  # the stop test reads it now
                dist_to_ref[n] = row_norm(x - reference)
            if n % per_call == per_call - 1:
                audit_rows(n + 1)

    z = np.zeros(shape)
    x = extract(z)
    if not np.all(np.isfinite(x)):
        raise DivergenceError(f"non-finite x0 at iteration 0 of {config.variant}")
    delta = np.full(lead, math.nan)
    stopped = np.zeros(lead, dtype=bool)
    converged = np.zeros(lead, dtype=bool)
    row_iters = np.full(lead, max_iters)
    # Cycle skip (module docstring): until the loop ends, a cycling row's
    # row_iters is where its z equals z_max_iters; dues holds those iterations.
    period = np.zeros(lead, dtype=int)
    window = CYCLE_WINDOW if max_iters >= 2 * CYCLE_WINDOW else max_iters + 1
    dues = set()
    for n in range(max_iters + 1):
        if n:
            z_new = step(x, z)
            if not np.all(np.isfinite(z_new)):
                raise DivergenceError(f"non-finite iterate at iteration {n} of {config.variant}")
            delta = row_norm(z_new - z)
            if not stopped.any():
                z = z_new
            else:  # stopped rows keep their final point
                z = np.where(stopped[..., None], z, z_new)
            x = extract(z)
        record(n, x, delta)
        met_tol = delta <= tol
        stop = met_tol if stop_dist is None else met_tol | (dist_to_ref[n] <= stop_dist)
        if n >= window:
            bits = z.view(np.int64)
            if n > window:
                hit = (bits == anchor).all(-1)
                if hit.any() and (hit := hit & ~(stopped | stop)).any():
                    period[hit] = n - anchor_n
                    row_iters[hit] = n + (max_iters - n) % period[hit]
                    dues.update(row_iters[hit].tolist())
                if n in dues:
                    stop = stop | (period > 0) & (row_iters == n)
            if n % CYCLE_WINDOW == 0:
                anchor, anchor_n = bits.copy(), n
        if stop.any():
            stop = stop & ~stopped
            stopped |= stop
            converged |= stop & met_tol
            row_iters[stop] = n
            if stopped.all():
                break

    end = written = n + 1
    if period.any() and n < max_iters:  # the next row of a stopped row, which then repeats
        record(n + 1, x, row_norm(step(x, z) - z))
        written += 1
    if audit and written % per_call:
        audit_rows(written)
    if period.any():  # cycling rows reach max_iters: fill every row's columns up to it
        end = max_iters + 1
        lasts = np.where(period > 0, row_iters, min(n + 1, max_iters))
        for b, (p, last) in enumerate(zip(np.maximum(period, 1).flat, lasts.flat)):
            for c in (step_norm, cost, fp_residual, dist_to_ref) if audit else (step_norm,):
                c = c.reshape(len(c), -1)[:, b]  # row b's column, a view
                c[last + 1 : end] = np.resize(c[last - p + 1 : last + 1], end - last - 1)
        row_iters[period > 0] = max_iters
    if not audit:  # the unrecorded columns read as NaN: one read-only view, no memory
        cost = fp_residual = dist_to_ref = np.broadcast_to(math.nan, (end, *lead))
    stop_reason = np.where(converged, "tol", np.where(stopped & (period == 0), "stop_dist", "max_iters"))
    return IterationTrace(
        variant=config.variant,
        alpha=alpha,
        relaxation=config.relaxation,
        max_iters=max_iters,
        tol=tol,
        iterations=np.arange(end),
        cost=cost[:end],
        step_norm=step_norm[:end],
        fp_residual=fp_residual[:end],
        dist_to_ref=dist_to_ref[:end],
        final_x=x,
        final_z=z.copy(),
        converged=converged if lead else bool(converged),
        stop_reason=stop_reason if lead else str(stop_reason),
        row_iters=row_iters if lead else None,
        period=period if lead else int(period),
    )
