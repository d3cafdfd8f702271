"""Per-call timings of single layers on one fixed EXP2 instance (n = 90).

Each figure is the median over repeats of the mean time of a batch of
calls, at quiet-host speed (see hostspeed.py).  The instance, step sizes
and inputs are fixed, so these numbers do not depend on the workload seed;
they give every traced run the same per-layer baseline whichever workload
it drives.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import hostspeed
from drsplit import analysis, experiment, linalg, smooth, solver

REPEATS = 7
FIXED_SEED = 0
SCALAR_PAIRS = 2000
VECTOR_PAIRS = 200


def per_call(fn, batch: int, setup=None) -> float:
    """Median over REPEATS of the seconds per call of ``fn`` in a batch of calls.

    With ``setup``, each call gets its own fresh argument built outside the
    timed loop (for first-call costs such as a factorization).
    """
    samples = []
    for _ in range(REPEATS):
        args = [setup() for _ in range(batch)] if setup else None
        t0 = time.perf_counter()
        if args is None:
            for _ in range(batch):
                fn()
        else:
            for a in args:
                fn(a)
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def measure(workdir) -> dict:
    """Per-layer per-call figures, keyed by metric name (values in the metric's unit)."""
    inst = experiment.build_instance(experiment.EXP2, seed=FIXED_SEED)
    problem = inst.problem()
    f, g = problem.smooth, problem.penalty
    s, sigma = inst.operator.gram_extremes()
    rho = problem.rho
    alpha_main = 0.99 / math.sqrt(sigma * rho)
    alpha_shift = 0.99 / rho
    rng = np.random.default_rng(FIXED_SEED)
    z = rng.normal(size=problem.dim) * (3.0 * g.tau / g.rho)
    z1 = z[:1].copy()
    x = g.prox(z, alpha_main)
    x_ref = x + 1e-3
    audit_alpha = 1.0 / sigma
    op = solver.double_reflection(problem, alpha_main, "dr-main-fg")
    f.prox(z, alpha_main)  # warm the factorization used by the warm-prox figures
    f.shifted_prox(z, alpha_shift, rho)

    trace = solver.run(problem, solver.SolverConfig("dr-main-fg", tol=1e-9, max_iters=5000))
    csv_path = workdir / "micro_trace.csv"
    json_path = workdir / "micro_instance.json"
    inst.save(json_path)

    alpha_t = 1.0 / math.sqrt(sigma * s)
    radius = 3.0 * g.tau / g.rho
    weak_reflection = lambda v: 2.0 * g.prox(v, alpha_t) - v
    scalar_sampler = lambda r: r.uniform(-radius, radius, size=1)
    vector_sampler = lambda r: r.normal(size=problem.dim) * r.uniform(0.0, radius)

    def audit():
        problem.cost(x)
        problem.fixed_point_residual(x, audit_alpha)
        np.linalg.norm(x - x_ref)

    us, ms = 1e6, 1e3
    timings = {  # metric -> (metric units per second, seconds per call)
        "linalg.gram_extremes.us": (
            us, lambda: per_call(lambda m: m.gram_extremes(), 20, setup=lambda: linalg.LinearMap(inst.operator.matrix))
        ),
        "linalg.convolution_matrix.us": (
            us, lambda: per_call(lambda: linalg.convolution_matrix(inst.filter_taps, problem.dim), 200)
        ),
        "penalty.prox.us": (us, lambda: per_call(lambda: g.prox(z, alpha_main), 2000)),
        "penalty.shifted_prox.us": (us, lambda: per_call(lambda: g.shifted_prox(z, alpha_main), 2000)),
        "penalty.prox_scalar.us": (us, lambda: per_call(lambda: g.prox(z1, alpha_t), 2000)),
        "smooth.prox.us": (us, lambda: per_call(lambda: f.prox(z, alpha_main), 1000)),
        "smooth.shifted_prox.us": (us, lambda: per_call(lambda: f.shifted_prox(z, alpha_shift, rho), 1000)),
        "smooth.factor.us": (
            us,
            lambda: per_call(lambda t: t.prox(z, alpha_main), 50, setup=lambda: smooth.QuadraticTerm(inst.operator, inst.y)),
        ),
        "smooth.grad.us": (us, lambda: per_call(lambda: f.grad(x), 2000)),
        "smooth.value.us": (us, lambda: per_call(lambda: f.value(x), 2000)),
        "solver.double_reflection.us": (us, lambda: per_call(lambda: op(z), 500)),
        "solver.ista_step.us": (us, lambda: per_call(lambda: solver.ista_step(problem, x, audit_alpha), 500)),
        "solver.cost.us": (us, lambda: per_call(lambda: problem.cost(x), 1000)),
        "solver.fp_residual.us": (us, lambda: per_call(lambda: problem.fixed_point_residual(x, audit_alpha), 1000)),
        "solver.audit.us": (us, lambda: per_call(audit, 500)),
        "solver.to_csv.ms": (ms, lambda: per_call(lambda: trace.to_csv(csv_path), 10)),
        "experiment.load.ms": (ms, lambda: per_call(lambda: experiment.ProblemInstance.load(json_path), 10)),
        "analysis.empirical_lipschitz.s": (
            1.0,
            lambda: per_call(
                lambda: analysis.empirical_lipschitz(weak_reflection, scalar_sampler, SCALAR_PAIRS, FIXED_SEED), 1
            ),
        ),
        "analysis.vector_pair.s": (
            1.0,
            lambda: per_call(lambda: analysis.empirical_lipschitz(op, vector_sampler, VECTOR_PAIRS, FIXED_SEED), 1)
            / VECTOR_PAIRS,
        ),
    }
    # Each figure is scaled to quiet-host speed by kernel samples taken just
    # before and just after it.
    out = {}
    kernel = hostspeed.kernel_seconds()
    for name, (unit, timed) in timings.items():
        seconds = timed()
        after = hostspeed.kernel_seconds()
        out[name] = unit * hostspeed.scale(seconds, 0.5 * (kernel + after))
        kernel = after
    out["analysis.pairs_per_s"] = 1.0 / out.pop("analysis.vector_pair.s")
    return out
