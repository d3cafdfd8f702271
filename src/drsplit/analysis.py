"""Closed-form Lipschitz/contraction bounds and empirical validation.

Conventions: s and sigma are the strong-convexity and gradient-Lipschitz
constants of the smooth term, rho the weak-convexity modulus of the penalty,
gamma = s/sigma and eta = rho/sigma.  The rate calculators bound the raw
(unrelaxed) double-reflection operators produced by
``solver.double_reflection``; relaxed iterations inherit the bounds through
averaging but are not rated here.  ``certify`` checks them on the benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

from . import experiment, solver
from .errors import BoundInapplicableError, StepSizeError
from .linalg import row_norm

# Sampled pairs per operator call in empirical_lipschitz.  On a 2-core x86-64
# host (OPENBLAS_NUM_THREADS=1), certify(1000, seed) took 0.82-0.93 s at one
# pair per call and 0.22-0.27 s at 16 to 256, where the per-point sampler
# calls are most of what is left; peak RSS rose 0.3 MB at 64, 1.1 at 128 and
# 2.9 at 256 pairs over one pair per call.
PAIRS_PER_CALL = 64


def reflection_bound_smooth(alpha: float, lo: float, hi: float) -> float:
    """Lipschitz bound of 2*prox_f - I when f has curvature in [lo, hi].

    Equals max(|1 - a*hi|/(1 + a*hi), |1 - a*lo|/(1 + a*lo)); at lo = 0 the
    bound degrades to 1 (mere nonexpansiveness).
    """
    if alpha <= 0:
        raise StepSizeError(f"alpha must be positive, got {alpha}")
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    top = abs(1.0 - alpha * hi) / (1.0 + alpha * hi)
    bottom = abs(1.0 - alpha * lo) / (1.0 + alpha * lo)
    return max(top, bottom)


def reflection_bound_weak(alpha: float, rho: float) -> float:
    """Lipschitz bound (1 + a*rho)/(1 - a*rho) of 2*prox_g - I for a
    rho-weakly convex g; requires alpha * rho < 1."""
    if alpha <= 0:
        raise StepSizeError(f"alpha must be positive, got {alpha}")
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if alpha * rho >= 1.0:
        raise StepSizeError(f"alpha * rho = {alpha * rho:.6g} >= 1: bound diverges")
    return (1.0 + alpha * rho) / (1.0 - alpha * rho)


def contraction_rate_main(alpha: float, s: float, rho: float, sigma: float | None = None) -> float:
    """Contraction factor of the direct double reflection.

    ((1 - a^2 s rho) - a(s - rho)) / ((1 - a^2 s rho) + a(s - rho)), valid
    for alpha <= 1/sqrt(sigma*s) (checked when sigma is given) and rho < s.
    """
    if alpha <= 0:
        raise StepSizeError(f"alpha must be positive, got {alpha}")
    if not 0 <= rho < s:
        raise BoundInapplicableError(f"need 0 <= rho < s, got rho={rho}, s={s}")
    if sigma is not None:
        if sigma < s:
            raise ValueError(f"need sigma >= s, got sigma={sigma}, s={s}")
        if alpha > 1.0 / math.sqrt(sigma * s) * (1 + 1e-12):
            raise BoundInapplicableError(
                f"alpha = {alpha:.6g} exceeds 1/sqrt(sigma*s) = {1.0 / math.sqrt(sigma * s):.6g}"
            )
    quad = 1.0 - alpha * alpha * s * rho
    lin = alpha * (s - rho)
    if quad - lin < -1e-12 * (abs(quad) + lin):
        raise BoundInapplicableError(
            f"alpha = {alpha:.6g} outside the contraction regime for s={s}, rho={rho}"
        )
    return max((quad - lin) / (quad + lin), 0.0)


def contraction_rate_shift(alpha: float, s: float, rho: float, sigma: float) -> float:
    """Contraction factor of the shifted double reflection, valid for
    alpha <= 1/s and rho < s.

    The shifted f has curvature in [s - rho, sigma - rho] and the shifted
    g-reflection is nonexpansive, so the factor is
    reflection_bound_smooth(alpha, s - rho, sigma - rho).
    """
    if alpha <= 0:
        raise StepSizeError(f"alpha must be positive, got {alpha}")
    if not 0 <= rho < s <= sigma:
        raise BoundInapplicableError(f"need 0 <= rho < s <= sigma, got rho={rho}, s={s}, sigma={sigma}")
    if alpha > (1.0 / s) * (1 + 1e-12):
        raise BoundInapplicableError(f"alpha = {alpha:.6g} exceeds 1/s = {1.0 / s:.6g}")
    return reflection_bound_smooth(alpha, s - rho, sigma - rho)


def min_rate_main(gamma: float, eta: float) -> float:
    """contraction_rate_main at its largest admissible step a = 1/sqrt(sigma*s),
    written in the ratios gamma = s/sigma, eta = rho/sigma:

        ((1 - eta) sqrt(gamma) - (gamma - eta)) /
        ((1 - eta) sqrt(gamma) + (gamma - eta)).
    """
    if not 0 <= eta < gamma <= 1:
        raise BoundInapplicableError(f"need 0 <= eta < gamma <= 1, got gamma={gamma}, eta={eta}")
    root = math.sqrt(gamma)
    num = (1.0 - eta) * root - (gamma - eta)
    den = (1.0 - eta) * root + (gamma - eta)
    return num / den


def shift_rate_floor(eta: float) -> float:
    """Lower bound eta / (2 - eta) on the shifted rate at a = 1/s; independent
    of the conditioning of the smooth term."""
    if not 0 <= eta <= 1:
        raise BoundInapplicableError(f"need 0 <= eta <= 1, got {eta}")
    return eta / (2.0 - eta)


def empirical_lipschitz(operator, sampler, n_pairs: int, seed: int = 0) -> float:
    """Largest sampled ratio ||Op(x) - Op(y)|| / ||x - y|| over n_pairs draws.

    ``sampler(rng)`` is called once per point, x then y of each pair, and
    returns a point of the operator's domain: a vector (n,), or any array of
    at least one dimension (norms then run over all its entries).  Pairs
    closer than 1e-12 are skipped.  The operator is applied to up to
    PAIRS_PER_CALL pairs at a time, as one (2k, n) stack of their points, so
    it must map such a stack row by row, each row to what it maps that point
    to alone.  ``double_reflection`` and the reflections of the stock proxes
    do, with the same bits, so the result equals that of one call per point.
    Raises ValueError for a 0-d sample, for an operator output whose shape
    differs from its input, when every pair coincides, and when usable pairs
    give non-finite ratios (the message counts them).
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    first = np.asarray(sampler(rng), dtype=float)
    if first.ndim == 0:
        raise ValueError(f"sampler returned shape {first.shape}; a point needs at least one dimension")
    shape = first.shape
    points = np.empty((2 * min(n_pairs, PAIRS_PER_CALL), *shape))  # pair i: x at row 2i, y at row 2i + 1
    points[0] = first
    drawn = 1
    worst, usable, nonfinite = 0.0, 0, 0
    for start in range(0, n_pairs, PAIRS_PER_CALL):
        k = min(PAIRS_PER_CALL, n_pairs - start)
        for i in range(drawn, 2 * k):
            points[i] = sampler(rng)
        drawn = 0
        pairs = points[: 2 * k].reshape(k, 2, -1)
        gap = row_norm(pairs[:, 0] - pairs[:, 1])
        keep = ~(gap < 1e-12)  # a NaN gap is kept: it gives a non-finite ratio
        if not keep.all():
            pairs, gap = pairs[keep], gap[keep]
        m = len(gap)
        if not m:
            continue
        usable += m
        stack = pairs.reshape(2 * m, *shape)
        out = np.asarray(operator(stack), dtype=float)
        if out.shape != stack.shape:
            raise ValueError(f"operator mapped a stack of shape {stack.shape} to shape {out.shape}")
        out = out.reshape(m, 2, -1)
        ratio = row_norm(out[:, 0] - out[:, 1]) / gap
        top = float(ratio.max())
        if not math.isfinite(top):
            nonfinite += int(np.count_nonzero(~np.isfinite(ratio)))
        worst = max(worst, top)
    if usable == 0:
        raise ValueError("degenerate sampler: all sampled pairs coincide")
    if nonfinite:
        raise ValueError(f"non-finite ratio on {nonfinite} of {usable} usable pairs")
    return worst


def certify(pairs: int, seed: int) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of the empirical-vs-theoretical Lipschitz checks
    on instance ``derive_seeds(seed, 1)[0]`` of EXP1 (nonexpansiveness of both
    direct orders at their step bound) and of EXP2 (weak reflection bound
    attained, direct and shifted rates dominate).  Each empirical constant
    samples ``pairs`` pairs (at least 10000 for the scalar reflection)."""
    checks = []
    instance_seed = experiment.derive_seeds(seed, 1)[0]

    def vec_sampler(dim, radius):
        return lambda rng: rng.normal(size=dim) * rng.uniform(0.0, radius)

    inst1 = experiment.build_instance(experiment.EXP1, seed=instance_seed)
    prob1 = inst1.problem()
    _, sigma1 = inst1.operator.gram_extremes()
    radius1 = 3.0 * inst1.penalty.tau / inst1.penalty.rho
    for variant in ("dr-main-fg", "dr-main-gf"):
        op = solver.double_reflection(prob1, solver.step_bound(variant, sigma1, prob1.rho), variant)
        emp = empirical_lipschitz(op, vec_sampler(prob1.dim, radius1), pairs, seed)
        checks.append((f"nonexpansive {variant} (ratio 15.96)", emp <= 1.0 + 1e-12, f"empirical={emp:.12f} bound=1"))

    inst2 = experiment.build_instance(experiment.EXP2, seed=instance_seed)
    prob2 = inst2.problem()
    s2, sigma2 = inst2.operator.gram_extremes()
    penalty, rho2 = inst2.penalty, prob2.rho
    alpha_t = 1.0 / math.sqrt(sigma2 * s2)
    radius2 = 3.0 * penalty.tau / penalty.rho
    weak = lambda t: solver.reflect(penalty.prox, t, alpha_t)
    emp = empirical_lipschitz(weak, lambda rng: rng.uniform(-radius2, radius2, size=1), max(pairs, 10000), seed)
    bound = reflection_bound_weak(alpha_t, rho2)
    detail = f"empirical={emp:.12f} bound={bound:.12f}"
    checks.append(("weak reflection bound attained", 0.99 * bound <= emp <= bound + 1e-9, detail))

    # Each rate holds up to its largest step: 1/sqrt(sigma*s) direct, 1/s shifted.
    for name, variant, alpha, rate in (
        ("direct rate dominates", "dr-main-fg", alpha_t, contraction_rate_main(alpha_t, s2, rho2, sigma2)),
        ("shifted rate dominates", "dr-shift-fg", 1.0 / s2, contraction_rate_shift(1.0 / s2, s2, rho2, sigma2)),
    ):
        op = solver.double_reflection(prob2, alpha, variant)
        emp = empirical_lipschitz(op, vec_sampler(prob2.dim, radius2), pairs, seed)
        checks.append((name, emp <= rate + 1e-9, f"empirical={emp:.12f} rate={rate:.12f}"))
    return checks


def rate_table(s: float, sigma: float, rho: float, alphas) -> list[dict]:
    """Rows of {alpha, main_rate, shift_rate} over an alpha grid; rates are
    None where the corresponding formula does not apply."""
    rows = []
    for alpha in alphas:
        try:
            main = contraction_rate_main(alpha, s, rho, sigma)
        except (BoundInapplicableError, StepSizeError):
            main = None
        try:
            shift = contraction_rate_shift(alpha, s, rho, sigma)
        except (BoundInapplicableError, StepSizeError):
            shift = None
        rows.append({"alpha": float(alpha), "main_rate": main, "shift_rate": shift})
    return rows


def write_rate_table_csv(path, rows) -> None:
    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    with open(path, "w") as fh:
        fh.write("alpha,main_rate,shift_rate\n")
        for row in rows:
            fh.write(f"{row['alpha']:.17g},{fmt(row['main_rate'])},{fmt(row['shift_rate'])}\n")
