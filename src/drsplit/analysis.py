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
from .errors import BoundInapplicableError, StepSizeError, check_prox_step, is_integer
from .linalg import row_norm, rows_per_call


def reflection_bound_smooth(alpha: float, lo: float, hi: float) -> float:
    """Lipschitz bound of 2*prox_f - I when f has curvature in [lo, hi].

    Equals max(|1 - a*hi|/(1 + a*hi), |1 - a*lo|/(1 + a*lo)); at lo = 0 the
    bound degrades to 1 (mere nonexpansiveness).
    """
    check_prox_step(alpha)
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if not hi < math.inf:
        raise ValueError(f"hi must be finite, got {hi}")
    top = abs(1.0 - alpha * hi) / (1.0 + alpha * hi)
    bottom = abs(1.0 - alpha * lo) / (1.0 + alpha * lo)
    return max(top, bottom)


def reflection_bound_weak(alpha: float, rho: float) -> float:
    """Lipschitz bound (1 + a*rho)/(1 - a*rho) of 2*prox_g - I for a
    rho-weakly convex g; requires alpha * rho < 1."""
    check_prox_step(alpha, rho)
    return (1.0 + alpha * rho) / (1.0 - alpha * rho)


def contraction_rate_main(alpha: float, s: float, rho: float, sigma: float | None = None) -> float:
    """Contraction factor of the direct double reflection.

    ((1 - a^2 s rho) - a(s - rho)) / ((1 - a^2 s rho) + a(s - rho)), valid
    for alpha <= 1/sqrt(sigma*s) (checked when sigma is given) and rho < s.
    """
    check_prox_step(alpha)
    if not 0 <= rho < s:
        raise BoundInapplicableError(f"need 0 <= rho < s, got rho={rho}, s={s}")
    if not s < math.inf:
        raise ValueError(f"s must be finite, got {s}")
    if sigma is not None:
        if not sigma >= s:
            raise ValueError(f"need sigma >= s, got sigma={sigma}, s={s}")
        if not alpha <= 1.0 / math.sqrt(sigma * s) * (1 + 1e-12):
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
    check_prox_step(alpha)
    if not 0 <= rho < s <= sigma:
        raise BoundInapplicableError(f"need 0 <= rho < s <= sigma, got rho={rho}, s={s}, sigma={sigma}")
    if not sigma < math.inf:
        raise ValueError(f"sigma must be finite, got {sigma}")
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


def _usable_pairs(points, k: int):
    """The (2m, *shape) stack of the m pairs of a drawn block whose points
    are at least 1e-12 apart, x then y of each pair, and their gaps."""
    points = np.asarray(points, dtype=float)  # pair i: x at row 2i, y at row 2i + 1
    if points.ndim < 2 or len(points) != 2 * k:
        raise ValueError(f"draw returned shape {points.shape} for {2 * k} points; need ({2 * k}, *point shape)")
    pairs = points.reshape(k, 2, -1)
    gap = row_norm(pairs[:, 0] - pairs[:, 1])
    keep = ~(gap < 1e-12)  # a NaN gap is kept: it gives a non-finite ratio
    if not keep.all():
        pairs, gap = pairs[keep], gap[keep]
    return pairs.reshape(2 * len(gap), *points.shape[1:]), gap


def _check_pairs(n_pairs: int) -> None:
    if not is_integer(n_pairs):
        raise ValueError(f"n_pairs must be an integer, got {n_pairs!r}")
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")


def _sampled_lipschitz(operators, draw, n_pairs: int, rng, numbers: int) -> list[float]:
    """The engine of ``empirical_lipschitz`` for several operators at once,
    which draws a block at a time from the generator rng: ``draw(rng, 2k)``
    returns one (2k, *shape) array per operator, the points of the next
    k <= ``rows_per_call(2 * numbers)`` pairs, x then y of each pair, where
    ``numbers`` counts the numbers in one point (48 pairs of 90-number
    points, 4320 of 1-number points), and is asked for 2 * n_pairs points
    in all.  Returns each operator's constant, as ``empirical_lipschitz``
    would for it alone: the constant is a max over pairs drawn in sequence,
    so no block size moves it.  Raises ValueError for a draw of another row
    count or of fewer than two dimensions, and otherwise as
    ``empirical_lipschitz`` does, for the first operator in the list whose
    pairs all coincide or give a non-finite ratio.
    """
    _check_pairs(n_pairs)
    n = len(operators)
    worst, usable, nonfinite = [0.0] * n, [0] * n, [0] * n
    per_call = rows_per_call(2 * numbers)
    for start in range(0, n_pairs, per_call):
        k = min(per_call, n_pairs - start)
        blocks = draw(rng, 2 * k)
        for j, (operator, points) in enumerate(zip(operators, blocks, strict=True)):
            stack, gap = _usable_pairs(points, k)
            m = len(gap)
            if not m:
                continue
            usable[j] += m
            out = np.asarray(operator(stack), dtype=float)
            if out.shape != stack.shape:
                raise ValueError(f"operator mapped a stack of shape {stack.shape} to shape {out.shape}")
            out = out.reshape(m, 2, -1)
            ratio = row_norm(out[:, 0] - out[:, 1]) / gap
            top = float(ratio.max())
            if not math.isfinite(top):
                nonfinite[j] += int(np.count_nonzero(~np.isfinite(ratio)))
            worst[j] = max(worst[j], top)
    for count, bad in zip(usable, nonfinite):
        if count == 0:
            raise ValueError("degenerate sampler: all sampled pairs coincide")
        if bad:
            raise ValueError(f"non-finite ratio on {bad} of {count} usable pairs")
    return worst


def empirical_lipschitz(operator, sampler, n_pairs: int, seed: int = 0) -> float:
    """Largest sampled ratio ||Op(x) - Op(y)|| / ||x - y|| over n_pairs draws.

    ``sampler(rng)`` is called once per point, x then y of each pair, and
    returns a point of the operator's domain: a vector (n,), or any array of
    at least one dimension (norms then run over all its entries).  Pairs
    closer than 1e-12 are skipped.  The operator is applied to up to
    ``linalg.rows_per_call(2 * size)`` pairs at a time, size the numbers in
    the sampler's first point (48 pairs of 90-number points, two points per
    pair within ``linalg.STACK_NUMBERS``), as one (2k, n) stack of their
    points, so it must map such a stack row by row, each row to what it maps
    that point to alone.  ``double_reflection`` and the reflections of the
    stock proxes do, with the same bits, so the result equals that of one
    call per point.  Raises ValueError for an n_pairs that is not an integer
    >= 1, for a 0-d sample, for an operator output whose shape differs from
    its input, when every pair coincides, and when usable pairs give
    non-finite ratios (the message counts them).
    It is the engine ``_sampled_lipschitz`` run on one operator; ``certify``
    runs that engine directly, drawing each block once for its four vector
    checks and once for its scalar check.
    """
    _check_pairs(n_pairs)
    rng = np.random.default_rng(seed)
    first = np.asarray(sampler(rng), dtype=float)
    if first.ndim == 0:
        raise ValueError(f"sampler returned shape {first.shape}; a point needs at least one dimension")
    pending = [first]  # drawn already, to size the blocks

    def draw(rng, count: int):
        points = np.empty((count, *first.shape))
        for i in range(count):
            points[i] = pending.pop() if pending else sampler(rng)
        return (points,)

    return _sampled_lipschitz((operator,), draw, n_pairs, rng, first.size)[0]


def certify(pairs: int, seed: int) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of the empirical-vs-theoretical Lipschitz checks
    on instance ``derive_seeds(seed, 1)[0]`` of EXP1 (nonexpansiveness of both
    direct orders at their step bound) and of EXP2 (weak reflection bound
    attained, direct and shifted rates dominate).  Each empirical constant
    samples ``pairs`` pairs (at least 10000 for the scalar reflection).

    The four vector checks run as one engine call on the same points: a
    standard normal vector times a uniform factor in [0, radius), with the
    radius of the check's experiment.  Each block draws every point's normal
    row and factor once, with ``standard_normal`` and then ``random``, the
    stream order of the per-point sampler ``standard_normal(n) * (radius *
    random())``, and scales them by each radius, which gives that sampler's
    bits for both experiments.  numpy computes ``normal(size=n)`` and
    ``uniform(0.0, radius)`` as 0.0 + 1.0 * z and 0.0 + radius * u from the
    same stream, so these are also the bits of ``normal(size=n) *
    uniform(0.0, radius)``.  Blocks are sized by ``linalg.STACK_NUMBERS``:
    48 pairs of 90-number points for the vector checks, 4320 pairs of
    1-number points for the scalar one.
    """
    instance_seed = experiment.derive_seeds(seed, 1)[0]

    def stock(spec):
        """spec's problem, (s, sigma) and sampling radius."""
        inst = experiment.build_instance(spec, seed=instance_seed)
        return inst.problem(), inst.operator.gram_extremes(), 3.0 * inst.penalty.tau / inst.penalty.rho

    prob1, (_, sigma1), radius1 = stock(experiment.EXP1)
    prob2, (s2, sigma2), radius2 = stock(experiment.EXP2)
    if prob1.dim != prob2.dim:
        raise ValueError(f"certify draws one point set for both EXP1 (dim {prob1.dim}) and EXP2 (dim {prob2.dim})")
    penalty, rho2 = prob2.penalty, prob2.rho
    alpha_t = 1.0 / math.sqrt(sigma2 * s2)

    def vector_draw(rng, count: int):
        normals, factors = np.empty((count, prob1.dim)), np.empty((count, 1))
        for i in range(count):
            rng.standard_normal(out=normals[i])
            factors[i] = rng.random()
        points1, points2 = normals * (radius1 * factors), normals * (radius2 * factors)
        return points1, points1, points2, points2

    # Each rate holds up to its largest step: 1/sqrt(sigma*s) direct, 1/s shifted.
    rated = (
        ("direct rate dominates", "dr-main-fg", alpha_t, contraction_rate_main(alpha_t, s2, rho2, sigma2)),
        ("shifted rate dominates", "dr-shift-fg", 1.0 / s2, contraction_rate_shift(1.0 / s2, s2, rho2, sigma2)),
    )
    nonexpansive = ("dr-main-fg", "dr-main-gf")
    operators = [solver.double_reflection(prob1, solver.step_bound(v, sigma1, prob1.rho), v) for v in nonexpansive]
    operators += [solver.double_reflection(prob2, alpha, variant) for _, variant, alpha, _ in rated]
    emps = _sampled_lipschitz(operators, vector_draw, pairs, np.random.default_rng(seed), prob1.dim)

    checks = [
        (f"nonexpansive {variant} (ratio 15.96)", emp <= 1.0 + 1e-12, f"empirical={emp:.12f} bound=1")
        for variant, emp in zip(nonexpansive, emps[:2])
    ]
    weak = lambda t: solver.reflect(penalty.prox, t, alpha_t)
    # One uniform call per block draws the bits of one size=1 call per point:
    # 4320 pairs of 1-number points a block, 3 blocks for 10000 pairs.
    scalar_draw = lambda rng, count: (rng.uniform(-radius2, radius2, size=(count, 1)),)
    (emp,) = _sampled_lipschitz((weak,), scalar_draw, max(pairs, 10000), np.random.default_rng(seed), 1)
    bound = reflection_bound_weak(alpha_t, rho2)
    detail = f"empirical={emp:.12f} bound={bound:.12f}"
    checks.append(("weak reflection bound attained", 0.99 * bound <= emp <= bound + 1e-9, detail))
    for (name, _, _, rate), emp in zip(rated, emps[2:]):
        checks.append((name, emp <= rate + 1e-9, f"empirical={emp:.12f} rate={rate:.12f}"))
    return checks


def rate_table(s: float, sigma: float, rho: float, alphas) -> list[dict]:
    """Rows of {alpha, main_rate, shift_rate} over an alpha grid; rates are
    None where the corresponding formula does not apply."""

    def rate(formula, alpha):
        try:
            return formula(alpha, s, rho, sigma)
        except (BoundInapplicableError, StepSizeError):
            return None

    return [
        {"alpha": float(a), "main_rate": rate(contraction_rate_main, a), "shift_rate": rate(contraction_rate_shift, a)}
        for a in alphas
    ]


def write_rate_table_csv(path, rows) -> None:
    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    with open(path, "w") as fh:
        fh.write("alpha,main_rate,shift_rate\n")
        for row in rows:
            fh.write(f"{row['alpha']:.17g},{fmt(row['main_rate'])},{fmt(row['shift_rate'])}\n")
