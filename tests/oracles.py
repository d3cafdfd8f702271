"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: prox outputs are compared
against dense grid minimization, eigenvalue extremes against characteristic
polynomial roots (Faddeev-LeVerrier coefficients + companion-matrix roots),
gradients against central finite differences, the blocked Lipschitz
sampler against one operator call per point, the staged zone run of a
block against zone runs of one seed alone, and the firm prox against its
formula as it was before the prox kept its step's constants.
"""

import numpy as np

from drsplit import SolverConfig, experiment, run


def grid_minimize(objective, lo, hi, spacing=1e-4, refine=1e-7):
    """Argmin of a scalar function over [lo, hi]: coarse grid, one refinement."""
    z = np.arange(lo, hi + spacing, spacing)
    best = z[np.argmin(objective(z))]
    z = np.arange(best - 2 * spacing, best + 2 * spacing, refine)
    return float(z[np.argmin(objective(z))])


def grid_prox(pointwise_penalty, t, alpha, band_edge):
    """Grid-search prox of a separable penalty at scalar t.

    Searches radius max(2|t|, 2*band_edge) around the origin with spacing
    1e-4, refined once around the best point; band_edge is the |t| past which
    the penalty is constant (tau/rho for the firm penalty).
    """
    radius = max(2.0 * abs(t), 2.0 * band_edge)
    objective = lambda z: (z - t) ** 2 / (2.0 * alpha) + pointwise_penalty(z)
    return grid_minimize(objective, -radius, radius)


def grid_shifted_prox(pointwise_penalty, t, alpha, rho, band_edge):
    """Grid-search prox of penalty + (rho/2) t^2 at scalar t."""
    radius = max(2.0 * abs(t), 2.0 * band_edge)
    objective = lambda z: (z - t) ** 2 / (2.0 * alpha) + pointwise_penalty(z) + 0.5 * rho * z * z
    return grid_minimize(objective, -radius, radius)


def charpoly_coefficients(a):
    """Characteristic polynomial coefficients of a square matrix by the
    Faddeev-LeVerrier trace recursion (leading coefficient first)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def eig_extremes_via_charpoly(a):
    """(min, max) eigenvalue of a symmetric matrix from polynomial roots."""
    roots = np.roots(charpoly_coefficients(a))
    assert np.all(np.abs(roots.imag) < 1e-8 * (1 + np.abs(roots.real)))
    return float(roots.real.min()), float(roots.real.max())


def central_difference_gradient(f, x, step=1e-5):
    """Central finite-difference gradient of a scalar field."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def pointwise_lipschitz(operator, sampler, n_pairs, seed=0):
    """Largest ratio ||Op(x) - Op(y)|| / ||x - y|| over n_pairs sampled pairs,
    with one operator call per point: the loop ``empirical_lipschitz`` ran
    before it applied the operator to blocks of pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    usable = 0
    for _ in range(n_pairs):
        x = np.asarray(sampler(rng), dtype=float)
        y = np.asarray(sampler(rng), dtype=float)
        gap = float(np.linalg.norm(x - y))
        if gap < 1e-12:
            continue
        usable += 1
        ratio = float(np.linalg.norm(np.asarray(operator(x)) - np.asarray(operator(y)))) / gap
        worst = max(worst, ratio)
    if usable == 0:
        raise ValueError("degenerate sampler: all sampled pairs coincide")
    return worst


def zone_stage(inst):
    """Index into ``experiment._ZONE_STAGES`` of the first stage whose zone
    run, made on the seed alone from z0 = 0, the certificate accepts;
    len(_ZONE_STAGES) when none does.  The seed's reference takes one run
    more than this index: a zone run per stage up to the certifying one, or
    every stage and then the ISTA fallback."""
    problem = experiment.block_problem([inst])
    for k, steps in enumerate(experiment._ZONE_STAGES):
        zones = run(problem, SolverConfig("dr-main-fg", max_iters=steps, audit=False)).final_x
        if experiment._certified_minimizer(problem, zones)[1][0]:
            return k
    return len(experiment._ZONE_STAGES)


def firm_prox(x, alpha, tau, rho):
    """The firm threshold with every constant formed on each call and the
    middle band as sign(x) * (|x| - alpha tau) / (1 - alpha rho): the
    formula ``FirmPenalty.prox`` used before it kept its step's constants.
    tau is a scalar or a (B, 1) column."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    middle = np.sign(x) * (a - alpha * tau) / (1.0 - alpha * rho)
    return np.where(a < alpha * tau, 0.0, np.where(a < tau / rho, middle, x))
