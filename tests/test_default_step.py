"""The default step of each variant, and what the shifted one buys.

Without a fraction, ``default_alpha`` gives a dr-shift variant with
0 < rho < s <= sigma the step that minimizes its certified rate
``contraction_rate_shift`` on (0, 1/s]; every other case keeps 0.99 x the
step bound (1/sigma for ista and for an unbounded step).
"""

import dataclasses
import math
import types

import numpy as np
import pytest

from drsplit import (
    EXP1,
    EXP2,
    Problem,
    SolverConfig,
    build_instance,
    contraction_rate_shift,
    reflection_bound_smooth,
    run,
    step_bound,
)
from drsplit.experiment import derive_seeds
from drsplit.solver import DR_VARIANTS, default_alpha

SHIFTED = ("dr-shift-fg", "dr-shift-gf")


def curvature_problem(s, sigma, rho):
    """A problem that carries only the constants default_alpha reads."""
    smooth = types.SimpleNamespace(strong_convexity=s, grad_lipschitz=sigma)
    return Problem(smooth, types.SimpleNamespace(modulus=rho))


def constants(problem):
    return problem.strong_convexity, problem.grad_lipschitz, problem.rho


@pytest.fixture(scope="module", params=["exp2", "exp1-rho-0.9", "capped-at-1/s"])
def rated_problem(request):
    if request.param == "exp2":
        return build_instance(EXP2, derive_seeds(0, 1)[0]).problem()
    if request.param == "exp1-rho-0.9":
        return build_instance(dataclasses.replace(EXP1, rho_rule=0.9), derive_seeds(0, 1)[0]).problem()
    # (s - rho)(sigma - rho) < s^2: the unconstrained minimizer lies past 1/s.
    return curvature_problem(1.0, 1.2, 0.9)


@pytest.mark.parametrize("variant", SHIFTED)
def test_shifted_default_minimizes_the_certified_rate(rated_problem, variant):
    s, sigma, rho = constants(rated_problem)
    alpha = default_alpha(rated_problem, variant)
    assert 0 < alpha <= 1.0 / s and alpha * rho < 1.0
    best = contraction_rate_shift(alpha, s, rho, sigma)
    for step in np.linspace(1.0 / s / 200, 1.0 / s, 200).tolist():
        assert best <= contraction_rate_shift(step, s, rho, sigma) + 1e-12, step


def test_capped_default_is_one_over_s():
    problem = curvature_problem(1.0, 1.2, 0.9)
    assert default_alpha(problem, "dr-shift-fg") == 1.0


def test_exp2_default_and_its_rate():
    problem = build_instance(EXP2, derive_seeds(0, 1)[0]).problem()
    s, sigma, rho = constants(problem)
    alpha = default_alpha(problem, "dr-shift-fg")
    assert alpha == 1.0 / math.sqrt((s - rho) * (sigma - rho))
    assert alpha * rho == pytest.approx(0.318, abs=1e-3)
    assert contraction_rate_shift(alpha, s, rho, sigma) == pytest.approx(0.518, abs=1e-3)
    # 0.99/rho lies past 1/s, where the formula certifies nothing.
    assert 0.99 / rho > 1.0 / s
    assert reflection_bound_smooth(0.99 / rho, s - rho, sigma - rho) == pytest.approx(0.815, abs=1e-3)


def keeps_fraction(problem, variant):
    """The default equals 0.99 x the bound, the default without the rate rule."""
    bound = step_bound(variant, problem.grad_lipschitz, problem.rho)
    alpha = default_alpha(problem, variant)
    return alpha == 0.99 * bound == default_alpha(problem, variant, 0.99)


@pytest.mark.parametrize("variant", DR_VARIANTS)
def test_stock_exp1_keeps_its_step(exp1_problem, variant):
    assert exp1_problem.rho == exp1_problem.strong_convexity
    assert keeps_fraction(exp1_problem, variant)


@pytest.mark.parametrize("variant", ("dr-main-fg", "dr-main-gf"))
def test_main_variants_keep_their_step(exp2_problem, variant):
    assert keeps_fraction(exp2_problem, variant)


def test_ista_keeps_one_over_sigma(exp2_problem):
    assert default_alpha(exp2_problem, "ista") == 1.0 / exp2_problem.grad_lipschitz


@pytest.mark.parametrize("variant", SHIFTED)
def test_zero_modulus_keeps_one_over_sigma(variant):
    assert default_alpha(curvature_problem(1.0, 4.0, 0.0), variant) == 0.25


@pytest.mark.parametrize("variant", SHIFTED)
@pytest.mark.parametrize("s, sigma", [(2.0, None), (None, 4.0), (None, None)])
def test_a_missing_constant_keeps_the_fraction(variant, s, sigma):
    assert keeps_fraction(curvature_problem(s, sigma, 0.5), variant)


@pytest.mark.parametrize("variant", SHIFTED)
def test_rho_within_rounding_of_s_keeps_the_fraction(variant):
    # rho < s, yet (1/s) * rho rounds to 1: that step would fail the strict gate.
    s = 57.90813051929838
    rho = float(np.nextafter(s, 0.0))
    assert rho < s and (1.0 / s) * rho == 1.0
    problem = curvature_problem(s, 4.0 * s, rho)
    assert keeps_fraction(problem, variant)
    assert default_alpha(problem, variant) * rho < 1.0


@pytest.fixture(scope="module")
def exp2_solves():
    """Ten EXP2 instances solved to tol 1e-9: dr-main-fg, and each shifted
    order at its default step and at 0.99/rho."""
    solves = []
    for seed in derive_seeds(0, 10):
        problem = build_instance(EXP2, seed).problem()
        solve = lambda variant, alpha=None: run(problem, SolverConfig(variant, alpha=alpha, max_iters=5000, tol=1e-9))
        main = solve("dr-main-fg")
        for variant in SHIFTED:
            solves.append((main, solve(variant), solve(variant, default_alpha(problem, variant, 0.99))))
    return solves


def test_shifted_default_converges_in_fewer_iterations(exp2_solves):
    for main, fast, slow in exp2_solves:
        assert fast.converged and slow.converged and main.converged
        assert fast.n_iters < slow.n_iters, fast.config.variant
        assert fast.fp_residual[-1] <= 1e-8
        assert np.max(np.abs(fast.final_x - main.final_x)) <= 1e-6


def test_shifted_default_saves_more_than_half_the_iterations(exp2_solves):
    fast = sum(f.n_iters for _, f, _ in exp2_solves)
    slow = sum(s.n_iters for _, _, s in exp2_solves)
    assert fast < 0.5 * slow
