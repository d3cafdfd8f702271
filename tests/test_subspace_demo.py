"""The subspace-constrained demo, split as the paper poses its modified DR:
f = 0.5||y - x||^2 + i_K, strongly convex (s = 1) with no gradient, and
g = phi, a firm penalty of modulus rho.

Only the shifted variants run it: they shift by rho > 0 and reach the
closed-form minimizer, while dr-main, whose step gate needs the gradient
Lipschitz constant of f, refuses it.  Nothing here depends on the BLAS
build (every operation on the demo is elementwise), so these checks hold
at every numpy that pyproject.toml allows.
"""

import numpy as np
import pytest

from drsplit import FirmPenalty, SolverConfig, StepSizeError, build_subspace_demo, double_reflection, run
from drsplit.solver import default_alpha

RHOS = [0.5, 0.9]


def demo(rho):
    y = np.random.default_rng(6).normal(0.0, 2.0, size=16)
    return build_subspace_demo(y, range(8), FirmPenalty(1.0, rho))


@pytest.mark.parametrize("variant", ["dr-shift-fg", "dr-shift-gf"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, None], ids=["0.5", "1.0", "default"])
@pytest.mark.parametrize("rho", RHOS)
def test_shifted_variants_reach_the_oracle(rho, alpha, variant):
    problem, oracle = demo(rho)
    # The shift is phi's modulus, against f's s = 1: a shift by rho > 0.
    assert (problem.rho, problem.strong_convexity, problem.grad_lipschitz) == (rho, 1.0, None)
    trace = run(problem, SolverConfig(variant, alpha=alpha, max_iters=2000, tol=1e-14))
    if alpha is None:  # the bound 1/rho, as f has no sigma to rate the step by
        assert trace.config.alpha == default_alpha(problem, variant) == 0.99 * (1.0 / rho)
    assert trace.stop_reason == "tol"
    assert np.max(np.abs(trace.final_x - oracle)) <= 1e-12
    assert trace.final_cost == pytest.approx(float(problem.cost(oracle)), rel=1e-14)


@pytest.mark.parametrize("order", ["fg", "gf"])
@pytest.mark.parametrize("rho", RHOS)
def test_dr_main_is_refused_at_its_step_gate(rho, order):
    # dr-main's gate alpha <= 1/sqrt(sigma rho) needs f's sigma, which a
    # nonsmooth f lacks; dr-shift's strict gate alpha rho < 1 does not.
    problem, _ = demo(rho)
    for alpha in (None, 0.5, 1.0):
        with pytest.raises(StepSizeError, match=f"dr-main-{order} needs the gradient Lipschitz constant"):
            run(problem, SolverConfig(f"dr-main-{order}", alpha=alpha, max_iters=5))
    assert default_alpha(problem, f"dr-shift-{order}") == 0.99 * (1.0 / rho)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("rho", RHOS)
def test_shifted_reflection_differs_from_the_plain_one(rho, alpha):
    # The shift acts on both proxes, so on a sampled point the two double
    # reflections part: dr-shift's f-side prox divides by 1 + alpha(1 - rho),
    # dr-main's by 1 + alpha, on every coordinate of K.
    problem, _ = demo(rho)
    z = np.random.default_rng(11).normal(0.0, 3.0, size=(50, 16))
    shifted = double_reflection(problem, alpha, "dr-shift-fg")(z)
    plain = double_reflection(problem, alpha, "dr-main-fg")(z)
    gap = np.max(np.abs(shifted - plain), axis=-1)
    assert np.all(gap > 1e-3), gap.min()
