"""Property tests on random small instances: the certified rate
inequalities, the firm and soft proxes and the subspace term's plain and
shifted proxes against grid oracles, and the shifted-prox rescaling identity
of smooth terms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_minimize, grid_prox, grid_shifted_prox

from drsplit import (
    FirmPenalty,
    LinearMap,
    Problem,
    QuadraticTerm,
    SubspaceConstraint,
    contraction_rate_main,
    contraction_rate_shift,
    double_reflection,
    empirical_lipschitz,
)

PAIRS = 200


@st.composite
def instances(draw):
    """(problem, s, sigma, rho, tau): H is m x n with m > n, rho in [0, s)."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n + 1, n + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    operator = LinearMap(rng.normal(size=(m, n)))
    s, sigma = operator.gram_extremes()
    rho = s * draw(st.floats(0.0, 0.999999) | st.just(0.999999))
    tau = draw(st.floats(0.1, 2.0))
    return Problem(QuadraticTerm(operator, rng.normal(size=m)), FirmPenalty(tau, rho)), s, sigma, rho, tau


def worst_ratio(problem, alpha, variant, s, rho, tau):
    # Draws reach past the firm penalty's knee tau/rho, where its prox turns
    # into the identity, unless rho is tiny and the knee far out.
    radius = 3.0 * tau / max(rho, 0.1 * s)
    sampler = lambda rng: rng.normal(size=problem.dim) * rng.uniform(0.0, radius)
    return empirical_lipschitz(double_reflection(problem, alpha, variant), sampler, PAIRS, seed=0)


# Fractions of the largest step each rate formula admits, the edge included.
STEP_FRACTION = st.floats(1e-6, 1.0) | st.just(1.0)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(instances(), STEP_FRACTION)
def test_direct_rate_bounds_the_direct_operator(instance, fraction):
    problem, s, sigma, rho, tau = instance
    alpha = fraction / math.sqrt(sigma * s)
    rate = contraction_rate_main(alpha, s, rho, sigma)
    assert worst_ratio(problem, alpha, "dr-main-fg", s, rho, tau) <= rate + 1e-9


@settings(max_examples=100, derandomize=True, deadline=None)
@given(instances(), STEP_FRACTION)
def test_shifted_rate_bounds_the_shifted_operator(instance, fraction):
    problem, s, sigma, rho, tau = instance
    alpha = fraction / s
    rate = contraction_rate_shift(alpha, s, rho, sigma)
    assert worst_ratio(problem, alpha, "dr-shift-fg", s, rho, tau) <= rate + 1e-9


# Fractions of the gate edge alpha*rho < 1, up to 0.999: nearer the edge the
# prox objective's curvature (1 - alpha*rho)/alpha is too flat for the grid
# oracle to place its minimizer within 1e-6.
GATE_FRACTION = st.floats(1e-3, 0.999) | st.just(0.999)


@st.composite
def firm_scalars(draw):
    """(penalty, t, alpha) with alpha*rho < 1; t reaches past the knee tau/rho."""
    tau, rho = draw(st.floats(0.1, 2.0)), draw(st.floats(0.2, 2.0))
    return FirmPenalty(tau, rho), draw(st.floats(-1.5, 1.5)) * tau / rho, draw(GATE_FRACTION) / rho


@settings(max_examples=100, derandomize=True, deadline=None)
@given(firm_scalars())
def test_firm_prox_matches_grid_oracle(case):
    p, t, alpha = case
    expected = grid_prox(p.pointwise, t, alpha, p.tau / p.rho)
    assert float(p.prox(np.array([t]), alpha)[0]) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(firm_scalars())
def test_firm_shifted_prox_matches_grid_oracle(case):
    p, t, alpha = case
    expected = grid_shifted_prox(p.pointwise, t, alpha, p.rho, p.tau / p.rho)
    assert float(p.shifted_prox(np.array([t]), alpha)[0]) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(-3.0, 3.0), st.floats(1e-3, 4.0))
def test_soft_prox_matches_grid_oracle(tau, t_scale, alpha):
    p, t = FirmPenalty(tau, 0.0), t_scale * tau * alpha
    expected = grid_prox(p.pointwise, t, alpha, 0.0)  # no plateau: the grid spans 2|t|
    assert float(p.prox(np.array([t]), alpha)[0]) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(-6.0, 6.0),
    st.floats(1e-3, 4.0),
    st.floats(0.0, 1.0) | st.just(1.0),
)
def test_subspace_prox_matches_grid_oracle(y, t, alpha, rho_fraction):
    # f = 0.5 (y - .)^2 + i_K on a coordinate in K and one off it.  On K its
    # prox minimizes (z - t)^2/(2 alpha) + 0.5 (y - z)^2, and its shifted
    # prox the same minus (rho/2) z^2, for rho <= s = 1 and alpha rho < 1;
    # off K both are 0.
    f = SubspaceConstraint(np.array([y, y]), [0])
    rho = rho_fraction * min(1.0, 0.999 / alpha)
    radius = abs(t) + alpha * abs(y) + 1.0
    for shift, out in ((0.0, f.prox(np.array([t, t]), alpha)), (rho, f.shifted_prox(np.array([t, t]), alpha, rho))):
        objective = lambda z: (z - t) ** 2 / (2.0 * alpha) + 0.5 * (y - z) ** 2 - 0.5 * shift * z * z
        assert float(out[0]) == pytest.approx(grid_minimize(objective, -radius, radius), abs=1e-6)
        assert out[1] == 0.0


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0) | st.just(1.0),
    st.floats(1e-6, 0.999999) | st.just(0.999999),
)
def test_quadratic_shifted_prox_is_stationary(n, extra_rows, seed, rho_fraction, step_fraction):
    # z = shifted_prox(x, alpha, rho) minimizes |z - x|^2 / (2 alpha) + f(z) - (rho/2)|z|^2,
    # checked on the stationarity condition rather than on the rescaling.
    rng = np.random.default_rng(seed)
    f = QuadraticTerm(rng.normal(size=(n + extra_rows, n)), rng.normal(size=n + extra_rows))
    s = f.strong_convexity
    rho, alpha = rho_fraction * s, step_fraction / s
    x = rng.normal(size=n)
    z = f.shifted_prox(x, alpha, rho)
    terms = ((z - x) / alpha, f.grad(z), -rho * z)
    scale = sum(np.linalg.norm(term) for term in terms)
    assert np.linalg.norm(sum(terms)) <= 1e-9 * scale
