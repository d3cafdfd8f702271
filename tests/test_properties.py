"""Property tests of the certified inequalities on random small instances."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drsplit import (
    FirmPenalty,
    LinearMap,
    Problem,
    QuadraticTerm,
    SoftPenalty,
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
    penalty = FirmPenalty(tau, rho) if rho > 0 else SoftPenalty(tau)
    return Problem(QuadraticTerm(operator, rng.normal(size=m)), penalty), s, sigma, rho, tau


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
