import math

import numpy as np
import pytest

from drsplit import FirmPenalty, StepSizeError, ZeroPenalty
from oracles import grid_prox, grid_shifted_prox


class TestFirmEval:
    def test_zero(self):
        assert FirmPenalty(2.0, 1.0).pointwise(0.0) == 0.0

    def test_plateau(self):
        assert FirmPenalty(2.0, 1.0).pointwise(5.0) == pytest.approx(2.0)

    def test_middle(self):
        assert FirmPenalty(2.0, 1.0).pointwise(1.0) == pytest.approx(1.5)

    def test_even_and_monotone(self):
        p = FirmPenalty(1.5, 0.6)
        t = np.linspace(0.0, 6.0, 500)
        vals = p.pointwise(t)
        np.testing.assert_allclose(p.pointwise(-t), vals, atol=1e-15)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals <= p.tau**2 / (2 * p.rho) + 1e-15)

    def test_continuity_at_band_edge(self):
        p = FirmPenalty(1.5, 0.6)
        edge = p.tau / p.rho
        assert p.pointwise(edge - 1e-9) == pytest.approx(p.pointwise(edge + 1e-9), abs=1e-7)

    def test_value_sums_coordinates(self):
        p = FirmPenalty(2.0, 1.0)
        assert p.value([0.0, 1.0, 5.0]) == pytest.approx(0.0 + 1.5 + 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FirmPenalty(0.0, 1.0)
        with pytest.raises(ValueError):
            FirmPenalty(1.0, -0.5)
        with pytest.raises(ValueError, match=r"a scalar or a \(B, 1\) column, got shape \(3,\)"):
            FirmPenalty(np.ones(3), 0.5)
        with pytest.raises(ValueError, match="tau must be positive"):
            FirmPenalty(0.0, 0.0)


class TestFirmProx:
    def test_dead_zone(self):
        assert FirmPenalty(2.0, 1.0).prox(0.5, 0.5) == 0.0

    def test_middle_band(self):
        assert FirmPenalty(2.0, 1.0).prox(1.5, 0.5) == pytest.approx(1.0)

    def test_pass_through(self):
        assert FirmPenalty(2.0, 1.0).prox(3.0, 0.5) == pytest.approx(3.0)

    def test_odd_and_monotone(self):
        p = FirmPenalty(2.0, 1.0)
        t = np.linspace(-6.0, 6.0, 1001)
        out = p.prox(t, 0.5)
        np.testing.assert_allclose(p.prox(-t, 0.5), -out, atol=1e-15)
        assert np.all(np.diff(out) >= -1e-12)

    def test_step_too_large(self):
        p = FirmPenalty(2.0, 1.0)
        with pytest.raises(StepSizeError):
            p.prox(1.0, 1.0)  # alpha * rho = 1 exactly is rejected
        with pytest.raises(StepSizeError):
            p.prox(1.0, 1.5)
        # a NaN step fails the gate of every penalty prox
        for prox in (p.prox, p.shifted_prox, FirmPenalty(2.0, 0.0).prox):
            with pytest.raises(StepSizeError):
                prox(np.ones(3), math.nan)

    def test_not_nonexpansive_in_middle_band(self):
        # slope 1/(1 - alpha*rho) = 2 between points inside the band
        p = FirmPenalty(2.0, 1.0)
        alpha = 0.5  # alpha * rho = 0.5
        t0, t1 = 1.2, 1.6
        gap = abs(p.prox(t1, alpha) - p.prox(t0, alpha))
        assert gap == pytest.approx(abs(t1 - t0) / (1 - alpha * p.rho), rel=1e-12)
        assert gap > abs(t1 - t0)

    @pytest.mark.parametrize("tau,rho,alpha", [(2.0, 1.0, 0.5), (2.0, 1.0, 0.9), (1.0, 0.5, 1.0)])
    def test_matches_grid_oracle(self, tau, rho, alpha):
        p = FirmPenalty(tau, rho)
        for t in np.linspace(-5.0, 5.0, 41):
            expected = grid_prox(p.pointwise, t, alpha, tau / rho)
            assert p.prox(t, alpha) == pytest.approx(expected, abs=1e-6)

    def test_prox_optimality_on_grid(self):
        p = FirmPenalty(1.3, 0.7)
        alpha = 0.8
        rng = np.random.default_rng(0)
        obj = lambda z, t: (z - t) ** 2 / (2 * alpha) + p.pointwise(z)
        for t in rng.uniform(-6, 6, size=25):
            star = float(p.prox(t, alpha))
            grid = np.linspace(-8, 8, 20001)
            assert obj(star, t) <= np.min(obj(grid, t)) + 1e-9


class TestProxVector:
    def test_zero_fixed(self):
        p = FirmPenalty(2.0, 1.0)
        np.testing.assert_array_equal(p.prox(np.zeros(4), 0.5), np.zeros(4))

    def test_coordinatewise(self):
        p = FirmPenalty(2.0, 1.0)
        np.testing.assert_allclose(p.prox(np.array([0.5, 1.5, 3.0]), 0.5), [0.0, 1.0, 3.0], atol=1e-14)

    def test_random_coordinates_match_scalar_oracle(self):
        p = FirmPenalty(1.7, 0.9)
        alpha = 0.6
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=12)
        out = p.prox(x, alpha)
        for i in range(x.size):
            assert out[i] == pytest.approx(grid_prox(p.pointwise, x[i], alpha, p.tau / p.rho), abs=1e-6)


class TestShiftedProx:
    def test_zero_fixed(self):
        p = FirmPenalty(2.0, 1.0)
        np.testing.assert_array_equal(p.shifted_prox(np.zeros(3), 1.0), np.zeros(3))

    def test_composition_identity(self):
        # shifted prox at alpha == plain prox with step alpha/(1+alpha*rho) at
        # the rescaled argument, exactly
        p = FirmPenalty(2.0, 1.0)
        x = np.array([-3.0, 0.2, 1.4, 9.0])
        alpha = 1.0
        beta1 = alpha / (1 + alpha * p.rho)
        np.testing.assert_array_equal(p.shifted_prox(x, alpha), p.prox(x * (beta1 / alpha), beta1))

    def test_unit_parameters_reduce_to_half_step(self):
        p = FirmPenalty(2.0, 1.0)
        x = np.array([0.3, -1.1, 2.5])
        np.testing.assert_array_equal(p.shifted_prox(x, 1.0), p.prox(x / 2.0, 0.5))

    def test_no_step_restriction(self):
        p = FirmPenalty(1.0, 2.0)
        p.shifted_prox(np.ones(2), 100.0)  # beta1 * rho < 1 always holds

    def test_matches_convexified_grid_oracle(self):
        p = FirmPenalty(1.0, 0.8)
        alpha = 2.0
        rng = np.random.default_rng(2)
        for t in rng.uniform(-4, 4, size=15):
            expected = grid_shifted_prox(p.pointwise, t, alpha, p.rho, p.tau / p.rho)
            assert float(p.shifted_prox(np.array([t]), alpha)[0]) == pytest.approx(expected, abs=1e-6)


def test_weak_reflection_ratio_bounded():
    # 2*prox - I never stretches by more than (1+alpha*rho)/(1-alpha*rho)
    p = FirmPenalty(2.0, 1.0)
    alpha = 0.5
    bound = (1 + alpha * p.rho) / (1 - alpha * p.rho)
    rng = np.random.default_rng(3)
    t = rng.uniform(-6, 6, size=(10000, 2))
    u0 = 2 * p.prox(t[:, 0], alpha) - t[:, 0]
    u1 = 2 * p.prox(t[:, 1], alpha) - t[:, 1]
    gap = np.abs(t[:, 0] - t[:, 1])
    keep = gap > 1e-12
    assert np.all(np.abs(u0 - u1)[keep] <= bound * gap[keep] + 1e-9)


def test_midpoint_convexity_of_convexified_penalty():
    p = FirmPenalty(1.4, 0.75)
    convexified = lambda t: p.pointwise(t) + 0.5 * p.rho * t * t
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-8, 8, size=(2, 5000))
    mid = convexified(0.5 * (a + b))
    assert np.all(mid <= 0.5 * (convexified(a) + convexified(b)) + 1e-12)


class TestConvexLimits:
    def test_soft_penalty_prox_is_soft_threshold(self):
        p = FirmPenalty(2.0, 0.0)
        assert p.modulus == 0.0
        np.testing.assert_allclose(p.prox(np.array([-3.0, 0.5, 3.0]), 0.5), [-2.0, 0.0, 2.0], atol=1e-15)
        assert p.value([1.0, -2.0]) == pytest.approx(6.0)

    def test_soft_is_firm_rho_to_zero(self):
        firm = FirmPenalty(2.0, 1e-9)
        soft = FirmPenalty(2.0, 0.0)
        t = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(firm.prox(t, 0.5), soft.prox(t, 0.5), atol=1e-8)

    @pytest.mark.parametrize("tau", [2.0, np.array([[0.5], [1.0], [2.0]])], ids=["scalar", "column"])
    def test_firm_at_zero_rho_is_soft_threshold(self, tau):
        # rho = 0 is in the family: the knee tau/rho is infinite, so the
        # middle band, divided by 1 - alpha * 0 = 1, is the soft threshold.
        # The grid is dyadic, so tau * sum|x| is exact in any order.
        p, alpha = FirmPenalty(tau, 0.0), 0.7
        x = np.broadcast_to(np.linspace(-5.0, 5.0, 81), p.block_shape + (81,))
        out = p.prox(x, alpha)
        np.testing.assert_array_equal(out, np.sign(x) * np.maximum(np.abs(x) - alpha * tau, 0.0))
        weights = np.reshape(tau, p.block_shape)  # one tau per row
        np.testing.assert_array_equal(p.value(x), weights * np.sum(np.abs(x), axis=-1))
        assert p.zones(x)[1].all()
        np.testing.assert_array_equal(p.shifted_prox(x, alpha), out)

    def test_rho_must_be_nonnegative(self):
        for rho in (-0.5, math.nan):
            with pytest.raises(ValueError, match="rho must be nonnegative"):
                FirmPenalty(1.0, rho)

    def test_zero_penalty(self):
        p = ZeroPenalty()
        x = np.array([1.0, -2.0])
        assert p.value(x) == 0.0
        np.testing.assert_array_equal(p.prox(x, 3.0), x)

    def test_shifted_prox_reduces_to_prox_at_zero_modulus(self):
        p = FirmPenalty(1.0, 0.0)
        x = np.array([0.4, -2.2])
        np.testing.assert_array_equal(p.shifted_prox(x, 0.7), p.prox(x, 0.7))
