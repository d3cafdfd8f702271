import math
import re

import numpy as np
import pytest

from drsplit import (
    BoundInapplicableError,
    StepSizeError,
    contraction_rate_main,
    contraction_rate_shift,
    double_reflection,
    empirical_lipschitz,
    min_rate_main,
    rate_table,
    reflection_bound_smooth,
    reflection_bound_weak,
    shift_rate_floor,
)
from drsplit.analysis import certify, write_rate_table_csv


class TestReflectionBoundSmooth:
    def test_vanishes_when_both_products_are_one(self):
        assert reflection_bound_smooth(1.0, 1.0, 1.0) == 0.0

    def test_convex_limit_is_one(self):
        assert reflection_bound_smooth(1.0, 0.0, 1.0) == 1.0

    def test_hand_value(self):
        assert reflection_bound_smooth(0.5, 1.0, 4.0) == pytest.approx(1.0 / 3.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reflection_bound_smooth(0.5, 2.0, 1.0)
        with pytest.raises(StepSizeError):
            reflection_bound_smooth(math.nan, 1.0, 4.0)
        with pytest.raises(ValueError, match="hi must be finite, got inf"):
            reflection_bound_smooth(0.5, 1.0, math.inf)


class TestReflectionBoundWeak:
    def test_convex_case(self):
        assert reflection_bound_weak(1.0, 0.0) == 1.0

    def test_hand_value(self):
        assert reflection_bound_weak(0.5, 1.0) == pytest.approx(3.0)

    def test_near_gate_blowup(self):
        assert reflection_bound_weak(0.99, 1.0) == pytest.approx(199.0)

    def test_gate(self):
        with pytest.raises(StepSizeError):
            reflection_bound_weak(1.0, 1.0)
        with pytest.raises(StepSizeError):
            reflection_bound_weak(math.nan, 1.0)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            reflection_bound_weak(0.5, math.nan)


class TestMainRate:
    def test_degenerates_to_one_as_rho_approaches_s(self):
        assert contraction_rate_main(0.1, 2.0, 2.0 * (1 - 1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_hand_value_at_zero_modulus(self):
        assert contraction_rate_main(0.5, 2.0, 0.0) == 0.0

    def test_zero_modulus_reduction(self):
        for alpha, s in [(0.1, 2.0), (0.2, 3.0), (0.05, 7.0)]:
            expected = (1 - alpha * s) / (1 + alpha * s)
            assert contraction_rate_main(alpha, s, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_domain_checks(self):
        with pytest.raises(BoundInapplicableError):
            contraction_rate_main(0.1, 1.0, 1.5)
        with pytest.raises(BoundInapplicableError):
            contraction_rate_main(1.0, 2.0, 1.0, sigma=4.0)  # above 1/sqrt(sigma*s)
        with pytest.raises(StepSizeError):
            contraction_rate_main(math.nan, 2.0, 1.0, sigma=4.0)
        with pytest.raises(ValueError, match="need sigma >= s"):
            contraction_rate_main(0.1, 2.0, 0.0, sigma=math.nan)
        with pytest.raises(ValueError, match="s must be finite, got inf"):
            contraction_rate_main(0.5, math.inf, 0.5)
        with pytest.raises(BoundInapplicableError, match="outside the contraction regime"):
            contraction_rate_main(2.0, 1.0, 0.5)

    def test_value_in_unit_interval_on_admissible_grid(self):
        for s in (0.5, 1.0, 3.0):
            for sigma_mult in (1.0, 2.0, 10.0):
                sigma = s * sigma_mult
                for rho_frac in (0.0, 0.3, 0.9):
                    rho = rho_frac * s
                    alpha = 1.0 / math.sqrt(sigma * s)
                    rate = contraction_rate_main(alpha, s, rho, sigma)
                    assert 0.0 <= rate < 1.0


class TestShiftRate:
    def test_zero_when_perfectly_conditioned(self):
        assert contraction_rate_shift(0.5, 2.0, 0.0, 2.0) == 0.0

    def test_hand_value(self):
        assert contraction_rate_shift(0.5, 2.0, 1.0, 4.0) == pytest.approx(1.0 / 3.0)

    def test_degenerates_as_rho_approaches_s(self):
        assert contraction_rate_shift(0.25, 2.0, 2.0 * (1 - 1e-12), 4.0) == pytest.approx(1.0, abs=1e-9)

    def test_step_gate(self):
        with pytest.raises(BoundInapplicableError):
            contraction_rate_shift(0.6, 2.0, 0.5, 4.0)  # above 1/s
        with pytest.raises(StepSizeError):
            contraction_rate_shift(math.nan, 2.0, 0.5, 4.0)
        with pytest.raises(ValueError, match="sigma must be finite, got inf"):
            contraction_rate_shift(0.5, 1.0, 0.5, sigma=math.inf)
        with pytest.raises(BoundInapplicableError, match="need 0 <= rho < s <= sigma"):
            contraction_rate_shift(0.5, 1.0, 1.0, 2.0)  # rho = s

    def test_bits_of_the_two_term_formula(self):
        # max(|1 - a(sigma - rho)|/(1 + a(sigma - rho)), (1 - a(s - rho))/(1 + a(s - rho)))
        for s in (0.3, 2.0):
            for sigma in (s, 4.0, 50.0):
                for rho in (0.0, 0.25 * s, 0.9 * s, s * (1 - 1e-12)):
                    for alpha in (1e-6, 0.1 / s, 0.5 / s, 1.0 / s, (1.0 / s) * (1 + 1e-12)):
                        wide = abs(1.0 - alpha * (sigma - rho)) / (1.0 + alpha * (sigma - rho))
                        narrow = (1.0 - alpha * (s - rho)) / (1.0 + alpha * (s - rho))
                        assert contraction_rate_shift(alpha, s, rho, sigma) == max(wide, narrow)


class TestMinRateMain:
    def test_zero_at_unit_ratio(self):
        for eta in (0.0, 0.3, 0.9):
            assert min_rate_main(1.0, eta) == pytest.approx(0.0, abs=1e-15)

    def test_convex_reduction(self):
        for gamma in (0.1, 0.5, 0.9):
            expected = (1 - math.sqrt(gamma)) / (1 + math.sqrt(gamma))
            assert min_rate_main(gamma, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_hand_value(self):
        assert min_rate_main(0.25, 0.1) == pytest.approx(0.5)

    def test_domain(self):
        with pytest.raises(BoundInapplicableError):
            min_rate_main(0.5, 0.5)
        with pytest.raises(BoundInapplicableError):
            min_rate_main(1.5, 0.1)

    def test_matches_main_rate_at_its_best_step(self):
        for gamma in np.linspace(0.05, 1.0, 12):
            for eta in np.linspace(0.0, 0.95, 12):
                if eta >= gamma:
                    continue
                sigma = 2.7
                s, rho = gamma * sigma, eta * sigma
                alpha = 1.0 / math.sqrt(sigma * s)
                assert contraction_rate_main(alpha, s, rho, sigma) == pytest.approx(
                    min_rate_main(gamma, eta), abs=1e-12
                )

    def test_monotone_decreasing_in_gamma(self):
        eta = 0.2
        gammas = np.linspace(eta + 1e-3, 1.0, 40)
        vals = [min_rate_main(g, eta) for g in gammas]
        assert np.all(np.diff(vals) <= 1e-12)


class TestShiftRateFloor:
    def test_endpoints(self):
        assert shift_rate_floor(0.0) == 0.0
        assert shift_rate_floor(1.0) == 1.0

    def test_hand_value(self):
        assert shift_rate_floor(0.5) == pytest.approx(1.0 / 3.0)

    def test_domain(self):
        with pytest.raises(BoundInapplicableError):
            shift_rate_floor(1.5)

    def test_floor_below_shift_rate_second_term(self):
        for s in (0.5, 2.0):
            for sigma in (2.0, 8.0):
                if sigma < s:
                    continue
                for rho in np.linspace(0.0, 0.95 * s, 10):
                    alpha = 1.0 / s
                    term = (1 - alpha * (s - rho)) / (1 + alpha * (s - rho))
                    assert shift_rate_floor(rho / sigma) <= term + 1e-12


def test_rate_ordering_main_below_shift_second_term():
    for s in (1.0, 3.0):
        for sigma in (2.0, 12.0):
            sigma = max(sigma, s)
            for rho in np.linspace(0.0, 0.9 * s, 8):
                alpha = 1.0 / math.sqrt(sigma * s)
                second = (1 - alpha * (s - rho)) / (1 + alpha * (s - rho))
                assert contraction_rate_main(alpha, s, rho, sigma) <= second + 1e-12


class TestEmpiricalLipschitz:
    def test_identity(self):
        sampler = lambda rng: rng.normal(size=3)
        assert empirical_lipschitz(lambda x: x, sampler, 100) == pytest.approx(1.0)

    def test_doubling(self):
        sampler = lambda rng: rng.normal(size=1)
        assert empirical_lipschitz(lambda x: 2 * x, sampler, 100) == pytest.approx(2.0)

    def test_degenerate_sampler(self):
        sampler = lambda rng: np.zeros(2)
        with pytest.raises(ValueError):
            empirical_lipschitz(lambda x: x, sampler, 50)
        with pytest.raises(ValueError, match="n_pairs must be >= 1, got 0"):
            empirical_lipschitz(lambda x: x, lambda rng: rng.normal(size=2), 0)
        for n_pairs in (2.5, 2.0, math.nan, True, False):  # a bool is no count
            with pytest.raises(ValueError, match=re.escape(f"n_pairs must be an integer, got {n_pairs!r}")):
                empirical_lipschitz(lambda x: x, lambda rng: rng.normal(size=2), n_pairs)

    def test_certify_rejects_a_non_integer_pair_count(self):
        with pytest.raises(ValueError, match=re.escape("n_pairs must be an integer, got 2.5")):
            certify(2.5, 0)

    def test_weak_reflection_attains_its_bound(self, exp1_instance):
        p = exp1_instance.penalty
        alpha = 0.5 / p.rho
        bound = reflection_bound_weak(alpha, p.rho)
        radius = 3 * p.tau / p.rho
        op = lambda t: 2 * p.prox(t, alpha) - t
        sampler = lambda rng: rng.uniform(-radius, radius, size=1)
        emp = empirical_lipschitz(op, sampler, 10000, seed=0)
        assert emp <= bound + 1e-9
        assert emp >= 0.99 * bound


class TestEmpiricalVsTheoretical:
    def test_main_composition_on_benchmark(self, exp2_instance, exp2_problem):
        s, sigma = exp2_instance.operator.gram_extremes()
        rho = exp2_problem.rho
        alpha = 1.0 / math.sqrt(sigma * s)
        rate = contraction_rate_main(alpha, s, rho, sigma)
        radius = 3 * exp2_instance.penalty.tau / rho
        sampler = lambda rng: rng.normal(size=exp2_problem.dim) * rng.uniform(0, radius)
        emp = empirical_lipschitz(double_reflection(exp2_problem, alpha, "dr-main-fg"), sampler, 1000, seed=1)
        assert emp <= rate + 1e-9

    def test_shift_composition_on_benchmark(self, exp2_instance, exp2_problem):
        s, sigma = exp2_instance.operator.gram_extremes()
        rho = exp2_problem.rho
        alpha = 1.0 / s
        rate = contraction_rate_shift(alpha, s, rho, sigma)
        radius = 3 * exp2_instance.penalty.tau / rho
        sampler = lambda rng: rng.normal(size=exp2_problem.dim) * rng.uniform(0, radius)
        emp = empirical_lipschitz(double_reflection(exp2_problem, alpha, "dr-shift-fg"), sampler, 1000, seed=2)
        assert emp <= rate + 1e-9


class TestRateTable:
    def test_rows_and_applicability(self):
        s, sigma, rho = 2.0, 8.0, 0.5
        alphas = [0.1, 1.0 / math.sqrt(sigma * s), 0.4, 1.0 / s, 0.9]
        rows = rate_table(s, sigma, rho, alphas)
        assert len(rows) == 5
        assert rows[0]["main_rate"] is not None and rows[0]["shift_rate"] is not None
        assert rows[2]["main_rate"] is None  # 0.4 > 1/4 = 1/sqrt(sigma*s)
        assert rows[2]["shift_rate"] is not None
        assert rows[4]["main_rate"] is None and rows[4]["shift_rate"] is None

    def test_csv_export(self, tmp_path):
        rows = rate_table(2.0, 8.0, 0.5, [0.1, 0.9])
        path = tmp_path / "rates.csv"
        write_rate_table_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,main_rate,shift_rate"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[1]) == pytest.approx(rows[0]["main_rate"])
        assert lines[2].split(",")[1] == ""  # inapplicable cell stays empty
