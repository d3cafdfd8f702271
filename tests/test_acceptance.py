"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s, or on failure)."""

import dataclasses
import functools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from drsplit import (
    EXP1,
    EXP2,
    FirmPenalty,
    LinearMap,
    Problem,
    QuadraticTerm,
    SoftPenalty,
    SolverConfig,
    build_instance,
    build_subspace_demo,
    check_step,
    contraction_rate_main,
    min_rate_main,
    run,
    run_experiment,
    shift_rate_floor,
    step_bound,
)
from drsplit.analysis import certify
from drsplit.experiment import derive_seeds
from drsplit.solver import dr_step
from oracles import grid_prox


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS - {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_1_prox_oracle_equivalence():
    with criterion(1, "prox operators match their independent oracles", 10):
        for tau, rho, alpha in [(2.0, 1.0, 0.5), (2.0, 1.0, 0.9), (1.0, 0.5, 1.0)]:
            p = FirmPenalty(tau, rho)
            for t in np.linspace(-5.0, 5.0, 201):
                expected = grid_prox(p.pointwise, t, alpha, tau / rho)
                assert abs(float(p.prox(t, alpha)) - expected) <= 1e-6

        rng = np.random.default_rng(0)
        for _ in range(100):
            rows, cols = rng.integers(4, 9), rng.integers(2, 5)
            f = QuadraticTerm(LinearMap(rng.normal(size=(rows, cols))), rng.normal(size=rows))
            x = rng.normal(size=cols) * rng.uniform(0.1, 4.0)
            alpha = rng.uniform(0.05, 5.0)
            z = f.prox(x, alpha)
            assert np.linalg.norm(z + alpha * f.grad(z) - x) <= 1e-9 * (1 + np.linalg.norm(x))
            rho = rng.uniform(0.0, 0.99 * min(f.strong_convexity, 1.0 / alpha))
            w = f.shifted_prox(x, alpha, rho)
            assert np.linalg.norm(w + alpha * (f.grad(w) - rho * w) - x) <= 1e-9 * (1 + np.linalg.norm(x))


@functools.cache
def certified():
    """The checks of one analysis.certify call, shared by criteria 2 and 3;
    seed 0 certifies the same instances as the conftest fixtures."""
    return certify(pairs=1000, seed=0)


def assert_checks_pass(checks, names):
    assert [name for name, _, _ in checks] == names
    for name, passed, detail in checks:
        assert passed, f"{name}: {detail}"


def test_criterion_2_nonexpansiveness():
    with criterion(2, "both direct compositions are nonexpansive at the step bound", 30):
        assert_checks_pass(
            certified()[:2],
            ["nonexpansive dr-main-fg (ratio 15.96)", "nonexpansive dr-main-gf (ratio 15.96)"],
        )


def test_criterion_3_bound_attainment_and_dominance():
    with criterion(3, "empirical Lipschitz constants attain/respect the closed-form bounds", 60):
        assert_checks_pass(
            certified()[2:],
            ["weak reflection bound attained", "direct rate dominates", "shifted rate dominates"],
        )


def test_criterion_4_convergence_and_cross_variant_agreement():
    with criterion(4, "all four DR variants converge and agree with the ISTA reference", 120):
        for seed in derive_seeds(0, 5):
            instance = build_instance(EXP1, seed)
            problem = instance.problem()
            reference = run(problem, SolverConfig("ista", max_iters=10000)).final_x
            finals = [reference]
            for variant in ("dr-main-fg", "dr-main-gf", "dr-shift-fg", "dr-shift-gf"):
                trace = run(problem, SolverConfig(variant, max_iters=5000, tol=1e-13))
                assert trace.n_iters <= 5000
                assert trace.fp_residual[-1] <= 1e-8, f"{variant} residual on seed {seed}"
                finals.append(trace.final_x)
            for i in range(len(finals)):
                for j in range(i + 1, len(finals)):
                    assert np.linalg.norm(finals[i] - finals[j]) <= 1e-6


def test_criterion_5_subspace_demo():
    with criterion(5, "shifted DR on the subspace-constrained problem matches the oracle", 5):
        rng = np.random.default_rng(6)
        y = rng.normal(0.0, 2.0, size=16)
        problem, oracle = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
        trace = run(problem, SolverConfig("dr-shift-fg", alpha=1.0, max_iters=2000, tol=1e-14))
        assert np.linalg.norm(trace.final_x - oracle) <= 1e-6


def test_criterion_6_rate_formula_identities():
    with criterion(6, "rate formulas agree on their overlap and obey the orderings", 1):
        sigma = 3.7
        for gamma in np.linspace(0.05, 1.0, 20):
            for eta in np.linspace(0.0, 0.95, 20):
                if eta >= gamma:
                    continue
                s, rho = gamma * sigma, eta * sigma
                alpha = 1.0 / math.sqrt(sigma * s)
                assert abs(contraction_rate_main(alpha, s, rho, sigma) - min_rate_main(gamma, eta)) <= 1e-12
                second_term = (1 - alpha * (s - rho)) / (1 + alpha * (s - rho))
                assert contraction_rate_main(alpha, s, rho, sigma) <= second_term + 1e-12
                at_inv_s = (1 - (s - rho) / s) / (1 + (s - rho) / s)
                assert shift_rate_floor(eta) <= at_inv_s + 1e-12
            assert min_rate_main(1.0, eta) == pytest.approx(0.0, abs=1e-15)


def test_criterion_7_speed_trend():
    with criterion(7, "direct DR beats shifted DR on most seeds; both beat ISTA everywhere", 600):
        report2 = run_experiment(dataclasses.replace(EXP2, n_seeds=20), master_seed=0)
        wins, total = report2.count_first_faster("dr-main-fg", "dr-shift-fg")
        assert total == 20
        assert wins > total / 2, f"direct DR won only {wins}/{total} seeds"

        report1 = run_experiment(dataclasses.replace(EXP1, n_seeds=20), master_seed=0)
        assert report1.dr_beats_ista_every_seed(), report1.median_iterations()


def test_criterion_8_convex_limit_regression():
    with criterion(8, "at zero modulus the direct and shifted iterations coincide", 5):
        rng = np.random.default_rng(7)
        h = LinearMap(rng.normal(size=(10, 6)))
        y = rng.normal(size=10)
        problem = Problem(QuadraticTerm(h, y), SoftPenalty(0.7))
        alpha = 0.8
        z_main = z_shift = rng.normal(size=6)
        for _ in range(100):
            z_main = dr_step(problem, z_main, alpha, "dr-main-fg")
            z_shift = dr_step(problem, z_shift, alpha, "dr-shift-fg")
            assert np.linalg.norm(z_main - z_shift) <= 1e-12

        sigma = problem.grad_lipschitz
        check_step("dr-main-fg", 1e12, sigma, 0.0)
        assert math.isinf(step_bound("dr-main-fg", sigma, 0.0))
