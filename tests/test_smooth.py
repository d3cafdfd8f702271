import dataclasses
import math
import re
import sys
import threading

import numpy as np
import pytest

from drsplit import (
    EXP1,
    EXP2,
    LinearMap,
    NonConvexShiftError,
    QuadraticTerm,
    RankDeficiencyError,
    StepSizeError,
    SubspaceConstraint,
    build_instance,
    run_experiment,
)
from drsplit import cli, experiment, linalg
from drsplit.analysis import certify
from drsplit.experiment import block_problem, derive_seeds
from drsplit.solver import VARIANTS, default_alpha
from oracles import central_difference_gradient


def random_term(seed, rows=8, cols=5):
    rng = np.random.default_rng(seed)
    op = LinearMap(rng.normal(size=(rows, cols)))
    return QuadraticTerm(op, rng.normal(size=rows)), rng


class TestQuadraticValueGrad:
    def test_zero_residual(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(6, 4))
        x = rng.normal(size=4)
        f = QuadraticTerm(LinearMap(h), h @ x)
        assert f.value(x) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(f.grad(x), np.zeros(4), atol=1e-12)

    def test_identity_operator(self):
        f = QuadraticTerm(LinearMap(np.eye(3)), np.zeros(3))
        x = np.array([1.0, 2.0, -2.0])
        assert f.value(x) == pytest.approx(np.sum(x**2) / 2)
        np.testing.assert_allclose(f.grad(x), x, atol=1e-14)

    def test_grad_matches_finite_differences(self):
        f, rng = random_term(1)
        x = rng.normal(size=5)
        fd = central_difference_gradient(f.value, x, step=1e-5)
        np.testing.assert_allclose(f.grad(x), fd, rtol=1e-6, atol=1e-8)

    def test_dimension_mismatch(self):
        f, _ = random_term(2)
        with pytest.raises(ValueError):
            f.grad(np.ones(4))
        with pytest.raises(ValueError):
            QuadraticTerm(LinearMap(np.ones((3, 2))), np.ones(2))
        with pytest.raises(ValueError, match="block"):
            QuadraticTerm(LinearMap(np.eye(2)), np.ones((2, 2, 2)))

    def test_curvature_constants(self):
        f = QuadraticTerm(LinearMap(np.diag([1.0, 2.0])), np.zeros(2))
        assert f.strong_convexity == pytest.approx(1.0)
        assert f.grad_lipschitz == pytest.approx(4.0)

    def test_rank_deficient_operator_fails_at_construction(self):
        col = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficiencyError):
            QuadraticTerm(LinearMap(np.column_stack([col, 2 * col])), np.zeros(3))


class TestQuadProx:
    def test_identity_shrinkage(self):
        f = QuadraticTerm(LinearMap(np.eye(3)), np.zeros(3))
        x = np.array([3.0, -1.5, 0.0])
        np.testing.assert_allclose(f.prox(x, 2.0), x / 3.0, atol=1e-14)

    def test_small_step_limit(self):
        f, rng = random_term(3)
        x = rng.normal(size=5)
        np.testing.assert_allclose(f.prox(x, 1e-12), x, atol=1e-9)

    def test_first_order_optimality(self):
        f, rng = random_term(4)
        for _ in range(100):
            x = rng.normal(size=5) * rng.uniform(0.1, 5)
            alpha = rng.uniform(0.01, 10)
            z = f.prox(x, alpha)
            assert np.linalg.norm(z + alpha * f.grad(z) - x) <= 1e-9 * (1 + np.linalg.norm(x))

    def test_solve_residual(self):
        f, rng = random_term(5)
        alpha = 0.7
        x = rng.normal(size=5)
        z = f.prox(x, alpha)
        lhs = z + alpha * (f.operator.gram() @ z)
        rhs = x + alpha * f.operator.adjoint_apply(f.y)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_lipschitz_constant(self):
        f, rng = random_term(6)
        alpha = 1.3
        s = f.strong_convexity
        for _ in range(300):
            x0, x1 = rng.normal(size=(2, 5)) * 3
            gap = np.linalg.norm(x0 - x1)
            if gap < 1e-12:
                continue
            stretch = np.linalg.norm(f.prox(x0, alpha) - f.prox(x1, alpha)) / gap
            assert stretch <= 1 / (1 + alpha * s) + 1e-9

    def test_rejects_nonpositive_step(self):
        f, _ = random_term(7)
        with pytest.raises(StepSizeError):
            f.prox(np.zeros(5), 0.0)
        with pytest.raises(StepSizeError):
            f.prox(np.zeros(5), math.nan)

    @pytest.mark.parametrize("spec", [EXP1, EXP2], ids=["exp1", "exp2"])
    def test_stored_matrix_matches_a_solve_on_a_block(self, spec):
        problem = block_problem([build_instance(spec, seed) for seed in derive_seeds(5, 6)])
        f, rng = problem.smooth, np.random.default_rng(11)
        x = rng.normal(size=problem.shape) * 3.0
        alpha = default_alpha(problem, "dr-main-fg")
        a = np.eye(f.dim) + alpha * f.operator.gram()
        for got, row, hty in zip(f.prox(x, alpha), x, f.operator.adjoint_apply(f.y)):
            want = np.linalg.solve(a, row + alpha * hty)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_prox_matrix_is_a_symmetric_inverse_of_a_definite_system(self):
        f, _ = random_term(13)
        m = linalg.prox_matrix(f.operator.gram(), 0.7)
        assert not m.flags.writeable and np.array_equal(m, m.T)
        np.testing.assert_allclose(m @ (np.eye(5) + 0.7 * f.operator.gram()), np.eye(5), atol=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            linalg.prox_matrix(np.diag([1.0, -3.0, 1.0]), 1.0)

    def test_step_that_overflows_the_system_is_rejected(self):
        # I + alpha HᵀH is not finite; its inverse would make every prox NaN.
        f, _ = random_term(12)
        with pytest.raises(StepSizeError, match=r"alpha = 1e\+308 overflows I \+ alpha HᵀH"):
            f.prox(np.zeros(5), 1e308)
        assert f._step is None and f.operator._prox_matrices == ()

    def test_factor_cache_is_bounded(self):
        f, rng = random_term(9)
        x = rng.normal(size=5)
        alphas = np.linspace(0.01, 3.0, 100)
        swept = [f.prox(x, alpha) for alpha in alphas]
        assert_holds_matrix_of(f, alphas[-1])
        assert [step for step, _ in f.operator._prox_matrices] == list(alphas[-linalg.PROX_STEPS :][::-1])
        # replaced steps get their matrix again with the same bits
        for alpha, got in zip(alphas[::7], swept[::7]):
            fresh, _ = random_term(9)
            np.testing.assert_array_equal(got, fresh.prox(x, alpha))
            np.testing.assert_array_equal(f.prox(x, alpha), got)
        assert_holds_matrix_of(f, alphas[::7][-1])

    def test_store_is_bounded_after_a_sweep_of_50_steps(self, monkeypatch):
        # Two terms share one operator: each step is built once for both,
        # and the operator keeps only the last PROX_STEPS of them.
        f, rng = random_term(14)
        g = QuadraticTerm(f.operator, rng.normal(size=8))
        built = count_builds(monkeypatch)
        x, alphas = rng.normal(size=5), np.linspace(0.02, 2.0, 50)
        for alpha in alphas:
            f.prox(x, alpha), g.prox(x, alpha)
        steps = built[id(f.operator.gram())]
        assert len(built) == 1 and steps == list(alphas)
        assert [step for step, _ in f.operator._prox_matrices] == list(alphas[-linalg.PROX_STEPS :][::-1])
        g.prox(x, alphas[0])  # evicted long ago: built again
        assert steps == [*alphas, alphas[0]]

    def test_two_operators_never_share_a_matrix(self):
        # Two operators with the same entries still build one matrix each,
        # and each term applies its own operator's matrix.
        f, rng = random_term(15)
        twin = QuadraticTerm(LinearMap(f.operator.matrix), f.y)
        other, _ = random_term(16)
        x = rng.normal(size=5)
        for term in (f, twin, other):
            term.prox(x, 0.4)
        mats = [term._step[1] for term in (f, twin, other)]
        assert mats[0] is not mats[1] and mats[0].tobytes() == mats[1].tobytes()
        assert mats[2].tobytes() != mats[0].tobytes()
        for term, m in zip((f, twin, other), mats):
            assert term.operator.prox_matrix(0.4) is m

    def test_factor_cache_under_threads(self):
        f, rng = random_term(10)
        x = rng.normal(size=5)
        alphas = np.linspace(0.05, 2.0, 24)
        expected = {alpha: random_term(10)[0].prox(x, alpha) for alpha in alphas}
        mismatches = []

        def sweep(offset):
            for alpha in np.roll(alphas, offset):
                if not np.array_equal(f.prox(x, alpha), expected[alpha]):
                    mismatches.append(alpha)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(7 * i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


def assert_holds_matrix_of(f, alpha):
    """f keeps exactly the constants of step alpha: the prox matrix, which
    its operator stores as the newest, and alpha Hᵀy."""
    step, m, shift = f._step
    assert step == alpha and f.operator._prox_matrices[0] == (alpha, m)
    np.testing.assert_array_equal(m, linalg.prox_matrix(f.operator.gram(), alpha))
    assert shift.tobytes() == (alpha * f._hty).tobytes()


def count_builds(monkeypatch):
    """{id of an operator's HᵀH: [each step a prox matrix is built at]}."""
    built, build = {}, linalg.prox_matrix

    def counted(gram, alpha):
        built.setdefault(id(gram), []).append(alpha)
        return build(gram, alpha)

    monkeypatch.setattr(linalg, "prox_matrix", counted)
    return built


class TestFactorTraffic:
    # Each run iterates at one step, and the shifted variants call the
    # quadratic prox at one shifted step, so an operator's PROX_STEPS = 2
    # stored matrices cover every stock entry point.  These count the
    # matrices (each a factorization and an inverse) built per operator, on
    # filter operators made afresh for the test.
    @pytest.fixture
    def builds(self, monkeypatch):
        experiment._filter_operator.cache_clear()
        return count_builds(monkeypatch)

    def test_experiment_factorizes_once_per_dr_variant(self, builds):
        spec = dataclasses.replace(EXP2, n_seeds=2, max_iters=100, reference_iters=500)
        run_experiment(spec, master_seed=3)
        assert [len(steps) for steps in builds.values()] == [len(spec.variants)] == [2]

    def test_certify_factorizes_once_per_step(self, builds):
        # EXP1: both direct orders at one step; EXP2: the direct and the
        # shifted step.
        certify(10, 0)
        assert sorted(len(steps) for steps in builds.values()) == [1, 2]

    def test_40_solves_of_one_filter_build_two_matrices(self, builds, tmp_path, capsys):
        paths = []
        for i, seed in enumerate(derive_seeds(4, 8)):
            paths.append(tmp_path / f"instance_{i}.json")
            build_instance(EXP2, seed).save(paths[-1])
        for path in paths:
            for variant in VARIANTS:
                assert cli.main(["solve", "--instance", str(path), "--variant", variant, "--iters", "20"]) == 0
        capsys.readouterr()
        # dr-main at its step, dr-shift at its shifted step; ista uses none.
        assert [len(steps) for steps in builds.values()] == [2]


class TestShiftedProx:
    def test_vanishing_shift_matches_prox(self):
        f, rng = random_term(8)
        x = rng.normal(size=5)
        np.testing.assert_allclose(f.shifted_prox(x, 0.8, 1e-12), f.prox(x, 0.8), atol=1e-9)

    def test_scalar_case_by_calculus(self):
        # identity operator, y = 0, rho = 0.5, alpha = 1: minimize
        # (z-x)^2/2 + z^2/2 - z^2/4, so z = 2x/3
        f = QuadraticTerm(LinearMap(np.eye(2)), np.zeros(2))
        x = np.array([1.2, -0.9])
        np.testing.assert_allclose(f.shifted_prox(x, 1.0, 0.5), 2 * x / 3, atol=1e-12)

    def test_first_order_optimality(self):
        f, rng = random_term(9)
        s = f.strong_convexity
        for _ in range(100):
            x = rng.normal(size=5) * 2
            alpha = rng.uniform(0.05, 2)
            rho = rng.uniform(0.0, min(s, 1 / alpha) * 0.99)
            z = f.shifted_prox(x, alpha, rho)
            assert np.linalg.norm(z + alpha * (f.grad(z) - rho * z) - x) <= 1e-9 * (1 + np.linalg.norm(x))

    def test_objective_dominates_along_random_directions(self):
        f, rng = random_term(10)
        s = f.strong_convexity
        alpha, rho = 0.9, 0.5 * s
        x = rng.normal(size=5)
        z = f.shifted_prox(x, alpha, rho)
        shifted_obj = lambda v: np.sum((v - x) ** 2) / (2 * alpha) + f.value(v) - 0.5 * rho * np.sum(v**2)
        base = shifted_obj(z)
        for _ in range(50):
            d = rng.normal(size=5)
            t = rng.uniform(-0.5, 0.5)
            assert base <= shifted_obj(z + t * d) + 1e-12

    def test_gates(self):
        f, _ = random_term(11)
        s = f.strong_convexity
        with pytest.raises(StepSizeError):
            f.shifted_prox(np.zeros(5), 2.0, 0.5)  # alpha * rho = 1
        with pytest.raises(NonConvexShiftError):
            f.shifted_prox(np.zeros(5), 1e-3, 2 * s)
        with pytest.raises(StepSizeError):
            f.shifted_prox(np.zeros(5), math.nan, 0.5 * s)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            f.shifted_prox(np.zeros(5), 1e-3, math.nan)


class TestProjection:
    # SubspaceConstraint(y, support) is f = 0.5||y - .||^2 + i_K: its prox is
    # the projection onto K of the quadratic's prox (z + alpha y)/(1 + alpha).
    def test_full_support(self):
        y, z = np.array([0.5, -1.0]), np.array([1.0, -2.0])
        np.testing.assert_array_equal(SubspaceConstraint(y, [0, 1]).prox(z, 1.0), (z + y) / 2.0)

    def test_empty_support(self):
        c = SubspaceConstraint(np.ones(2), [])
        np.testing.assert_array_equal(c.prox(np.ones(2), 1.0), np.zeros(2))
        assert c.value(np.zeros(2)) == 1.0

    def test_single_coordinate(self):
        c = SubspaceConstraint(np.array([1.0, 2.0]), [0])
        np.testing.assert_array_equal(c.prox(np.array([3.0, 4.0]), 1.0), [2.0, 0.0])

    def test_support_out_of_range(self):
        for support in ([5], [-1, 0]):
            with pytest.raises(ValueError, match=r"support indices must lie in \[0, 3\)"):
                SubspaceConstraint(np.zeros(3), support)

    @pytest.mark.parametrize(
        "support, entry",
        [([True, False, False, True, False, False], "True"), ([1.5], "1.5"), (["2"], "'2'")],
        ids=["boolean-mask", "float", "string"],
    )
    def test_support_entries_must_be_integers(self, support, entry):
        # A plain int() of each entry would read the mask as the support {0, 1},
        # [1.5] as {1} and ["2"] as {2}.
        with pytest.raises(ValueError, match=re.escape(f"support must hold integer indices, got {entry}")):
            SubspaceConstraint(np.zeros(6), support)

    def test_integer_supports_of_every_kind(self):
        masks = [SubspaceConstraint(np.zeros(6), s).mask for s in ([0, 3], np.array([0, 3]), range(0, 6, 3))]
        for mask in masks:
            np.testing.assert_array_equal(mask, [True, False, False, True, False, False])

    def test_observation_must_be_1d(self):
        with pytest.raises(ValueError, match=r"expected a 1-d observation, got shape \(2, 3\)"):
            SubspaceConstraint(np.ones((2, 3)), [0])

    def test_prox_uses_its_step(self):
        y, z = np.array([5.0, 6.0, 7.0]), np.array([1.0, 2.0, 3.0])
        c = SubspaceConstraint(y, [1])
        np.testing.assert_array_equal(c.prox(z, 1.0), [0.0, 4.0, 0.0])
        np.testing.assert_array_equal(c.prox(z, 3.0), [0.0, 5.0, 0.0])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(StepSizeError):
                c.prox(z, bad)

    def test_value_on_and_off_the_subspace(self):
        c = SubspaceConstraint(np.array([1.0, 2.0, 3.0]), [1])
        assert c.value(np.array([0.0, 5.0, 0.0])) == 9.5
        assert c.value(np.array([0.0, 5.0, -1e-300])) == np.inf
        assert c.value(np.array([np.nan, 0.0, 0.0])) == np.inf

    def test_value_of_a_stack_is_per_row(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=4)
        c = SubspaceConstraint(y, [0, 2])
        x = np.zeros((3, 2, 4))
        x[..., [0, 2]] = rng.normal(size=(3, 2, 2))
        x[1, 0, 3] = 0.5  # off the support
        x[2, 1, 1] = -2.0
        v = c.value(x)
        assert v.shape == (3, 2)
        assert np.isinf(v).tolist() == [[False, False], [True, False], [False, True]]
        for i in np.ndindex(3, 2):
            assert v[i].tobytes() == np.float64(c.value(x[i])).tobytes()
            if np.isfinite(v[i]):
                assert v[i] == pytest.approx(0.5 * np.sum((y - x[i]) ** 2), rel=1e-15)

    def test_reflection_contracts_on_the_subspace_only(self):
        # 2 prox - I has slope (1 - alpha)/(1 + alpha) on K and -1 off it.
        rng = np.random.default_rng(14)
        c = SubspaceConstraint(rng.normal(size=6), [0, 3, 4])
        on = c.mask
        for alpha in (0.3, 1.0, 2.5):
            slope = (1.0 - alpha) / (1.0 + alpha)
            for _ in range(200):
                x0, x1 = rng.normal(size=(2, 6)) * 5
                r0 = 2 * c.prox(x0, alpha) - x0
                r1 = 2 * c.prox(x1, alpha) - x1
                d = x0 - x1
                expected = math.sqrt(slope**2 * np.sum(d[on] ** 2) + np.sum(d[~on] ** 2))
                assert np.linalg.norm(r0 - r1) == pytest.approx(expected, rel=1e-12)
                assert np.linalg.norm(r0 - r1) <= np.linalg.norm(d) * (1 + 1e-15)

    def test_shifted_prox_on_the_subspace(self):
        # The shift by rho <= s = 1 rescales the quadratic's prox on K:
        # argmin |v - z|^2/(2 alpha) + 0.5 |y - v|^2 - (rho/2)|v|^2 is
        # (z + alpha y)/(1 + alpha - alpha rho) there.
        rng = np.random.default_rng(16)
        y, z = rng.normal(size=(2, 5))
        c = SubspaceConstraint(y, [1, 3])
        for alpha, rho in ((0.5, 0.9), (1.0, 0.5), (3.0, 0.3), (0.7, 1.0)):
            out = c.shifted_prox(z, alpha, rho)
            np.testing.assert_allclose(out[c.mask], ((z + alpha * y) / (1 + alpha - alpha * rho))[c.mask], rtol=1e-14)
            np.testing.assert_array_equal(out[~c.mask], 0.0)
        with pytest.raises(NonConvexShiftError):
            c.shifted_prox(z, 0.5, 1.5)
        with pytest.raises(StepSizeError):
            c.shifted_prox(z, 2.0, 0.5)  # alpha * rho = 1


def test_reflection_contraction_bound():
    # 2*prox_f - I contracts by max(|1-a*sigma|/(1+a*sigma), |1-a*s|/(1+a*s))
    rng = np.random.default_rng(15)
    f = QuadraticTerm(LinearMap(rng.normal(size=(10, 6))), rng.normal(size=10))
    s, sigma = f.operator.gram_extremes()
    for alpha in (0.05, 1 / np.sqrt(s * sigma), 2.0):
        bound = max(abs(1 - alpha * sigma) / (1 + alpha * sigma), abs(1 - alpha * s) / (1 + alpha * s))
        for _ in range(400):
            x0, x1 = rng.normal(size=(2, 6)) * 4
            gap = np.linalg.norm(x0 - x1)
            if gap < 1e-12:
                continue
            r0 = 2 * f.prox(x0, alpha) - x0
            r1 = 2 * f.prox(x1, alpha) - x1
            assert np.linalg.norm(r0 - r1) <= bound * gap + 1e-9
