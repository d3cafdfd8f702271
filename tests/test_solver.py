import dataclasses
import json
import math

import numpy as np
import pytest

from drsplit import (
    EXP2,
    DivergenceError,
    FirmPenalty,
    FactorizationError,
    LinearMap,
    NonConvexShiftError,
    Problem,
    QuadraticPlusPenalty,
    QuadraticTerm,
    SoftPenalty,
    SolverConfig,
    StepSizeError,
    SubspaceConstraint,
    VARIANTS,
    ZeroPenalty,
    build_instance,
    check_step,
    double_reflection,
    ista_step,
    reflect,
    run,
    step_bound,
)
from drsplit.experiment import block_problem, build_subspace_demo, derive_seeds
from drsplit.solver import default_alpha, dr_step, prox_pair
from oracles import grid_minimize


def identity_problem(penalty, y):
    y = np.asarray(y, dtype=float)
    return Problem(QuadraticTerm(LinearMap(np.eye(y.size)), y), penalty)


@pytest.fixture(scope="module")
def planted():
    """2-d instance with a minimizer known from branchwise optimality.

    H = diag(2, 1), y = (2, 0.6), firm penalty (tau=1, rho=0.5): coordinate 0
    solves 4x - 4 + 1 - 0.5x = 0 in the middle band, coordinate 1 sits at the
    dead-zone kink since |grad| = 0.6 <= tau.
    """
    problem = identity = None
    h = LinearMap(np.diag([2.0, 1.0]))
    y = np.array([2.0, 0.6])
    penalty = FirmPenalty(1.0, 0.5)
    problem = Problem(QuadraticTerm(h, y), penalty)
    x_star = np.array([6.0 / 7.0, 0.0])
    return problem, x_star


class TestPlantedMinimizer:
    def test_minimizer_against_grid(self, planted):
        problem, x_star = planted
        c = np.array([2.0, 1.0])
        y = np.array([2.0, 0.6])
        p = problem.penalty
        for i in range(2):
            obj = lambda t: 0.5 * (y[i] - c[i] * t) ** 2 + p.pointwise(t)
            assert x_star[i] == pytest.approx(grid_minimize(obj, -4, 4), abs=1e-6)

    def test_fixed_point_of_gf_step(self, planted):
        problem, x_star = planted
        alpha = 0.5
        z = x_star + alpha * problem.smooth.grad(x_star)
        for lam in (0.3, 0.5, 0.9):
            np.testing.assert_allclose(dr_step(problem, z, alpha, "dr-main-gf", lam), z, atol=1e-10)
        # the driver point recovers the minimizer through the f-prox
        np.testing.assert_allclose(problem.smooth.prox(z, alpha), x_star, atol=1e-12)

    def test_fixed_point_of_fg_step(self, planted):
        problem, x_star = planted
        alpha = 0.5
        z = x_star + alpha * problem.smooth.grad(x_star)
        q = 2 * x_star - z
        np.testing.assert_allclose(dr_step(problem, q, alpha, "dr-main-fg", 0.5), q, atol=1e-10)
        np.testing.assert_allclose(problem.penalty.prox(q, alpha), x_star, atol=1e-12)

    def test_ista_fixed_point_one_dim(self):
        problem = Problem(QuadraticTerm(LinearMap([[2.0]]), [2.0]), FirmPenalty(1.0, 0.5))
        x_star = np.array([6.0 / 7.0])
        np.testing.assert_allclose(ista_step(problem, x_star, 0.25), x_star, atol=1e-14)


class TestReflect:
    def test_identity_prox(self):
        p = ZeroPenalty()
        z = np.array([1.0, -2.0])
        np.testing.assert_array_equal(reflect(p.prox, z, 0.7), z)

    def test_quadratic_scalar_factor(self):
        f = QuadraticTerm(LinearMap(np.eye(2)), np.zeros(2))
        z = np.array([2.0, -4.0])
        alpha = 0.5
        np.testing.assert_allclose(reflect(f.prox, z, alpha), (1 - alpha) / (1 + alpha) * z, atol=1e-14)

    def test_firm_dead_zone_negates(self):
        p = FirmPenalty(2.0, 1.0)
        z = np.array([0.3, -0.5])
        np.testing.assert_allclose(reflect(p.prox, z, 0.5), -z, atol=1e-15)


class TestStepValidators:
    def test_main_bound_value(self):
        check_step("dr-main-fg", 0.4, sigma=4.0, rho=1.0)
        assert step_bound("dr-main-fg", 4.0, 1.0) == pytest.approx(0.5)
        with pytest.raises(StepSizeError):
            check_step("dr-main-fg", 0.51, 4.0, 1.0)

    def test_main_unbounded_at_zero_modulus(self):
        check_step("dr-main-fg", 1e9, sigma=4.0, rho=0.0)
        assert math.isinf(step_bound("dr-main-fg", 4.0, 0.0))

    def test_main_boundary_inclusive(self):
        check_step("dr-main-fg", 1.0, sigma=1.0, rho=1.0)

    def test_main_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_step("dr-main-fg", 0.1, sigma=1.0, rho=2.0)
        with pytest.raises(ValueError, match="need sigma >= rho"):
            step_bound("dr-main-fg", math.nan, 1.0)
        with pytest.raises(StepSizeError, match="needs the gradient Lipschitz constant"):
            step_bound("dr-main-fg", None, 0.5)

    def test_ista_needs_positive_sigma(self):
        assert step_bound("ista", 4.0, 1.0) == 0.25
        for sigma in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="ista needs sigma > 0"):
                step_bound("ista", sigma, 1.0)

    def test_shift_strict(self):
        check_step("dr-shift-fg", 0.999, None, 1.0)
        with pytest.raises(StepSizeError):
            check_step("dr-shift-fg", 1.0, None, 1.0)
        with pytest.raises(ValueError, match="rho must be nonnegative"):
            check_step("dr-shift-fg", 0.5, None, math.nan)

    def test_shift_zero_modulus(self):
        check_step("dr-shift-fg", 1e12, None, 0.0)

    def test_shift_rejects_nonconvex_shift(self):
        check_step("dr-shift-gf", 0.5, None, 0.5, s=0.5)
        with pytest.raises(NonConvexShiftError):
            check_step("dr-shift-gf", 0.5, None, 0.5, s=0.0)
        with pytest.raises(NonConvexShiftError):
            check_step("dr-shift-gf", 0.5, None, 0.5, s=math.nan)

    def test_every_variant_has_a_bound(self):
        for variant in VARIANTS:
            assert step_bound(variant, 4.0, 1.0) > 0
            with pytest.raises(ValueError, match="rho must be nonnegative"):
                step_bound(variant, 4.0, math.nan)
        with pytest.raises(ValueError):
            step_bound("dr-unknown", 4.0, 1.0)

    def test_default_alpha_of_an_unbounded_step(self):
        # At rho = 0 both DR bounds are infinite: the default is 1/sigma, and
        # without a sigma there is none.
        problem = Problem(QuadraticTerm(LinearMap(np.diag([2.0, 1.0])), np.ones(2)), SoftPenalty(1.0))
        for variant in ("dr-main-fg", "dr-shift-gf"):
            assert default_alpha(problem, variant) == 0.25
        demo, _ = build_subspace_demo(np.ones(3), [0], FirmPenalty(1.0, 0.5))
        with pytest.raises(StepSizeError, match="no finite step bound"):
            default_alpha(demo, "dr-shift-fg")


class TestGates:
    def test_main_step_gate_enforced(self, planted):
        problem, _ = planted
        with pytest.raises(StepSizeError):
            dr_step(problem, np.zeros(2), 5.0, "dr-main-fg")

    def test_shift_step_gate_enforced(self, planted):
        problem, _ = planted
        with pytest.raises(StepSizeError):
            dr_step(problem, np.zeros(2), 2.0, "dr-shift-fg")  # alpha * rho = 1

    def test_ista_gate(self, planted):
        problem, _ = planted
        with pytest.raises(StepSizeError):
            ista_step(problem, np.zeros(2), alpha=0.3)  # 1/sigma = 0.25

    def test_relaxation_range(self, planted):
        problem, _ = planted
        with pytest.raises(ValueError):
            dr_step(problem, np.zeros(2), 0.5, "dr-main-fg", relaxation=1.0)
        with pytest.raises(ValueError):
            SolverConfig("dr-main-fg", relaxation=0.0)

    def test_ista_has_no_prox_pair(self, planted):
        problem, _ = planted
        with pytest.raises(ValueError, match="unknown double-reflection variant 'ista'"):
            prox_pair(problem, 0.1, "ista")


class TestNullPenaltyConvergence:
    @pytest.mark.parametrize("variant", ["dr-main-fg", "dr-main-gf"])
    def test_converges_to_observation(self, variant):
        y = np.array([1.0, -2.0, 0.5])
        problem = identity_problem(ZeroPenalty(), y)
        trace = run(problem, SolverConfig(variant, alpha=1.0, max_iters=400, tol=1e-14))
        np.testing.assert_allclose(trace.final_x, y, atol=1e-10)

    def test_ista_gradient_step_only(self):
        y = np.array([2.0, 0.0])
        problem = identity_problem(ZeroPenalty(), y)
        x = np.array([1.0, 1.0])
        alpha = 0.5
        np.testing.assert_allclose(ista_step(problem, x, alpha), x - alpha * (x - y), atol=1e-15)


class TestExp1Convergence:
    def test_step_norm_decreases_to_tolerance(self, exp1_problem):
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=3000))
        sn = trace.step_norm[1:]
        assert sn[-1] <= 1e-8
        # averaged nonexpansive iterations have nonincreasing step norms
        # (checked above the floating-point noise floor)
        live = sn > 1e-13
        assert np.all(sn[1:][live[:-1]] <= sn[:-1][live[:-1]] * (1 + 1e-10))

    def test_cross_order_extractions_agree(self, exp1_problem):
        fg = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=3000))
        gf = run(exp1_problem, SolverConfig("dr-main-gf", max_iters=3000))
        assert np.linalg.norm(fg.final_x - gf.final_x) <= 1e-6

    def test_shift_matches_main_minimizer(self, exp1_problem):
        main = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=3000))
        shift = run(exp1_problem, SolverConfig("dr-shift-fg", max_iters=3000))
        assert np.linalg.norm(main.final_x - shift.final_x) <= 1e-6

    def test_final_fixed_point_residual(self, exp1_problem):
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=3000))
        assert trace.fp_residual[-1] <= 1e-8

    def test_final_cost_not_above_ista(self, exp1_problem):
        ref = run(exp1_problem, SolverConfig("ista", max_iters=10000))
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=3000))
        assert trace.final_cost <= ref.final_cost + 1e-6 * (1 + abs(ref.final_cost))


class TestShiftReducesToMain:
    def test_single_step_at_tiny_modulus(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=4)
        problem = identity_problem(FirmPenalty(0.8, 1e-12), y)
        z = rng.normal(size=4)
        a = 0.7
        np.testing.assert_allclose(
            dr_step(problem, z, a, "dr-shift-fg"), dr_step(problem, z, a, "dr-main-fg"), atol=1e-9
        )
        np.testing.assert_allclose(
            dr_step(problem, z, a, "dr-shift-gf"), dr_step(problem, z, a, "dr-main-gf"), atol=1e-9
        )

    @pytest.mark.parametrize("penalty", [SoftPenalty(0.5), ZeroPenalty()])
    def test_exact_sequence_match_at_zero_modulus(self, penalty):
        rng = np.random.default_rng(1)
        h = LinearMap(rng.normal(size=(6, 4)))
        problem = Problem(QuadraticTerm(h, rng.normal(size=6)), penalty)
        z_main = z_shift = rng.normal(size=4)
        for _ in range(100):
            z_main = dr_step(problem, z_main, 0.8, "dr-main-fg")
            z_shift = dr_step(problem, z_shift, 0.8, "dr-shift-fg")
            assert np.linalg.norm(z_main - z_shift) <= 1e-12


class TestNonexpansiveness:
    def test_both_compositions_at_the_bound(self, exp1_instance, exp1_problem):
        s, sigma = exp1_instance.operator.gram_extremes()
        alpha = 1.0 / math.sqrt(sigma * exp1_problem.rho)
        radius = 3 * exp1_instance.penalty.tau / exp1_instance.penalty.rho
        rng = np.random.default_rng(2)
        for variant in ("dr-main-fg", "dr-main-gf"):
            op = double_reflection(exp1_problem, alpha, variant)
            for _ in range(1000):
                z0 = rng.normal(size=exp1_problem.dim) * rng.uniform(0, radius)
                z1 = rng.normal(size=exp1_problem.dim) * rng.uniform(0, radius)
                gap = np.linalg.norm(z0 - z1)
                if gap < 1e-12:
                    continue
                assert np.linalg.norm(op(z0) - op(z1)) <= (1 + 1e-12) * gap


def test_fejer_monotone_distance_to_limit(exp1_problem):
    from drsplit.solver import default_alpha

    limit = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=4000)).final_z
    alpha = default_alpha(exp1_problem, "dr-main-fg")
    z = np.zeros(exp1_problem.dim)
    dist = np.linalg.norm(z - limit)
    for _ in range(500):
        z = dr_step(exp1_problem, z, alpha, "dr-main-fg", 0.5)
        new_dist = np.linalg.norm(z - limit)
        assert new_dist <= dist + 1e-10
        dist = new_dist


class TestRun:
    def test_zero_iterations_records_initial_point(self, exp1_problem):
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=0))
        assert trace.iterations.tolist() == [0]
        assert math.isnan(trace.step_norm[0])
        np.testing.assert_array_equal(trace.final_z, np.zeros(exp1_problem.dim))
        assert not trace.converged

    def test_deterministic_traces(self, exp1_problem, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            trace = run(exp1_problem, SolverConfig("dr-shift-gf", max_iters=200))
            p = tmp_path / name
            trace.to_csv(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_divergence_is_reported_with_iteration(self):
        class ExplodingPenalty:
            modulus = 0.0

            def value(self, x):
                return 0.0

            def prox(self, x, alpha):
                return np.asarray(x) * 1e160 + 1e160

            def shifted_prox(self, x, alpha):
                return self.prox(x, alpha)

        problem = identity_problem(ExplodingPenalty(), np.zeros(3))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"iteration \d+"):
                run(problem, SolverConfig("dr-main-fg", alpha=1.0, max_iters=50))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_data_is_divergence(self, variant):
        # -gf variants extract x0 = prox_f(0), a solve on the data itself
        inst = build_instance(EXP2, seed=4)
        y = inst.y.copy()
        y[5] = np.nan
        problem = dataclasses.replace(inst, y=y).problem()
        with pytest.raises(DivergenceError, match=rf"iteration \d+ of {variant}"):
            run(problem, SolverConfig(variant, max_iters=5))
        if variant.endswith("-gf"):  # the x0 check alone, with no step taken
            with pytest.raises(DivergenceError, match=rf"iteration 0 of {variant}"):
                run(problem, SolverConfig(variant, max_iters=0))

    def test_nonconvex_shift_is_not_divergence(self):
        y = np.random.default_rng(3).normal(size=8)
        problem = Problem(SubspaceConstraint(8, [0, 2, 4]), QuadraticPlusPenalty(y, FirmPenalty(1.0, 1.5)))
        with pytest.raises(NonConvexShiftError):
            run(problem, SolverConfig("dr-shift-fg", alpha=0.5, max_iters=5))

    def test_own_errors_inside_a_step_propagate_unwrapped(self):
        class BrokenTerm(QuadraticTerm):
            # only the step itself calls the f-prox of dr-main-fg
            def prox(self, x, alpha):
                raise FactorizationError("broken on purpose")

        problem = Problem(BrokenTerm(LinearMap(np.eye(3)), np.ones(3)), ZeroPenalty())
        with pytest.raises(FactorizationError):
            run(problem, SolverConfig("dr-main-fg", alpha=1.0, max_iters=5))

        class BuggyPenalty(ZeroPenalty):
            def prox(self, x, alpha):
                raise ValueError("bug")

        # A plain bug in a user's term is not divergence, whether the g-prox
        # extracts x0 (dr-main-fg) or only the step calls it (unaudited gf).
        problem = identity_problem(BuggyPenalty(), np.ones(3))
        for config in (
            SolverConfig("dr-main-fg", alpha=1.0, max_iters=5),
            SolverConfig("dr-main-gf", alpha=1.0, max_iters=5, audit=False),
        ):
            with pytest.raises(ValueError, match="^bug$") as raised:
                run(problem, config)
            assert not isinstance(raised.value, DivergenceError)

    def test_gate_violation_raises(self, exp1_problem):
        with pytest.raises(StepSizeError):
            run(exp1_problem, SolverConfig("dr-shift-fg", alpha=2.0 / exp1_problem.rho, max_iters=5))

    def test_reference_distance_column(self, exp1_problem):
        ref = run(exp1_problem, SolverConfig("ista", max_iters=5000))
        trace = run(
            exp1_problem,
            SolverConfig("dr-main-fg", max_iters=500, record_reference=ref.final_x),
        )
        assert trace.dist_to_ref[0] == pytest.approx(np.linalg.norm(ref.final_x))
        assert trace.iterations_to(1e-6) is not None

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig("dr-unknown")

    def test_reference_of_the_wrong_shape_rejected(self, exp1_problem):
        config = SolverConfig("ista", max_iters=5, record_reference=np.zeros(exp1_problem.dim + 1))
        with pytest.raises(ValueError, match=r"reference has shape \(91,\), iterates have shape \(90,\)"):
            run(exp1_problem, config)


class TestStopDistAndAudit:
    THRESHOLD = 1e-6

    @pytest.fixture(scope="class")
    def reference(self, exp1_problem):
        return run(exp1_problem, SolverConfig("ista", max_iters=5000, audit=False)).final_x

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_stop_dist_trace_is_a_prefix_of_the_full_trace(self, exp1_problem, reference, variant):
        config = SolverConfig(variant, max_iters=1000, record_reference=reference)
        full = run(exp1_problem, config)
        stopped = run(exp1_problem, dataclasses.replace(config, stop_dist=self.THRESHOLD))
        k = full.iterations_to(self.THRESHOLD)
        assert k is not None and stopped.n_iters == k == stopped.iterations_to(self.THRESHOLD)
        assert stopped.stop_reason == "stop_dist" and not stopped.converged
        for column in ("iterations", "cost", "step_norm", "fp_residual", "dist_to_ref"):
            np.testing.assert_array_equal(getattr(stopped, column), getattr(full, column)[: k + 1])
        cut = run(exp1_problem, dataclasses.replace(config, max_iters=k))
        np.testing.assert_array_equal(stopped.final_x, cut.final_x)
        np.testing.assert_array_equal(stopped.final_z, cut.final_z)

    def test_stop_reasons(self, exp1_problem, reference):
        capped = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=5))
        assert capped.stop_reason == "max_iters" and capped.n_iters == 5
        tol = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=2000, tol=1e-9))
        assert tol.stop_reason == "tol" and tol.converged and tol.n_iters < 2000
        # the initial point is checked too
        at_start = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=5, record_reference=reference, stop_dist=1e9))
        assert at_start.stop_reason == "stop_dist" and at_start.n_iters == 0

    def test_inconsistent_options_rejected(self, reference):
        with pytest.raises(ValueError, match="stop_dist must be nonnegative"):
            SolverConfig("ista", record_reference=reference, stop_dist=-1e-6)
        with pytest.raises(ValueError, match="stop_dist needs record_reference"):
            SolverConfig("ista", stop_dist=1e-6)
        with pytest.raises(ValueError, match="stop_dist must be nonnegative"):
            SolverConfig("ista", record_reference=reference, stop_dist=np.nan)
        for bad in (-1e-6, np.nan):
            with pytest.raises(ValueError, match="tol must be nonnegative"):
                SolverConfig("dr-main-fg", tol=bad, max_iters=300)
        with pytest.raises(ValueError, match="max_iters must be nonnegative, got -1"):
            SolverConfig("ista", max_iters=-1)

    @pytest.mark.parametrize("case", ["single", "shedding_block", "cycling_block"])
    def test_unaudited_run_differs_only_in_cost_and_residual(self, case, exp1_problem, reference):
        # audit=False still records the distance and stops on it: every other
        # array matches the audited run bit for bit, cost and residual are NaN.
        if case == "single":
            problem = exp1_problem
            config = SolverConfig("dr-main-fg", max_iters=1000, record_reference=reference, stop_dist=self.THRESHOLD)
        else:
            problem = block_problem([build_instance(EXP2, seed) for seed in derive_seeds(0, 6)])
        if case == "shedding_block":
            x_ref = run(problem, SolverConfig("ista", max_iters=EXP2.reference_iters, audit=False)).final_x
            config = SolverConfig(
                "dr-main-fg", max_iters=EXP2.max_iters, record_reference=x_ref, stop_dist=EXP2.dist_threshold
            )
        elif case == "cycling_block":
            # The last three rows cycle and never meet stop_dist.
            x_ref = run(problem, SolverConfig("dr-main-fg", max_iters=1000)).final_x
            config = SolverConfig("ista", max_iters=3000, record_reference=x_ref, stop_dist=2.7e-15)
        audited = run(problem, config)
        bare = run(problem, dataclasses.replace(config, audit=False))
        for name in ("iterations", "step_norm", "dist_to_ref", "final_x", "final_z"):
            got, want = getattr(bare, name), getattr(audited, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        for name in ("converged", "stop_reason", "row_iters"):
            np.testing.assert_array_equal(getattr(bare, name), getattr(audited, name))
        for name in ("cost", "fp_residual"):
            column = getattr(bare, name)
            assert column.shape == audited.step_norm.shape and np.isnan(column).all(), name
            assert not np.isnan(getattr(audited, name)).all(), name
        if case == "single":
            assert audited.stop_reason == "stop_dist"
        elif case == "shedding_block":
            assert set(audited.stop_reason) == {"stop_dist"} and len(set(audited.row_iters.tolist())) > 1
        else:
            assert list(audited.stop_reason) == ["stop_dist"] * 3 + ["max_iters"] * 3


class TestTraceSerialization:
    def test_csv_schema_and_roundtrip(self, exp1_problem, tmp_path):
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=20))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,cost,step_norm,fp_residual,dist_to_ref"
        assert len(lines) == trace.iterations.size + 1
        row = lines[2].split(",")
        assert int(row[0]) == 1
        assert float(row[1]) == trace.cost[1]  # 17 significant digits round-trip
        assert float(row[2]) == trace.step_norm[1]
        assert math.isnan(float(row[4]))  # no reference configured

    def test_json_summary(self, exp1_problem):
        trace = run(exp1_problem, SolverConfig("dr-main-gf", max_iters=15, tol=1e-14))
        data = json.loads(json.dumps(trace.to_json_dict()))  # and it serializes
        assert data["config"]["variant"] == "dr-main-gf"
        assert data["config"]["relaxation"] == 0.5
        assert data["iterations"] == trace.n_iters
        np.testing.assert_allclose(np.array(data["final_x"]), trace.final_x)

    @pytest.mark.parametrize("audit", [True, False])
    def test_json_summary_is_strict_json(self, exp1_problem, audit):
        # The final cost is computed audited or not.
        trace = run(exp1_problem, SolverConfig("dr-main-fg", max_iters=50, audit=audit))
        data = json.loads(json.dumps(trace.to_json_dict(), allow_nan=False))
        assert data["final_cost"] == trace.final_cost == float(exp1_problem.cost(trace.final_x))
        assert not audit or trace.final_cost == trace.cost[-1]  # the audit's last row, bit for bit
        assert data["converged"] is False

    @pytest.mark.parametrize("iters", range(6))
    def test_json_summary_writes_an_infinite_cost_as_null(self, iters):
        # The subspace indicator is inf at a final_x off the subspace: null, not Infinity.
        y = np.random.default_rng(6).normal(0, 2, 16)
        problem, _ = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
        trace = run(problem, SolverConfig("dr-shift-fg", alpha=1.0, max_iters=iters))
        assert trace.final_cost == math.inf
        data = json.loads(json.dumps(trace.to_json_dict(), allow_nan=False))
        assert data["final_cost"] is None
