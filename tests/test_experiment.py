import dataclasses
import json
import math
import re

import numpy as np
import pytest

from drsplit import (
    EXP1,
    EXP2,
    FilterDesignError,
    FirmPenalty,
    ProblemInstance,
    add_noise_snr,
    build_instance,
    build_subspace_demo,
    design_filter,
    generate_sparse_signal,
    run_experiment,
)
from drsplit import InvalidFilterError, experiment, linalg
from drsplit.experiment import _condition_ratio, derive_seeds


class TestSparseSignal:
    def test_zero_sparsity(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(generate_sparse_signal(10, 0, rng), np.zeros(10))

    def test_full_support(self):
        rng = np.random.default_rng(1)
        x = generate_sparse_signal(8, 8, rng)
        assert np.all(x != 0.0)
        assert np.all((np.abs(x) >= 1.0) & (np.abs(x) <= 2.0))

    def test_sparsity_count(self):
        rng = np.random.default_rng(2)
        x = generate_sparse_signal(50, 9, rng)
        assert np.count_nonzero(x) == 9

    def test_reproducible(self):
        a = generate_sparse_signal(30, 5, np.random.default_rng(7))
        b = generate_sparse_signal(30, 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError):
            generate_sparse_signal(4, 5, np.random.default_rng(0))


class TestNoise:
    def test_huge_snr_leaves_signal_untouched(self):
        rng = np.random.default_rng(3)
        clean = rng.normal(size=64)
        noisy, _ = add_noise_snr(clean, 300.0, rng)
        assert np.linalg.norm(noisy - clean) <= 1e-10 * np.linalg.norm(clean)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_power_ratio(self, snr_db):
        rng = np.random.default_rng(4)
        clean = rng.normal(size=120) * 3
        noisy, std = add_noise_snr(clean, snr_db, rng)
        u = noisy - clean
        ratio = np.mean(clean**2) / np.var(u)
        assert ratio == pytest.approx(10 ** (snr_db / 10.0), rel=0.30)
        # the generating std hits the target exactly
        assert np.mean(clean**2) / std**2 == pytest.approx(10 ** (snr_db / 10.0), rel=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            add_noise_snr(np.zeros(5), 10.0, np.random.default_rng(0))


class TestFilterDesign:
    def test_near_impulse_ratio_is_one(self):
        assert _condition_ratio(1e-4, 31, 90) == pytest.approx(1.0, abs=1e-3)

    def test_ratio_monotone_in_decay(self):
        ratios = [_condition_ratio(a, 31, 90) for a in np.linspace(0.05, 0.95, 10)]
        assert np.all(np.diff(ratios) > 0)

    @pytest.mark.parametrize("target", [15.96, 5.44])
    def test_hits_target_within_tolerance(self, target):
        from drsplit import LinearMap, convolution_matrix

        taps = design_filter(target, 31, 90, tol=0.02)
        s, sigma = LinearMap(convolution_matrix(taps, 90)).gram_extremes()
        assert abs(sigma / s - target) <= 0.02 * target
        assert taps.shape == (31,)

    def test_unreachable_target(self):
        with pytest.raises(FilterDesignError):
            design_filter(1e9, 31, 90)

    def test_target_must_exceed_one(self):
        with pytest.raises(ValueError):
            design_filter(1.0, 31, 90)


class TestBuildInstance:
    def test_penalty_calibration_is_exact(self):
        inst = build_instance(EXP1, seed=11)
        assert inst.penalty.tau == 3.0 * inst.penalty.rho * inst.noise_std

    def test_modulus_rule_and_gates(self):
        inst1 = build_instance(EXP1, seed=11)
        s, sigma = inst1.operator.gram_extremes()
        assert inst1.penalty.rho == pytest.approx(s, rel=1e-15)
        # with rho = s the direct-variant bound collapses to 1/sqrt(sigma*s)
        from drsplit.solver import step_bound

        assert step_bound("dr-main-fg", sigma, inst1.penalty.rho) == pytest.approx(
            1.0 / math.sqrt(sigma * s)
        )

        inst2 = build_instance(EXP2, seed=11)
        s2, _ = inst2.operator.gram_extremes()
        assert inst2.penalty.rho == pytest.approx(s2 / 2.0, rel=1e-15)

    def test_condition_ratio_within_spec(self):
        for spec in (EXP1, EXP2):
            inst = build_instance(spec, seed=3)
            assert abs(inst.condition_ratio() - spec.target_ratio) <= spec.ratio_tol * spec.target_ratio

    def test_deterministic(self):
        a = build_instance(EXP2, seed=21)
        b = build_instance(EXP2, seed=21)
        assert a.to_json_dict() == b.to_json_dict()

    def test_observation_shape(self):
        inst = build_instance(EXP1, seed=5)
        assert inst.y.shape == (EXP1.signal_len + EXP1.filter_len - 1,)
        assert inst.ground_truth.shape == (EXP1.signal_len,)
        assert np.count_nonzero(inst.ground_truth) == EXP1.sparsity


class TestSharedOperator:
    def test_seeds_of_a_spec_share_one_operator(self):
        assert build_instance(EXP2, seed=1).operator is build_instance(EXP2, seed=2).operator

    def test_warm_run_computes_no_gram_spectrum(self, monkeypatch):
        build_instance(EXP2, seed=0)  # warms the filter design cache
        calls = []
        eigvalsh = linalg.np.linalg.eigvalsh
        monkeypatch.setattr(linalg.np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        report = run_experiment(dataclasses.replace(EXP2, n_seeds=3))
        assert len(report.ok_results()) == 3
        assert calls == []


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = linalg.np.linalg.eigvalsh
    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    return calls


def filter_instance(taps) -> dict:
    """A small instance on filter taps, as ProblemInstance.to_json_dict writes it."""
    signal = [1.0, 0.0, -1.0, 0.5]
    return {
        "filter": list(taps),
        "signal": signal,
        "y": np.convolve(taps, signal).tolist(),
        "noise_std": 0.1,
        "seed": 0,
        "penalty": {"tau": 0.3, "rho": 0.1},
    }


class TestOneOperatorPerFilter:
    def saved(self, tmp_path, spec, seeds) -> list:
        paths = []
        for seed in seeds:
            paths.append(tmp_path / f"instance_{seed}.json")
            build_instance(spec, seed).save(paths[-1])
        return paths

    def test_loads_of_one_filter_share_one_operator(self, tmp_path):
        first, second = self.saved(tmp_path, EXP2, [1, 2])
        assert ProblemInstance.load(first).operator is ProblemInstance.load(second).operator

    def test_loaded_seed_shares_its_spec_design_operator(self, tmp_path):
        (path,) = self.saved(tmp_path, EXP1, [3])
        assert ProblemInstance.load(path).operator is build_instance(EXP1, 4).operator is experiment._operator(EXP1)

    def test_warm_loads_compute_no_gram_spectrum(self, tmp_path, monkeypatch):
        paths = self.saved(tmp_path, EXP2, range(5))  # warms the operator of EXP2's filter
        calls = count_eigvalsh(monkeypatch)
        for path in paths:
            ProblemInstance.load(path).problem()
        assert calls == []

    def test_each_filter_has_its_own_operator_in_a_bounded_cache(self):
        filters = [(1.0, 0.5 + k / 64) for k in range(experiment._filter_operator.cache_info().maxsize + 1)]
        operators = [ProblemInstance.from_json_dict(filter_instance(taps)).operator for taps in filters]
        assert len({id(op) for op in operators}) == len(filters)
        for taps, op in zip(filters, operators):
            np.testing.assert_array_equal(op.matrix, linalg.convolution_matrix(taps, 4))
        assert ProblemInstance.from_json_dict(filter_instance(filters[-1])).operator is operators[-1]
        rebuilt = ProblemInstance.from_json_dict(filter_instance(filters[0])).operator
        assert rebuilt is not operators[0]
        np.testing.assert_array_equal(rebuilt.matrix, operators[0].matrix)

    def test_signed_zero_taps_are_their_own_filter(self):
        plain = ProblemInstance.from_json_dict(filter_instance((1.0, 0.0, 0.5)))
        signed = ProblemInstance.from_json_dict(filter_instance((1.0, -0.0, 0.5)))
        assert signed.operator.matrix.tobytes() == linalg.convolution_matrix((1.0, -0.0, 0.5), 4).tobytes()
        with pytest.raises(ValueError, match="does not share"):
            experiment.block_problem([plain, signed])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_taps_fail_on_every_load(self, bad, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(filter_instance((1.0, 0.5)) | {"filter": [1.0, bad]}))
        for _ in range(2):
            with pytest.raises(InvalidFilterError):
                ProblemInstance.load(path)


class TestInstanceSerialization:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        inst = build_instance(EXP2, seed=9)
        path = tmp_path / "instance.json"
        inst.save(path)
        back = ProblemInstance.load(path)
        assert back.filter_taps == inst.filter_taps
        np.testing.assert_array_equal(back.ground_truth, inst.ground_truth)
        np.testing.assert_array_equal(back.y, inst.y)
        assert back.noise_std == inst.noise_std
        assert back.seed == inst.seed
        assert back.penalty.tau == inst.penalty.tau
        assert back.penalty.rho == inst.penalty.rho
        np.testing.assert_array_equal(back.operator.matrix, inst.operator.matrix)

    def test_schema_fields(self, tmp_path):
        inst = build_instance(EXP1, seed=2)
        path = tmp_path / "instance.json"
        inst.save(path)
        data = json.loads(path.read_text())
        assert set(data) == {"filter", "signal", "y", "noise_std", "seed", "penalty"}
        assert set(data["penalty"]) == {"tau", "rho"}


class TestSubspaceDemo:
    def test_oracle_formula(self):
        y = np.array([3.0, -0.2, 1.4, 2.0])
        penalty = FirmPenalty(1.0, 0.5)
        problem, oracle = build_subspace_demo(y, [0, 1], penalty)
        assert problem.rho == 0.0  # quadratic absorbs the weak convexity
        np.testing.assert_allclose(oracle[:2], penalty.prox(y[:2], 1.0), atol=1e-15)
        np.testing.assert_array_equal(oracle[2:], [0.0, 0.0])

    def test_oracle_minimizes_by_grid(self):
        from oracles import grid_minimize

        y = np.array([1.7, -2.6])
        penalty = FirmPenalty(1.0, 0.5)
        _, oracle = build_subspace_demo(y, [0, 1], penalty)
        for i in range(2):
            obj = lambda t: 0.5 * (y[i] - t) ** 2 + penalty.pointwise(t)
            assert oracle[i] == pytest.approx(grid_minimize(obj, -6, 6), abs=1e-6)


class TestRunExperiment:
    def test_trivial_run_reports_initial_state(self):
        spec = dataclasses.replace(EXP1, n_seeds=1, max_iters=0, reference_iters=0)
        report = run_experiment(spec, master_seed=0)
        assert len(report.results) == 1
        row = report.results[0]
        assert row.failed is None
        # the reference is the certified minimizer, not the initial point,
        # which is all a run of 0 iterations reaches
        assert row.reference == "kkt"
        assert all(iters is None for iters in row.iterations_to_threshold.values())
        assert set(row.iterations_to_threshold) == {"ista", "dr-main-fg", "dr-shift-fg"}

    def test_small_run_structure_and_files(self, tmp_path):
        spec = dataclasses.replace(EXP2, n_seeds=2, max_iters=400, reference_iters=3000)
        report = run_experiment(spec, master_seed=1, out_dir=tmp_path)
        assert len(report.results) == 2
        med = report.median_iterations()
        assert med["dr-main-fg"] is not None
        wins, total = report.count_first_faster()
        assert total == 2
        for row in report.results:
            ista_cost = row.final_cost["ista"]
            for variant in ("dr-main-fg", "dr-shift-fg"):
                assert abs(row.final_cost[variant] - ista_cost) <= 1e-6 * (1 + abs(ista_cost))
        assert (tmp_path / "report.json").exists()
        for idx in range(2):
            assert (tmp_path / f"seed_{idx:03d}" / "instance.json").exists()
            assert (tmp_path / f"seed_{idx:03d}" / "dr-main-fg.csv").exists()
            assert (tmp_path / f"seed_{idx:03d}" / "ista.csv").exists()
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["aggregate"]["seeds_compared"] == 2

    def test_report_without_seeds_is_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        run_experiment(dataclasses.replace(EXP2, n_seeds=0), out_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        one = run_experiment(dataclasses.replace(EXP2, n_seeds=1, max_iters=0, reference_iters=0))
        assert data["achieved_ratio"] == one.achieved_ratio

    def test_used_out_dir_is_refused_before_any_work(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(EXP2, n_seeds=2, max_iters=50, reference_iters=500)
        run_experiment(spec, master_seed=2, out_dir=tmp_path / "out")
        before = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()}
        assert {p.name for p in before} >= {"report.json", "instance.json", "ista.csv"}
        monkeypatch.setattr(experiment, "build_instance", lambda *a: pytest.fail("built an instance"))
        with pytest.raises(FileExistsError, match=re.escape(f"out_dir {tmp_path / 'out'} is not empty")):
            run_experiment(dataclasses.replace(spec, n_seeds=1), master_seed=2, out_dir=tmp_path / "out")
        assert {p: p.read_bytes() for p in (tmp_path / "out").rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("variants", [("dr-main-fg", "ista"), ("dr-shift-fg", "dr-bogus")])
    def test_variants_must_be_dr_variants(self, variants):
        # "ista" would replace the baseline run; an unknown name would fail only after the zone run
        with pytest.raises(ValueError, match=re.escape(f"got ['{variants[1]}']")):
            dataclasses.replace(EXP2, variants=variants)

    def test_variants_must_be_distinct(self):
        # Runs are keyed by variant name, so a repeat would run again only to be thrown away
        with pytest.raises(ValueError, match=re.escape("got ['dr-main-fg'] more than once")):
            dataclasses.replace(EXP2, variants=("dr-main-fg", "dr-shift-fg", "dr-main-fg"))

    def test_report_deterministic_under_master_seed(self):
        spec = dataclasses.replace(EXP2, n_seeds=2, max_iters=150, reference_iters=1500)
        a = run_experiment(spec, master_seed=5).to_json_dict()
        b = run_experiment(spec, master_seed=5).to_json_dict()
        assert a == b

    def test_derived_seeds_are_stable(self):
        assert derive_seeds(0, 3) == derive_seeds(0, 3)
        assert derive_seeds(0, 3) != derive_seeds(1, 3)
