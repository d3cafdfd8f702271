"""``run_experiment`` without an out_dir audits none of its runs, and reports the same.

The report reads the distance column, which every run records, and one cost
per run, taken on the run's final points by one stacked ``Problem.cost``
call.  So the report of a run without an out_dir (no run audited) must equal,
bit for bit, the one written with an out_dir (every traced run audited).
``Problem`` is wrapped to count the calls: without an out_dir there is no
fixed-point residual, and each cost call takes one row per seed its block
solved.
"""

import dataclasses
import json

import numpy as np
import pytest

from drsplit import EXP1, EXP2, experiment, run_experiment, solver
from drsplit.experiment import derive_seeds


def counted_report(spec, master_seed, out_dir, monkeypatch):
    """run_experiment's report as a dict, plus (x shape, problem shape) of
    each ``Problem.cost`` call, the x shape of each
    ``Problem.fixed_point_residual`` call and (config, trace) of each run."""
    costs, residuals, runs = [], [], []
    cost, residual, run = solver.Problem.cost, solver.Problem.fixed_point_residual, experiment.run

    def counted_cost(self, x):
        costs.append((np.shape(x), self.shape))
        return cost(self, x)

    def counted_residual(self, x, alpha):
        residuals.append(np.shape(x))
        return residual(self, x, alpha)

    def recorded_run(problem, config):
        trace = run(problem, config)
        runs.append((config, trace))
        return trace

    with monkeypatch.context() as m:
        m.setattr(solver.Problem, "cost", counted_cost)
        m.setattr(solver.Problem, "fixed_point_residual", counted_residual)
        m.setattr(experiment, "run", recorded_run)
        report = run_experiment(spec, master_seed, out_dir=out_dir).to_json_dict()
    return report, costs, residuals, runs


def check_report_only(spec, master_seed, tmp_path, monkeypatch):
    """The report without an out_dir equals the written one, and only the
    final costs are computed; returns it and its runs."""
    written, audited_costs, audited_residuals, _ = counted_report(spec, master_seed, tmp_path / "out", monkeypatch)
    report, costs, residuals, runs = counted_report(spec, master_seed, None, monkeypatch)
    assert json.dumps(report) == json.dumps(written)
    assert audited_residuals and len(audited_costs) > len(costs)
    assert not residuals
    assert all(x_shape == own for x_shape, own in costs)
    solved = sum(r["failed"] is None for r in report["seeds"])
    assert sum(x_shape[0] for x_shape, _ in costs) == (1 + len(spec.variants)) * solved
    return report, runs


@pytest.mark.parametrize("spec", [EXP1, EXP2], ids=["exp1", "exp2"])
def test_stock_spec_with_cycling_references(spec, tmp_path, monkeypatch):
    spec = dataclasses.replace(spec, n_seeds=4)
    report, _ = check_report_only(spec, 0, tmp_path, monkeypatch)
    # Every seed's reference is a certified zone solve, not an ISTA run that
    # may end on a floating-point cycle.
    assert [seed["reference"] for seed in report["seeds"]] == ["kkt"] * 4
    assert report["aggregate"]["failed_seeds"] == 0


def test_dr_run_that_never_crosses(tmp_path, monkeypatch):
    # At 40 iterations dr-main-fg crosses the threshold and dr-shift-fg does
    # not, so the latter's final costs are taken at the iteration limit.
    spec = dataclasses.replace(EXP2, n_seeds=3, max_iters=40)
    report, runs = check_report_only(spec, 0, tmp_path, monkeypatch)
    for seed in report["seeds"]:
        crossed = seed["iterations_to_threshold"]
        assert crossed["dr-main-fg"] is not None and crossed["dr-shift-fg"] is None
    reasons = {config.variant: set(trace.stop_reason) for config, trace in runs if config.variant != "ista"}
    assert reasons == {"dr-main-fg": {"stop_dist"}, "dr-shift-fg": {"max_iters"}}


def test_nan_seed_goes_through_the_one_seed_fallback(tmp_path, monkeypatch):
    spec = dataclasses.replace(EXP2, n_seeds=3)
    bad_seed = derive_seeds(5, 3)[1]
    build = experiment.build_instance

    def build_with_bad_seed(spec, seed):
        inst = build(spec, seed)
        if seed == bad_seed:
            y = inst.y.copy()
            y[5] = np.nan
            inst = dataclasses.replace(inst, y=y)
        return inst

    monkeypatch.setattr(experiment, "build_instance", build_with_bad_seed)
    report, runs = check_report_only(spec, 5, tmp_path, monkeypatch)
    assert report["aggregate"]["failed_seeds"] == 1 and report["seeds"][1]["failed"]
    # Every run that returned is one of a seed solved alone.
    assert runs and all(trace.final_x.shape[0] == 1 for _, trace in runs)
