"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from run import percentile  # noqa: E402
from spans import SpanRecorder, self_times, summarize  # noqa: E402
from workloads import check_certify, check_experiments, check_solves, load_pins  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 8.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_summarize_groups_by_name_and_filters_runs():
    rec = SpanRecorder()
    spans = [  # name, start, end, parent, run
        ("outer", 0.0, 10.0, -1, 0),
        ("inner", 1.0, 4.0, 0, 0),
        ("inner", 5.0, 9.0, 0, 0),
        ("inner", 20.0, 21.0, -1, -1),
    ]
    for name, start, end, parent, run in spans:
        rec.name_id.append(rec.intern(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.run.append(run)
    stats = summarize(rec, runs=lambda r: r >= 0)
    assert stats["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["inner"] == {"calls": 2, "total_s": 7.0, "self_s": 7.0}


def test_recorder_nests_spans_of_wrapped_calls():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    a = rec.arrays()
    assert [rec.names[i] for i in a["name_id"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert np.all(a["end"] >= a["start"])


def _reports_from_pins(pinned):
    variants = ("dr-main-fg", "dr-shift-fg")
    reports = {}
    for name, seeds in pinned.items():
        results = [
            SimpleNamespace(
                seed=int(seed),
                iterations_to_threshold=dict(its),
                final_cost={v: 1.0 for v in its},
                final_dist={v: 0.0 for v in its},
                failed=None,
            )
            for seed, its in seeds.items()
        ]
        spec = SimpleNamespace(dist_threshold=1e-6, variants=variants)
        reports[name] = SimpleNamespace(spec=spec, results=results)
    return reports


def test_experiment_check_rejects_a_tampered_pinned_value():
    pinned = load_pins()["exp-gate"]["0"]
    reports = _reports_from_pins(pinned)
    attempted, failures = check_experiments(reports, pinned)
    assert attempted == sum(len(s) for s in pinned.values()) and failures == []

    tampered = {name: {seed: dict(its) for seed, its in seeds.items()} for name, seeds in pinned.items()}
    seed = next(iter(tampered["EXP2"]))
    tampered["EXP2"][seed]["dr-main-fg"] += 1
    attempted, failures = check_experiments(reports, tampered)
    assert len(failures) == 1 and "pinned" in failures[0]


def test_experiment_check_rejects_cost_mismatch_and_missed_threshold():
    pinned = load_pins()["exp-gate"]["0"]
    reports = _reports_from_pins(pinned)
    first, second = reports["EXP1"].results[:2]
    first.final_cost["dr-main-fg"] = 1.0 + 1e-6
    second.final_dist["dr-shift-fg"] = 2e-6
    _, failures = check_experiments(reports, pinned)
    assert len(failures) == 2


def test_solve_check_counts_each_bad_solve():
    def record(variant, x, rows=3, residual=1e-10, converged=True):
        summary = {"converged": converged, "iterations": 2, "final_x": x}
        return {"instance": "i0", "variant": variant, "rc": 0, "summary": summary, "rows": rows, "fp_residual": residual}

    good = [record("a", [1.0, 2.0]), record("b", [1.0, 2.0 + 1e-7])]
    assert check_solves(good, 1e-8, 1e-6) == (2, [])
    bad = good + [
        record("c", [1.0, 2.1]),
        record("d", [1.0, 2.0], rows=2),
        record("e", [1.0, 2.0], residual=1e-7),
        record("f", [1.0, 2.0], converged=False),
        {"instance": "i0", "variant": "g", "rc": 2, "summary": None, "rows": 0, "fp_residual": None},
    ]
    attempted, failures = check_solves(bad, 1e-8, 1e-6)
    assert attempted == 7 and len(failures) == 5


def test_certify_check():
    ok = "\n".join(f"PASS check {i}: detail" for i in range(5)) + "\n"
    assert check_certify(0, ok, 5) == (5, [])
    one_fail = ok.replace("PASS check 3", "FAIL check 3")
    assert check_certify(1, one_fail, 5)[1] == ["FAIL check 3: detail"]
    assert len(check_certify(1, ok, 5)[1]) == 5
    assert len(check_certify(0, "PASS only\n", 5)[1]) == 5


def test_percentile_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_absent_hook_is_reported_and_hooks_are_removed():
    import drsplit
    from drsplit import experiment, penalty, solver

    prox = penalty.FirmPenalty.__dict__["prox"]
    run = solver.run
    hooks = (
        ("penalty.prox", "drsplit.penalty", "FirmPenalty.prox", None),
        ("penalty.shifted_prox", "drsplit.penalty", "FirmPenalty.shifted_prox", None),
        ("solver.gone", "drsplit.solver", "no_such_function", None),
        ("solver.run", "drsplit.solver", "run", None),
    )
    rec = SpanRecorder()
    rec.run_id = 0
    with layers.Hooks(rec, hooks) as h:
        assert h.absent == ["solver.gone"]
        assert penalty.FirmPenalty.__dict__["prox"] is not prox
        assert solver.run is not run
        assert drsplit.run is experiment.run is solver.run
        penalty.FirmPenalty(1.0, 0.5).shifted_prox(np.ones(3), 0.5)
    assert penalty.FirmPenalty.__dict__["prox"] is prox
    assert "shifted_prox" not in penalty.FirmPenalty.__dict__
    assert drsplit.run is experiment.run is solver.run is run
    stats = summarize(rec)
    assert stats["penalty.shifted_prox"]["calls"] == stats["penalty.prox"]["calls"] == 1
    metrics = layers.layer_metrics(rec, h.absent + ["solver.run"], pass_s=1.0, useful_iterations=0)
    assert metrics["penalty.prox.calls"] == 1 and "solver.run.calls" not in metrics


def test_speed_log_scales_each_stretch_and_drops_inner_samples():
    import hostspeed

    log = hostspeed.SpeedLog(interval=1.0)
    log.samples = [(0.0, 1.0, 0.05), (5.0, 6.0, 0.10), (10.0, 11.0, 0.05)]
    raw, quiet = log.scaled(end=10.0, seconds=9.0)
    assert raw == pytest.approx(8.0)
    assert quiet == pytest.approx(8.0 * hostspeed.QUIET_KERNEL_S / 0.075)
    raw, quiet = log.scaled(end=4.0, seconds=2.0)
    assert raw == pytest.approx(2.0)
    assert quiet == pytest.approx(2.0 * hostspeed.QUIET_KERNEL_S / 0.075)
