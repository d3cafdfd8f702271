"""Block runs: B problems that share an operator, solved as one (B, n) block.

A block problem stacks the observations y to (B, m) and the weights tau to a
(B, 1) column; ``run`` iterates every row at once and ``IterationTrace.split``
returns one trace per row.  These tests check that each row's trace CSV is
byte-identical to that of ``run`` on the row's problem alone, and that
``run_experiment``, which solves its seeds in such blocks, reports and
writes exactly what a loop over single seeds does.

Byte identity rests on per-row-exact numpy calls (stacked matmul, as the
quadratic prox applies its stored matrix, and vecdot).  It was checked with
Python 3.11.7 and numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64) at one BLAS
thread; another numpy or BLAS build may round a block differently from a
single row.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from drsplit import EXP1, EXP2, VARIANTS, DivergenceError, SolverConfig, experiment, run, step_bound
from drsplit.experiment import SeedResult, block_problem, derive_seeds, run_experiment

SPECS = {"exp1": EXP1, "exp2": EXP2}
# A block size that holds all three seeds of the run_experiment tests below,
# as the default BLOCK_SEEDS does; 2 and 1 split them.
WHOLE = 10


def csv_bytes(trace, path) -> bytes:
    trace.to_csv(path)
    return path.read_bytes()


@pytest.fixture(scope="module", params=sorted(SPECS))
def block(request):
    """Three seeds of a spec: instances, block problem and ISTA-3000 references."""
    instances = [experiment.build_instance(SPECS[request.param], s) for s in derive_seeds(0, 3)]
    problem = block_problem(instances)
    reference = run(problem, SolverConfig("ista", max_iters=3000))
    singles = [run(inst.problem(), SolverConfig("ista", max_iters=3000)) for inst in instances]
    return instances, problem, reference, singles


def test_block_reference_matches_single_runs(block, tmp_path):
    _, _, reference, singles = block
    assert reference.n_iters == max(t.n_iters for t in singles)
    for row, single in zip(reference.split(), singles):
        assert row.config is reference.config and row.config == single.config  # no reference to cut
        assert csv_bytes(row, tmp_path / "a.csv") == csv_bytes(single, tmp_path / "b.csv")
        np.testing.assert_array_equal(row.final_x, single.final_x)


@pytest.mark.parametrize("tol", [0.0, 1e-7])
@pytest.mark.parametrize("variant", VARIANTS)
def test_block_rows_match_single_runs(block, variant, tol, tmp_path):
    instances, problem, reference, singles = block
    config = SolverConfig(variant, max_iters=400, tol=tol, record_reference=reference.final_x)
    trace = run(problem, config)
    assert isinstance(trace.n_iters, int)
    rows = trace.split()
    assert len(rows) == len(instances)
    stops = set()
    for row, inst, ref, row_ref in zip(rows, instances, singles, reference.final_x):
        single = run(inst.problem(), dataclasses.replace(config, record_reference=ref.final_x))
        # a row trace's config is that of a run on the row alone, with the row's reference
        assert row.config.record_reference.tobytes() == row_ref.tobytes()
        unreferenced = lambda c: dataclasses.replace(c, record_reference=None)
        assert unreferenced(row.config) == unreferenced(single.config)
        assert csv_bytes(row, tmp_path / "a.csv") == csv_bytes(single, tmp_path / "b.csv")
        np.testing.assert_array_equal(row.final_x, single.final_x)
        np.testing.assert_array_equal(row.final_z, single.final_z)
        assert row.converged == single.converged
        stops.add(single.n_iters)
    if tol > 0:
        # rows stop at their own iterations; the block runs until the last one
        assert len(stops) > 1 and trace.n_iters == max(stops)


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_rows_stop_at_the_distance_threshold(block, variant, tmp_path):
    instances, problem, reference, singles = block
    threshold = 1e-6
    config = SolverConfig(variant, max_iters=400, record_reference=reference.final_x)
    trace = run(problem, dataclasses.replace(config, stop_dist=threshold))
    reasons = []
    for row, whole, inst, ref in zip(trace.split(), run(problem, config).split(), instances, singles):
        k = whole.iterations_to(threshold)
        assert row.iterations_to(threshold) == k
        assert row.n_iters == (config.max_iters if k is None else k)
        assert csv_bytes(whole, tmp_path / "whole.csv").startswith(csv_bytes(row, tmp_path / "row.csv"))
        cut = run(inst.problem(), dataclasses.replace(config, record_reference=ref.final_x, max_iters=row.n_iters))
        np.testing.assert_array_equal(row.final_x, cut.final_x)
        np.testing.assert_array_equal(row.final_z, cut.final_z)
        reasons.append(row.stop_reason)
        assert row.stop_reason == ("max_iters" if k is None else "stop_dist")
    assert "stop_dist" in reasons and trace.n_iters == max(trace.row_iters)


@pytest.mark.parametrize("variant", VARIANTS)
def test_unaudited_block_run_keeps_iterates_and_step_norms(block, variant):
    _, problem, _, _ = block
    config = SolverConfig(variant, max_iters=400, tol=1e-7)
    audited = run(problem, config)
    bare = run(problem, dataclasses.replace(config, audit=False))
    for name in ("final_x", "final_z", "row_iters", "step_norm", "converged", "stop_reason"):
        np.testing.assert_array_equal(getattr(bare, name), getattr(audited, name))
    assert "tol" in audited.stop_reason
    for name in ("cost", "fp_residual", "dist_to_ref"):
        column = getattr(bare, name)
        assert column.shape == audited.step_norm.shape and np.isnan(column).all()


def test_block_trace_must_be_split_first(block, tmp_path):
    _, _, reference, _ = block
    with pytest.raises(ValueError, match="split"):
        reference.iterations_to(1e-6)
    with pytest.raises(ValueError, match="split"):
        reference.to_json_dict()
    with pytest.raises(ValueError, match="split"):
        reference.to_csv(tmp_path / "block.csv")
    assert [float(c) for c in reference.final_cost] == [row.final_cost for row in reference.split()]


def test_block_problem_rejects_foreign_filter():
    with pytest.raises(ValueError, match="does not share"):
        block_problem([experiment.build_instance(EXP1, 1), experiment.build_instance(EXP2, 2)])


def test_block_problem_rejects_an_empty_block():
    with pytest.raises(ValueError, match="needs at least one instance"):
        block_problem([])


def single_seed_experiment(spec, master_seed, out_path):
    """The per-seed loop run_experiment ran before seeds were blocked, with
    runs that stop at the distance threshold and the reference it now takes:
    the certified zone solve of an unaudited dr-main-fg run, else the end of
    an unaudited ISTA run."""
    results = []
    for idx, seed in enumerate(derive_seeds(master_seed, spec.n_seeds)):
        instance = experiment.build_instance(spec, seed)
        problem = instance.problem()
        s, sigma = instance.operator.gram_extremes()
        traces = {}
        try:
            zones = run(problem, SolverConfig("dr-main-fg", max_iters=experiment.ZONE_STEPS, audit=False)).final_x
            x_refs, certified = experiment._certified_minimizer(block_problem([instance]), zones[None])
            if certified[0]:
                x_ref = x_refs[0]
            else:
                x_ref = run(problem, SolverConfig("ista", max_iters=spec.reference_iters, audit=False)).final_x
            traces["ista"] = run(
                problem,
                SolverConfig(
                    "ista", max_iters=spec.reference_iters, record_reference=x_ref, stop_dist=spec.dist_threshold
                ),
            )
            for variant in spec.variants:
                bound = step_bound(variant, sigma, problem.rho)
                alpha = spec.alpha_fraction * bound if math.isfinite(bound) else None
                traces[variant] = run(
                    problem,
                    SolverConfig(
                        variant,
                        alpha=alpha,
                        relaxation=spec.relaxation,
                        max_iters=spec.max_iters,
                        record_reference=x_ref,
                        stop_dist=spec.dist_threshold,
                    ),
                )
        except DivergenceError as exc:
            results.append(SeedResult(seed, {}, {}, {}, failed=str(exc)))
            continue
        results.append(
            SeedResult(
                seed=seed,
                iterations_to_threshold={k: t.iterations_to(spec.dist_threshold) for k, t in traces.items()},
                final_cost={k: t.final_cost for k, t in traces.items()},
                final_dist={k: float(t.dist_to_ref[-1]) for k, t in traces.items()},
                reference="kkt" if certified[0] else "ista",
            )
        )
        seed_dir = out_path / f"seed_{idx:03d}"
        seed_dir.mkdir(parents=True)
        instance.save(seed_dir / "instance.json")
        for name, trace in traces.items():
            trace.to_csv(seed_dir / f"{name}.csv")
    return results


def tree(path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("block_seeds", [WHOLE, 2, 1])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_run_experiment_matches_single_seed_loop(name, block_seeds, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_SEEDS", block_seeds)
    spec = dataclasses.replace(SPECS[name], n_seeds=3, max_iters=300, reference_iters=1500)
    expected = single_seed_experiment(spec, 7, tmp_path / "single")
    report = run_experiment(spec, master_seed=7, out_dir=tmp_path / "block")
    assert [r.to_json_dict() for r in report.results] == [r.to_json_dict() for r in expected]
    written = tree(tmp_path / "block")
    data = json.loads(written.pop("report.json"))
    assert written == tree(tmp_path / "single")
    assert data["aggregate"]["failed_seeds"] == 0


# At one seed per block the fallback path solves every seed.
@pytest.mark.parametrize("block_seeds", [WHOLE, 1])
def test_diverging_seed_is_named_and_counted(block_seeds, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_SEEDS", block_seeds)
    spec = dataclasses.replace(EXP2, n_seeds=3, max_iters=200, reference_iters=600)
    seeds = derive_seeds(3, 3)
    build = experiment.build_instance

    def build_with_bad_seed(spec, seed):
        inst = build(spec, seed)
        if seed == seeds[1]:
            y = inst.y.copy()
            y[5] = np.nan
            inst = dataclasses.replace(inst, y=y)
        return inst

    clean = run_experiment(spec, master_seed=3)
    monkeypatch.setattr(experiment, "build_instance", build_with_bad_seed)
    report = run_experiment(spec, master_seed=3)

    # The seed diverges first in the reference's dr-main-fg zone run.
    with pytest.raises(DivergenceError) as scalar:
        run(build_with_bad_seed(spec, seeds[1]).problem(), SolverConfig("dr-main-fg", max_iters=experiment.ZONE_STEPS))
    assert report.results[1].failed == str(scalar.value)
    for i in (0, 2):
        assert report.results[i] == clean.results[i]
    assert report.to_json_dict()["aggregate"]["failed_seeds"] == 1
    assert clean.to_json_dict()["aggregate"]["failed_seeds"] == 0


# Each run of a block, in the order it runs: the reference (the one run
# without a distance), the ISTA trace run and the last DR variant.
DIVERGING_RUN = {
    "reference": lambda config: config.record_reference is None,
    "ista_trace": lambda config: config.variant == "ista" and config.record_reference is not None,
    "last_dr": lambda config: config.variant == EXP1.variants[-1],
}


def diverge_late(block_seeds, diverging, tmp_path, monkeypatch, out_dir):
    """run_experiment on 3 EXP1 seeds, in blocks of block_seeds, with the
    second seed forced to diverge in the given run; checks that it fails
    alone and returns the report (a clean run is written to tmp_path/clean)."""
    monkeypatch.setattr(experiment, "BLOCK_SEEDS", block_seeds)
    spec = dataclasses.replace(EXP1, n_seeds=3, max_iters=200, reference_iters=600)
    clean = run_experiment(spec, master_seed=4, out_dir=tmp_path / "clean")
    bad_y = experiment.build_instance(spec, derive_seeds(4, 3)[1]).y

    def run_failing_bad_seed(problem, config):
        if DIVERGING_RUN[diverging](config) and any(np.array_equal(y, bad_y) for y in np.atleast_2d(problem.smooth.y)):
            raise DivergenceError("forced divergence")
        return run(problem, config)

    monkeypatch.setattr(experiment, "run", run_failing_bad_seed)
    report = run_experiment(spec, master_seed=4, out_dir=out_dir)
    assert report.results[1].failed == "forced divergence"
    assert [report.results[i] for i in (0, 2)] == [clean.results[i] for i in (0, 2)]
    return report


@pytest.mark.parametrize("diverging", list(DIVERGING_RUN))
@pytest.mark.parametrize("block_seeds", [WHOLE, 1])
def test_seed_diverging_in_a_late_run_leaves_no_files(block_seeds, diverging, tmp_path, monkeypatch):
    # A block writes its seeds' files only once all its runs have ended, so
    # a divergence in any run, the last DR run too, leaves the seed no files.
    diverge_late(block_seeds, diverging, tmp_path, monkeypatch, out_dir=tmp_path / "failing")
    written, expected = tree(tmp_path / "failing"), tree(tmp_path / "clean")
    assert json.loads(written.pop("report.json"))["aggregate"]["failed_seeds"] == 1
    expected.pop("report.json")
    assert written == {k: v for k, v in expected.items() if not k.startswith("seed_001")}
    assert not (tmp_path / "failing" / "seed_001").exists()


@pytest.mark.parametrize("diverging", list(DIVERGING_RUN))
@pytest.mark.parametrize("block_seeds", [WHOLE, 1])
def test_seed_diverging_in_a_late_unaudited_run_fails_alone(block_seeds, diverging, tmp_path, monkeypatch):
    # Without an out_dir no run is audited; the other seeds' results are
    # still those of the clean, audited run.
    report = diverge_late(block_seeds, diverging, tmp_path, monkeypatch, out_dir=None)
    assert report.to_json_dict()["aggregate"]["failed_seeds"] == 1
