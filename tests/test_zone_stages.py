"""The staged zone run of ``experiment._solve``.

``_solve`` reads each seed's zones off dr-main-fg runs of 20, 40, 80 and
ZONE_STEPS steps (``experiment._ZONE_STAGES``), each from z0 = 0.  The first
stage runs on the block problem itself, and each later one on the ``take`` of
the rows the certificate rejected so far; a row no stage certifies gets the
ISTA reference.  ``experiment.run`` is wrapped to record the rows (by their
tau) and config of every run, and the expected schedule is built from zone
runs of each seed alone (``oracles.zone_stage``).
"""

import dataclasses

import numpy as np
import pytest

from drsplit import EXP1, EXP2, SolverConfig, experiment, run
from drsplit.experiment import BLOCK_SEEDS, block_problem, build_instance, derive_seeds, run_experiment

from oracles import zone_stage


def record_runs(spec, master_seed, patch):
    """run_experiment's report and the (problem, config) of each run it made."""
    runs = []

    def recorded_run(problem, config):
        runs.append((problem, config))
        return run(problem, config)

    patch.setattr(experiment, "run", recorded_run)
    return run_experiment(spec, master_seed), runs


def rows(problem):
    return tuple(problem.penalty.tau[:, 0].tolist())


def traced_ista(runs):
    """The (problem, config) of each block's traced ISTA run."""
    return [(problem, config) for problem, config in runs if config.variant == "ista" and config.record_reference is not None]


def zone_steps_certificate(instances):
    """(x_star, ok) of the certificate on one ZONE_STEPS-step zone run of the block."""
    problem = block_problem(instances)
    zones = run(problem, SolverConfig("dr-main-fg", max_iters=experiment.ZONE_STEPS, audit=False)).final_x
    return experiment._certified_minimizer(problem, zones)


def expected_schedule(spec, instances, stages):
    """(rows, variant, max_iters) of each run of one block whose seed b
    certifies at zone stage stages[b], an index into _ZONE_STAGES (its
    length: at none)."""
    taus = [inst.penalty.tau for inst in instances]
    last = len(experiment._ZONE_STAGES)
    zone = [
        (tuple(tau for tau, k in zip(taus, stages) if k >= j), "dr-main-fg", steps)
        for j, steps in enumerate(experiment._ZONE_STAGES[: min(max(stages), last - 1) + 1])
    ]
    fallback = [(tuple(tau for tau, k in zip(taus, stages) if k == last), "ista", spec.reference_iters)]
    traced = [(tuple(taus), "ista", spec.reference_iters)]
    traced += [(tuple(taus), variant, spec.max_iters) for variant in spec.variants]
    return zone + (fallback if last in stages else []) + traced


@pytest.fixture(scope="module", params=[EXP1, EXP2], ids=["exp1", "exp2"])
def stock(request):
    """The stock spec, its 20 instances of master seed 0, each one's zone
    stage, and the report and runs of run_experiment on them."""
    spec = request.param
    instances = [build_instance(spec, seed) for seed in derive_seeds(0, spec.n_seeds)]
    stages = [zone_stage(inst) for inst in instances]
    with pytest.MonkeyPatch.context() as patch:
        report, runs = record_runs(spec, 0, patch)
    return spec, instances, stages, report, runs


def test_the_stages_end_at_zone_steps():
    assert experiment._ZONE_STAGES == (20, 40, 80, experiment.ZONE_STEPS)


def test_each_row_runs_only_until_its_stage_certifies_it(stock):
    spec, instances, stages, report, runs = stock
    blocks = range(0, len(instances), BLOCK_SEEDS)
    expected = [
        step for start in blocks
        for step in expected_schedule(spec, instances[start : start + BLOCK_SEEDS], stages[start : start + BLOCK_SEEDS])
    ]
    assert [(rows(problem), config.variant, config.max_iters) for problem, config in runs] == expected
    assert [r.reference for r in report.results] == ["kkt"] * spec.n_seeds
    # EXP1 has rows that only the second and third stages certify, so its
    # later stages run on a take of the block; every EXP2 row certifies in
    # the first.
    assert sorted(set(stages)) == ([0, 1, 2] if spec is EXP1 else [0])


def test_the_first_stage_runs_on_the_block_problem_itself(stock):
    # So the traced dr-main-fg run reuses the zone run's Cholesky factor.
    *_, runs = stock
    first = [problem for problem, config in runs if config.max_iters == experiment._ZONE_STAGES[0]]
    traced = [problem for problem, _ in traced_ista(runs)]
    assert len(first) == len(traced) == 2
    assert all(a is b for a, b in zip(first, traced))


def test_references_equal_the_certificate_of_a_zone_steps_run(stock):
    spec, instances, _, _, runs = stock
    for start, (_, config) in zip(range(0, len(instances), BLOCK_SEEDS), traced_ista(runs), strict=True):
        x_star, ok = zone_steps_certificate(instances[start : start + BLOCK_SEEDS])
        assert ok.all() and config.record_reference.tobytes() == x_star.tobytes()


def test_a_row_no_stage_certifies_goes_through_every_stage_to_ista(monkeypatch):
    spec = dataclasses.replace(EXP1, n_seeds=4, reference_iters=2000)
    instances = [build_instance(spec, seed) for seed in derive_seeds(0, 4)]
    stages = [zone_stage(inst) for inst in instances]
    stages[2] = len(experiment._ZONE_STAGES)
    certify, rejected = experiment._certified_minimizer, instances[2].penalty.tau

    def reject_seed_2(problem, x):  # by its tau, wherever it sits in the stage's block
        x_star, ok = certify(problem, x)
        return x_star, ok & (problem.penalty.tau[:, 0] != rejected)

    monkeypatch.setattr(experiment, "_certified_minimizer", reject_seed_2)
    report, runs = record_runs(spec, 0, monkeypatch)
    monkeypatch.undo()
    assert [(rows(problem), config.variant, config.max_iters) for problem, config in runs] == expected_schedule(
        spec, instances, stages
    )
    assert [r.reference for r in report.results] == ["kkt", "kkt", "ista", "kkt"]
    ((_, config),) = traced_ista(runs)
    x_ref, (x_star, _) = config.record_reference, zone_steps_certificate(instances)
    ista = run(instances[2].problem(), SolverConfig("ista", max_iters=spec.reference_iters, audit=False)).final_x
    assert x_ref[2].tobytes() == ista.tobytes()
    assert np.delete(x_ref, 2, axis=0).tobytes() == np.delete(x_star, 2, axis=0).tobytes()
