"""The certified reference minimizer of ``run_experiment``.

``experiment._certified_minimizer`` reads each row's zones of the firm
penalty (dead, middle band, identity) and signs off an approximate
minimizer, solves the zone system on the support and certifies the result
by the zone inequalities.  ``_solve`` takes the zones from a dr-main-fg run
of at most ZONE_STEPS steps (its stages are checked in test_zone_stages.py)
and gives a row the certificate rejects the ISTA reference of
``spec.reference_iters`` iterations instead.
"""

import dataclasses

import numpy as np
import pytest

from drsplit import EXP1, EXP2, FirmPenalty, LinearMap, Problem, QuadraticTerm, SolverConfig, experiment, run
from drsplit.experiment import block_problem, build_instance, derive_seeds, run_experiment

# With H = I the problem is separable and its minimizer is the unit-step firm
# threshold of y: tau = 1 and rho = 1/2 put coordinates 0-1 in the dead zone
# (|y| < 1), 2-3 in the middle band (x = 2 (|y| - 1) sign(y), |x| < 2) and
# 4-5 in the identity zone (|y| >= 2).
Y = np.array([0.3, -0.8, 1.5, -1.2, 3.0, -2.5])
X_STAR = np.array([0.0, 0.0, 1.0, -0.4, 3.0, -2.5])


def separable(rows, rho=0.5, y=Y):
    """A block of `rows` copies of min 0.5 |y - x|^2 + firm(x; tau = 1, rho)."""
    return Problem(QuadraticTerm(LinearMap(np.eye(y.size)), np.tile(y, (rows, 1))), FirmPenalty(np.ones((rows, 1)), rho))


def perturbed(change):
    x = X_STAR + 0.01 * np.sign(X_STAR)  # off the minimizer, in the same zones
    change(x)
    return x


PERTURBATIONS = {
    "exact zones": lambda x: None,
    "dropped support coordinate": lambda x: x.__setitem__(2, 0.0),
    "added support coordinate": lambda x: x.__setitem__(0, 1e-3),
    "flipped sign": lambda x: x.__setitem__(3, 0.4),
    "identity read as middle band": lambda x: x.__setitem__(4, 1.9),
}


def test_hand_built_zones_give_the_known_minimizer():
    x = perturbed(PERTURBATIONS["exact zones"])
    assert (x == 0).tolist() == [True, True, False, False, False, False]
    assert (np.abs(x) < 2.0).tolist() == [True, True, True, True, False, False]
    x_star, ok = experiment._certified_minimizer(separable(1), x[None])
    assert ok.tolist() == [True]
    np.testing.assert_allclose(x_star[0], X_STAR, rtol=0, atol=1e-15)
    assert (x_star[0] == 0).tolist() == (X_STAR == 0).tolist()


def test_a_wrong_zone_or_sign_fails_the_certificate():
    x = np.stack([perturbed(change) for change in PERTURBATIONS.values()])
    _, ok = experiment._certified_minimizer(separable(len(x)), x)
    assert dict(zip(PERTURBATIONS, ok.tolist())) == {name: name == "exact zones" for name in PERTURBATIONS}


def test_a_singular_zone_system_is_uncertified_not_raised():
    # At rho = s = 1 a middle-band coordinate of H = I makes its row of
    # HᵀH - rho diag(M) zero; the all-dead row stays certified.
    problem = separable(2, rho=1.0, y=np.array([0.2, -0.1, 0.3]))
    x = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert problem.smooth.operator.gram()[0, 0] - problem.rho == 0.0
    x_star, ok = experiment._certified_minimizer(problem, x)
    assert ok.tolist() == [False, True]
    assert not x_star[1].any()


@pytest.fixture(scope="module")
def exp2_block():
    """Four EXP2 seeds, their block problem and the zone run's final points."""
    instances = [build_instance(EXP2, seed) for seed in derive_seeds(2, 4)]
    problem = block_problem(instances)
    zones = run(problem, SolverConfig("dr-main-fg", max_iters=experiment.ZONE_STEPS, audit=False)).final_x
    return instances, problem, zones


def test_block_certificate_equals_the_per_row_ones(exp2_block):
    instances, problem, zones = exp2_block
    x_star, ok = experiment._certified_minimizer(problem, zones)
    assert ok.all()
    for b, inst in enumerate(instances):
        row, row_ok = experiment._certified_minimizer(block_problem([inst]), zones[b : b + 1])
        assert row_ok.tolist() == [True] and row[0].tobytes() == x_star[b].tobytes()
        # A minimizer is a fixed point of the ISTA map.
        alpha = 1.0 / inst.problem().grad_lipschitz
        assert inst.problem().fixed_point_residual(x_star[b], alpha) <= 1e-13


def test_forced_fallback_rows_get_the_ista_reference_bit_for_bit(monkeypatch):
    spec = dataclasses.replace(EXP2, n_seeds=4, reference_iters=2000)
    certify, references = experiment._certified_minimizer, []
    instances = [build_instance(spec, seed) for seed in derive_seeds(1, 4)]
    # Rows are rejected by their data, not their place in a call: a later
    # zone stage holds only the rows still open, so seeds 1 and 3 are its
    # rows 0 and 1.
    rejected = {instances[b].penalty.tau for b in (1, 3)}

    def reject_rows_1_and_3(problem, x):
        x_star, ok = certify(problem, x)
        return x_star, ok & np.array([tau not in rejected for tau in problem.penalty.tau[:, 0].tolist()])

    def recorded_run(problem, config):
        if config.variant == "ista" and config.record_reference is not None:
            references.append(config.record_reference.copy())
        return run(problem, config)

    monkeypatch.setattr(experiment, "_certified_minimizer", reject_rows_1_and_3)
    monkeypatch.setattr(experiment, "run", recorded_run)
    report = run_experiment(spec, master_seed=1)
    assert [r.reference for r in report.results] == ["kkt", "ista", "kkt", "ista"]
    (x_ref,) = references
    zone_run = SolverConfig("dr-main-fg", max_iters=experiment.ZONE_STEPS, audit=False)
    zones = run(block_problem(instances), zone_run).final_x
    x_star, _ = certify(block_problem(instances), zones)
    for b, inst in enumerate(instances):
        if b in (1, 3):
            ista = run(inst.problem(), SolverConfig("ista", max_iters=spec.reference_iters, audit=False)).final_x
            assert x_ref[b].tobytes() == ista.tobytes()
        else:
            assert x_ref[b].tobytes() == x_star[b].tobytes()


@pytest.mark.parametrize("spec", [EXP1, EXP2], ids=["exp1", "exp2"])
def test_every_stock_seed_is_certified(spec):
    report = run_experiment(spec, master_seed=0)
    assert len(report.results) == spec.n_seeds
    assert [r.reference for r in report.results] == ["kkt"] * spec.n_seeds
    assert all(list(seed)[-1] == "reference" for seed in report.to_json_dict()["seeds"])


def test_a_failed_seed_has_no_reference(monkeypatch):
    spec = dataclasses.replace(EXP2, n_seeds=2)
    bad_seed, build = derive_seeds(0, 2)[1], experiment.build_instance

    def build_with_bad_seed(spec, seed):
        inst = build(spec, seed)
        return dataclasses.replace(inst, y=np.full_like(inst.y, np.nan)) if seed == bad_seed else inst

    monkeypatch.setattr(experiment, "build_instance", build_with_bad_seed)
    seeds = run_experiment(spec, master_seed=0).to_json_dict()["seeds"]
    assert [(seed["failed"] is None, seed["reference"]) for seed in seeds] == [(True, "kkt"), (False, None)]
