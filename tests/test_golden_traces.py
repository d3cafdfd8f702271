"""Golden traces: the exact bytes of ``IterationTrace.to_csv`` for every variant.

Each case pins the sha256 of a trace CSV (17 significant digits per float),
so any change to the iteration arithmetic, the primal extraction or the
per-iteration audit shows up as a hash mismatch.  Cases:

* all five variants, 400 iterations at their default steps, on the first
  EXP1 and EXP2 instance of master seed 0, with the distance column measured
  against a 3000-iteration ISTA reference;
* both shifted variants on the subspace-constrained demo (alpha = 1,
  tol = 1e-14).

The hashes were taken with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on
OpenBLAS 0.3.31 (x86-64), identical at 1 and 2 BLAS threads.  Another numpy,
scipy or BLAS build may round differently and change them without any change
to drsplit.
"""

import hashlib

import numpy as np
import pytest

from drsplit import FirmPenalty, SolverConfig, build_subspace_demo, run

GOLDEN = {
    ("exp1", "dr-main-fg"): "9425aafaca5d57a21ca56186c9b065493cd4d2df293199d95c1f645d35cac796",
    ("exp1", "dr-main-gf"): "149532ff825d368f648b973f66bf3a367fad24146399924e4052ec25c1036d7c",
    ("exp1", "dr-shift-fg"): "d255be006680b17c486f0a56dbef83f5795a6e13c2f0a6012c6192fba5839352",
    ("exp1", "dr-shift-gf"): "9a122d365e8e36f98888c6e3e490af62ca60c83472fedba9509b4834c3c0ae36",
    ("exp1", "ista"): "a033c1663e7f28ceb5830447008b90bd3143b6856c5e25b78b1c9b8f89ae6b3a",
    ("exp2", "dr-main-fg"): "8a14d1aa4c2d6eeea09514173886684e8adb00f721653c54e8bc5e0873d0bb42",
    ("exp2", "dr-main-gf"): "9ec35628a7b84553dca51edc7c659617990c11566af007463d3b3825c91c3d5d",
    ("exp2", "dr-shift-fg"): "5207477df49f0e9ac2516f5cf0d6cb9b8a8cc5718fea907c86677899e6782891",
    ("exp2", "dr-shift-gf"): "8787efb78af9c6e2af2f386c90d10d1103437f9801cd497bcd8154dd7530fbea",
    ("exp2", "ista"): "a2b5634f4bc6feced50d2f174f52a0aa5e4d3a10c8627a9f5e3664635a57e792",
    ("subspace", "dr-shift-fg"): "6cbfe2c59b2f0e1660e2f226c5cd791269d97be6491e4d0c85ebc071e2219df1",
    ("subspace", "dr-shift-gf"): "5a890176918ee1035c789726ad9a763a3c573c557a5b1ff3679e40277b60c41e",
}


def csv_sha256(trace, tmp_path) -> str:
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def references(exp1_problem, exp2_problem):
    return {
        name: (problem, run(problem, SolverConfig("ista", max_iters=3000)).final_x)
        for name, problem in (("exp1", exp1_problem), ("exp2", exp2_problem))
    }


@pytest.mark.parametrize("case", [c for c in GOLDEN if c[0] != "subspace"], ids="/".join)
def test_experiment_trace(case, references, tmp_path):
    problem, x_ref = references[case[0]]
    trace = run(problem, SolverConfig(case[1], max_iters=400, record_reference=x_ref))
    assert csv_sha256(trace, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("variant", ["dr-shift-fg", "dr-shift-gf"])
def test_subspace_demo_trace(variant, tmp_path):
    y = np.random.default_rng(6).normal(0.0, 2.0, size=16)
    problem, oracle = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
    trace = run(
        problem,
        SolverConfig(variant, alpha=1.0, max_iters=2000, tol=1e-14, record_reference=oracle),
    )
    assert csv_sha256(trace, tmp_path) == GOLDEN[("subspace", variant)]
