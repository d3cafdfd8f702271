"""Golden traces: the exact bytes of ``IterationTrace.to_csv`` for every variant.

Each case pins the sha256 of a trace CSV (17 significant digits per float),
so any change to the iteration arithmetic, the primal extraction or the
per-iteration audit shows up as a hash mismatch.  Cases:

* all five variants, 400 iterations at their default steps, on the first
  EXP1 and EXP2 instance of master seed 0, with the distance column measured
  against a 3000-iteration ISTA reference;
* both shifted variants on that EXP2 instance at 0.99 x their step bound,
  ``default_alpha(problem, variant, 0.99)``, which the study runs at (the
  default step there minimizes their certified rate instead);
* both shifted variants on the subspace-constrained demo, split as
  f = 0.5||y - x||^2 + i_K and g = FirmPenalty(1.0, 0.5), so they shift by
  rho = 0.5 (alpha = 1, tol = 1e-14).

The hashes were taken with Python 3.11.7 and numpy 2.4.6 on OpenBLAS 0.3.31
(x86-64), identical at 1 and 2 BLAS threads.  Another numpy or BLAS build may
round differently and change them without any change to drsplit;
``test_study_pins.py`` checks the study's results on any build.
"""

import hashlib

import numpy as np
import pytest

from drsplit import FirmPenalty, SolverConfig, build_subspace_demo, run
from drsplit.solver import default_alpha

GOLDEN = {
    ("exp1", "dr-main-fg"): "0c809a18edb714c6ce6b23ef7ac5f76bbd5e6341612440e8d2702f88a7b062d9",
    ("exp1", "dr-main-gf"): "6656c27f8b72b629b136fa282496766630c10a3f8300df50532cd8f32fb06704",
    ("exp1", "dr-shift-fg"): "20f2457cb7e92ea6f82915cf351cd24f4495921f0ad02a7099a4c8960eb29302",
    ("exp1", "dr-shift-gf"): "9be69faec7842d1d9405490738138b28159bd5fb978cdb73ae7212ce5048e40d",
    ("exp1", "ista"): "a033c1663e7f28ceb5830447008b90bd3143b6856c5e25b78b1c9b8f89ae6b3a",
    ("exp2", "dr-main-fg"): "7bd7236b565c7860c6b1a2a9e9b6a33a779d7ee1a3c575b5de0cbee0f2dcb353",
    ("exp2", "dr-main-gf"): "fd301f9311df0735b1b6d5d2bb7c5a7d5c56e012090ef5a8b25cb8f455368d3a",
    ("exp2", "dr-shift-fg"): "5ca7c64d8f13bdfc25b2e80fa2f366c083282a49591384b7169598ac554fc1fd",
    ("exp2", "dr-shift-gf"): "9007f7223685f916e55ca2112309eb4817c42ef04c3fc69d22d7c5e7f3d51623",
    ("exp2", "ista"): "a2b5634f4bc6feced50d2f174f52a0aa5e4d3a10c8627a9f5e3664635a57e792",
    ("subspace", "dr-shift-fg"): "ffcd58877eb0a78909be9eba73066592bea17d3f54bc2b4fd77cea506853bfcd",
    ("subspace", "dr-shift-gf"): "a13a64e4984ec173ab5c14be81f6a54e9750dc0fecec5ea8f2924c2e884ded3b",
}

# Runs at alpha = default_alpha(problem, variant, 0.99).
GOLDEN_AT_FRACTION = {
    ("exp2", "dr-shift-fg"): "80ab0e238fcfd68f0ab310d3fda04d9934be25c7a0b26095602caa96c4bedf0e",
    ("exp2", "dr-shift-gf"): "d3ef266777c1e65c0b5843e0d70e4718e809b4118a6a8ad4d9cde9562e6abd2f",
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


@pytest.mark.parametrize("case", GOLDEN_AT_FRACTION, ids="/".join)
def test_experiment_trace_at_099_of_the_bound(case, references, tmp_path):
    problem, x_ref = references[case[0]]
    alpha = default_alpha(problem, case[1], 0.99)
    trace = run(problem, SolverConfig(case[1], alpha=alpha, max_iters=400, record_reference=x_ref))
    assert csv_sha256(trace, tmp_path) == GOLDEN_AT_FRACTION[case]


@pytest.mark.parametrize("variant", ["dr-shift-fg", "dr-shift-gf"])
def test_subspace_demo_trace(variant, tmp_path):
    y = np.random.default_rng(6).normal(0.0, 2.0, size=16)
    problem, oracle = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
    trace = run(
        problem,
        SolverConfig(variant, alpha=1.0, max_iters=2000, tol=1e-14, record_reference=oracle),
    )
    assert csv_sha256(trace, tmp_path) == GOLDEN[("subspace", variant)]
