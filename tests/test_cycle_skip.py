"""Exact-cycle fast-forward in ``solver.run``.

Once an iterate repeats bit for bit, every later iterate and every trace
column repeats with it, so ``run`` steps a cycling row only until its z is
that of iteration max_iters and fills its columns by repetition.  Each case
here checks, bit for bit, that the result equals ``run`` with detection
turned off (``CYCLE_WINDOW`` patched above max_iters) and that the final
point equals a plain ``ista_step`` loop; each asserts that the rows it covers
did cycle (``period > 0``), so none passes vacuously.

The instances and iteration counts were chosen from where plain ISTA enters
its cycle on this build (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS
0.3.31, x86-64); each test derives the numbers it needs from a plain loop and
checks that they still put the case where it claims to be.
"""

import dataclasses

import numpy as np
import pytest

from drsplit import EXP1, EXP2, SolverConfig, experiment, ista_step, run, solver
from drsplit.experiment import block_problem, derive_seeds

W = solver.CYCLE_WINDOW


def undetected(problem, config, monkeypatch):
    """``run`` with cycle detection off: the window lies past max_iters."""
    with monkeypatch.context() as m:
        m.setattr(solver, "CYCLE_WINDOW", config.max_iters + 1)
        return run(problem, config)


def plain_ista(problem, iters):
    """The ISTA iterates x_0 .. x_iters at the default step, one ista_step at a time."""
    alpha = solver.default_alpha(problem, "ista")
    xs = [np.zeros(problem.shape)]
    for _ in range(iters):
        xs.append(ista_step(problem, xs[-1], alpha))
    return xs


def cycle_of(xs):
    """(start, period) of the first exact repeat in a list of iterates, else None."""
    seen = {}
    for n, x in enumerate(xs):
        if x.tobytes() in seen:
            start = seen[x.tobytes()]
            return start, n - start
        seen[x.tobytes()] = n
    return None


def assert_same(trace, plain, tmp_path):
    """Every array of two traces, and each row's CSV, bit for bit."""
    for name in ("iterations", "cost", "step_norm", "fp_residual", "dist_to_ref", "final_x", "final_z"):
        a, b = getattr(trace, name), getattr(plain, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("converged", "stop_reason", "row_iters"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(plain, name))
    for row, plain_row in zip(trace.split(), plain.split()):
        row.to_csv(tmp_path / "a.csv")
        plain_row.to_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def instances(spec, master_seed, rows=None):
    seeds = derive_seeds(master_seed, 6)
    return [experiment.build_instance(spec, seeds[i]) for i in (range(6) if rows is None else rows)]


@pytest.fixture(scope="module")
def exp2_block():
    """Six EXP2 seeds (ISTA periods 2 and 6, cycles from iteration 243-287)
    and a DR reference point for them."""
    problem = block_problem(instances(EXP2, 0))
    return problem, run(problem, SolverConfig("dr-main-fg", max_iters=1000)).final_x


def test_audited_single_run_skips_to_the_same_bytes(exp2_problem, monkeypatch, tmp_path):
    reference = run(exp2_problem, SolverConfig("dr-main-fg", max_iters=1000)).final_x
    config = SolverConfig("ista", max_iters=3000, record_reference=reference)
    trace = run(exp2_problem, config)
    assert trace.period > 0 and trace.period == cycle_of(plain_ista(exp2_problem, 600))[1]
    assert trace.stop_reason == "max_iters" and not trace.converged and trace.n_iters == 3000
    assert_same(trace, undetected(exp2_problem, config, monkeypatch), tmp_path)
    assert trace.final_x.tobytes() == plain_ista(exp2_problem, 3000)[-1].tobytes()


@pytest.mark.parametrize("variant", ["ista", "dr-main-fg"])
def test_block_mixing_fixed_points_cycles_and_non_cycling_rows(variant, monkeypatch, tmp_path):
    # EXP1 master seed 3: row 4 reaches an exact fixed point at iteration 499,
    # row 5 cycles from 864 (found at the anchor of 1024); the other rows
    # enter their cycles after 1024 and so are not found by 1500.
    insts = instances(EXP1, 3)
    cycles = [cycle_of(plain_ista(inst.problem(), 1500)) for inst in insts]
    assert cycles[4][1] == 1 and cycles[5][0] <= 2 * W and 1 < cycles[5][1] < W
    assert all(c is None or c[0] > 2 * W for c in cycles[:4])
    problem = block_problem(insts)
    config = SolverConfig(variant, max_iters=1500)
    trace = run(problem, config)
    assert_same(trace, undetected(problem, config, monkeypatch), tmp_path)
    if variant == "ista":
        assert list(trace.stop_reason) == ["max_iters"] * 4 + ["tol", "max_iters"]
        assert trace.period.tolist() == [0, 0, 0, 0, 0, cycles[5][1]]
        assert trace.row_iters.tolist() == [1500] * 4 + [cycles[4][0] + 1, 1500]
        np.testing.assert_array_equal(trace.final_x, plain_ista(problem, 1500)[-1])
    else:  # DR iterates do not cycle here
        assert not trace.period.any()


def test_dr_block_with_one_cycling_row(exp2_block, monkeypatch, tmp_path):
    # The fourth seed's dr-main-fg iterate cycles from iteration 105 with
    # period 330, found at 842; the other rows do not cycle.
    problem, reference = exp2_block
    config = SolverConfig("dr-main-fg", max_iters=1200, record_reference=reference)
    trace = run(problem, config)
    assert trace.period.tolist() == [0, 0, 0, 330, 0, 0]
    assert_same(trace, undetected(problem, config, monkeypatch), tmp_path)


def test_detection_at_the_last_iterations(monkeypatch, tmp_path):
    # EXP1 master seed 0, row 4: period 2 from iteration 2469, so the anchor
    # of 2560 is found again at 2562.
    problem = instances(EXP1, 0, rows=[4])[0].problem()
    xs = plain_ista(problem, 2600)
    start, period = cycle_of(xs)
    assert period == 2 and start > 4 * W
    found = -(-start // W) * W + period
    for max_iters in (found - 1, found, found + 1, found + period, found + period + 1):
        config = SolverConfig("ista", max_iters=max_iters)
        trace = run(problem, config)
        assert trace.period == (period if max_iters >= found else 0)
        assert trace.n_iters == max_iters and trace.stop_reason == "max_iters"
        assert_same(trace, undetected(problem, config, monkeypatch), tmp_path)
        assert trace.final_x.tobytes() == xs[max_iters].tobytes()


def test_runs_shorter_than_two_windows_keep_the_plain_loop(exp2_problem, monkeypatch, tmp_path):
    start, period = cycle_of(plain_ista(exp2_problem, W))
    assert start < W  # the anchor at W lies on the cycle
    short = SolverConfig("ista", max_iters=2 * W - 1)
    trace = run(exp2_problem, short)
    assert trace.period == 0 and trace.n_iters == 2 * W - 1
    assert_same(trace, undetected(exp2_problem, short, monkeypatch), tmp_path)
    assert run(exp2_problem, dataclasses.replace(short, max_iters=2 * W)).period == period


def test_cycling_rows_that_never_meet_stop_dist(exp2_block, monkeypatch, tmp_path):
    # At 2.7e-15 the first three rows meet the distance to the DR reference
    # and the last three cycle without ever meeting it.
    problem, reference = exp2_block
    config = SolverConfig("ista", max_iters=3000, record_reference=reference, stop_dist=2.7e-15)
    trace = run(problem, config)
    assert list(trace.stop_reason) == ["stop_dist"] * 3 + ["max_iters"] * 3
    assert (trace.period[:3] == 0).all() and (trace.period[3:] > 0).all()
    assert_same(trace, undetected(problem, config, monkeypatch), tmp_path)
    np.testing.assert_array_equal(trace.final_x[3:], plain_ista(problem, 3000)[-1][3:])
