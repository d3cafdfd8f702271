"""The stacked audit of ``solver.run`` against iterates stepped and audited by hand.

``run`` buffers the primal point of each iterate and fills the cost,
fixed-point residual and distance columns of ``rows_per_call(B)`` iterates
of B running rows with one call each: 96 for a single problem, 32 for a
3-row block, 16 for a 6-row one and 9 for a 10-row one.  Here the same iterates come from plain
``ista_step``/``dr_step`` loops, each audited alone, and every column must
be ``array_equal`` to the trace's, NaN included.  Run lengths cover one
row, a single problem's full buffer, one row past it and runs ending
mid-buffer, with no reference, a reference, and a reference with
``stop_dist`` (then the distance is taken per iterate for the stop test
while the other columns stay stacked); 6- and 10-row blocks cover the
same lengths around their 16- and 9-row buffers.  Where rows of a block stop, ``run``
audits what it has buffered and goes on with the rows still running, so
the exact shapes of the audit calls follow from where each row stops.
"""

import math

import numpy as np
import pytest

from drsplit import EXP2, FirmPenalty, Problem, SolverConfig, build_subspace_demo, ista_step, run, solver
from drsplit.experiment import block_problem, build_instance, derive_seeds
from drsplit.linalg import row_norm, rows_per_call
from drsplit.solver import dr_step

R = rows_per_call(1)
# 16, 17 and 53 end runs partway through a buffer, 1, R, R + 1 and 3R + 5 at
# the edges of a single problem's.
LENGTHS = [1, 16, 17, 53, R, R + 1, 3 * R + 5]
COLUMNS = ("step_norm", "cost", "fp_residual", "dist_to_ref")


def hand_columns(problem, variant, alpha, iters, reference):
    """Columns of iterates 0 .. iters, each iterate audited by its own calls;
    shape (iters + 1, B), B = 1 for a single problem."""
    sigma = problem.grad_lipschitz
    audit_alpha = 1.0 / sigma if problem.has_gradient() and sigma is not None and problem.rho < sigma else None
    extract = (lambda z: z) if variant == "ista" else solver.prox_pair(problem, alpha, variant)[0]
    nan = np.full(problem.shape[:-1], math.nan)
    z, step = np.zeros(problem.shape), nan
    cols = {name: [] for name in COLUMNS}
    for n in range(iters + 1):
        if n:
            z_new = ista_step(problem, z, alpha) if variant == "ista" else dr_step(problem, z, alpha, variant)
            step, z = row_norm(z_new - z), z_new
        x = extract(z)
        cols["step_norm"].append(step)
        cols["cost"].append(problem.cost(x))
        cols["fp_residual"].append(nan if audit_alpha is None else problem.fixed_point_residual(x, audit_alpha))
        cols["dist_to_ref"].append(nan if reference is None else row_norm(x - reference))
    return {name: np.array(c, dtype=float).reshape(iters + 1, -1) for name, c in cols.items()}


def check_against_hand(problem, variant, rows, mode, monkeypatch, alpha=None, reference=None, per_call=None):
    block = problem.shape[:-1]
    per_call = rows_per_call(math.prod(block)) if per_call is None else per_call
    alpha = solver.default_alpha(problem, variant) if alpha is None else alpha
    if reference is None:
        reference = run(problem, SolverConfig("ista", max_iters=300)).final_x
    hand = hand_columns(problem, variant, alpha, rows - 1, None if mode == "none" else reference)
    stop_dist = None
    if mode == "stop_dist":  # the middle row's distance at 2 buffers, or at the last row of a shorter run
        stop_dist = float(np.median(hand["dist_to_ref"][min(rows - 1, 2 * per_call)]))
    config = SolverConfig(
        variant,
        alpha=alpha,
        max_iters=rows - 1,
        record_reference=None if mode == "none" else reference,
        stop_dist=stop_dist,
    )

    shapes = []
    cost = Problem.cost
    with monkeypatch.context() as m:
        m.setattr(Problem, "cost", lambda self, x: shapes.append(np.shape(x)) or cost(self, x))
        trace = run(problem, config)
    written = trace.n_iters + 1

    # Each row stops where the hand loop first meets stop_dist (or runs to
    # the end); a stopped row keeps its point, so its audit repeats.
    met = hand["step_norm"] <= 0.0
    if stop_dist is not None:
        met |= hand["dist_to_ref"] <= stop_dist
    stops = [int(np.argmax(col)) if col.any() else rows - 1 for col in met.T]
    # One call per full buffer, and one for the iterates left where rows
    # stop (the rows still running go on alone) or the loop ends; the
    # iterates per call follow the running row count.
    assert per_call == rows_per_call(math.prod(block))
    expected, start = [], 0
    for end in sorted(set(stops)):
        running = sum(stop >= end for stop in stops)
        k = rows_per_call(running)
        full, rest = divmod(end + 1 - start, k)
        point = (running, problem.dim) if block else (problem.dim,)
        expected += [(k, *point)] * full + ([(rest, *point)] if rest else [])
        start = end + 1
    assert shapes == expected + [problem.shape]  # the audit calls, then the final cost
    assert trace.n_iters == max(stops)
    if mode == "stop_dist" and rows > 2 * per_call:
        assert min(stops) < rows - 1  # the case stops a row early
    for name in COLUMNS:
        got = getattr(trace, name).reshape(written, -1)
        for b, stop in enumerate(stops):
            np.testing.assert_array_equal(got[: stop + 1, b], hand[name][: stop + 1, b], err_msg=name)
            if name != "step_norm":
                np.testing.assert_array_equal(got[stop + 1 :, b], hand[name][stop, b], err_msg=name)
    return trace


@pytest.fixture(scope="module")
def exp2_block():
    return block_problem([build_instance(EXP2, s) for s in derive_seeds(0, 3)])


MODES = ["none", "reference", "stop_dist"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows", LENGTHS)
@pytest.mark.parametrize("variant", ["ista", "dr-main-fg", "dr-shift-gf"])
def test_exp2_block(exp2_block, variant, rows, mode, monkeypatch):
    check_against_hand(exp2_block, variant, rows, mode, monkeypatch)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows", [1, 16, 17, 3 * 16 + 5])
@pytest.mark.parametrize("variant", ["ista", "dr-main-fg"])
def test_exp2_six_seed_block(variant, rows, mode, monkeypatch):
    # 6 block rows: the 96-point budget leaves 16 iterates per audit call.
    block = block_problem([build_instance(EXP2, s) for s in derive_seeds(0, 6)])
    check_against_hand(block, variant, rows, mode, monkeypatch, per_call=16)


@pytest.fixture(scope="module")
def exp2_block10():
    return block_problem([build_instance(EXP2, s) for s in derive_seeds(0, 10)])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows", [1, 9, 10, 3 * 9 + 5])
@pytest.mark.parametrize("variant", ["ista", "dr-shift-fg"])
def test_exp2_ten_seed_block(exp2_block10, variant, rows, mode, monkeypatch):
    # 10 block rows: the 96-point budget leaves 9 iterates per audit call.
    check_against_hand(exp2_block10, variant, rows, mode, monkeypatch, per_call=9)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows", LENGTHS)
@pytest.mark.parametrize("variant", ["ista", "dr-main-gf", "dr-shift-fg"])
def test_exp1_single(exp1_problem, variant, rows, mode, monkeypatch):
    check_against_hand(exp1_problem, variant, rows, mode, monkeypatch)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rows", LENGTHS)
def test_subspace_demo(rows, mode, monkeypatch):
    # No gradient on the f-side: the residual column is NaN throughout.
    y = np.random.default_rng(6).normal(0.0, 2.0, size=16)
    problem, oracle = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
    trace = check_against_hand(problem, "dr-shift-fg", rows, mode, monkeypatch, alpha=1.0, reference=oracle)
    assert np.isnan(trace.fp_residual).all()
