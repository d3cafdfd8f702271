"""The stacked audit of ``solver.run`` against iterates stepped and audited by hand.

``run`` buffers the primal point of each iterate and fills the cost,
fixed-point residual and distance columns of AUDIT_ROWS iterates with one
call each (9 for a 10-row block, which meets the AUDIT_POINTS budget
first).  Here the same iterates come from plain ``ista_step``/``dr_step``
loops, each audited alone, and every column must be ``array_equal`` to the
trace's, NaN included.  Run lengths cover one row, a full buffer, one row
past it and a run ending mid-buffer, with no reference, a reference, and a
reference with ``stop_dist`` (then the distance is taken per iterate for the
stop test while the other columns stay stacked); a 10-row block covers the
same lengths around its 9-row buffer.
"""

import math

import numpy as np
import pytest

from drsplit import EXP2, FirmPenalty, Problem, SolverConfig, build_subspace_demo, ista_step, run, solver
from drsplit.experiment import block_problem, build_instance, derive_seeds
from drsplit.linalg import row_norm
from drsplit.solver import dr_step

R = solver.AUDIT_ROWS
LENGTHS = [1, R, R + 1, 3 * R + 5]
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


def check_against_hand(problem, variant, rows, mode, monkeypatch, alpha=None, reference=None, per_call=R):
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
    assert len(shapes) == math.ceil(written / per_call)
    full, rest = divmod(written, per_call)
    assert [s[0] for s in shapes] == [per_call] * full + ([rest] if rest else [])

    # Each row stops where the hand loop first meets stop_dist (or runs to
    # the end); a stopped row keeps its point, so its audit repeats.
    met = hand["step_norm"] <= 0.0
    if stop_dist is not None:
        met |= hand["dist_to_ref"] <= stop_dist
    stops = [int(np.argmax(col)) if col.any() else rows - 1 for col in met.T]
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
