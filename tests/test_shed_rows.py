"""A block run steps only the rows still running.

When rows of a block stop, ``solver.run`` keeps their final points, audits
what is pending and goes on with ``Problem.take`` of the rows left:
``QuadraticTerm.take`` and ``FirmPenalty.take`` cut y, Hᵀy and tau to those
rows and share the operator and its stored prox matrices.  These tests count the
rows the step's prox is called on, check each row's trace against a run of
that row alone, bit for bit, and check the ``take`` protocol itself.
"""

import dataclasses

import numpy as np
import pytest

from drsplit import EXP1, EXP2, FirmPenalty, Problem, QuadraticTerm, SolverConfig, experiment, linalg, run
from drsplit.experiment import block_problem, derive_seeds

COLUMNS = ("iterations", "cost", "step_norm", "fp_residual", "dist_to_ref", "final_x", "final_z")


def instances(spec, master_seed, n):
    return [experiment.build_instance(spec, seed) for seed in derive_seeds(master_seed, n)]


def steps(monkeypatch, cls, method, problem, config):
    """run(problem, config), and the leading shape of each call of
    cls.method on an iterate (the step's own prox): () for a single
    problem, (rows,) for a block."""
    ndim, shapes, found = len(problem.shape), [], getattr(cls, method)

    def counted(self, x, *args):
        if np.ndim(x) == ndim:
            shapes.append(np.shape(x)[:-1])
        return found(self, x, *args)

    with monkeypatch.context() as m:
        m.setattr(cls, method, counted)
        trace = run(problem, config)
    return trace, shapes


def check_shed(insts, config, cls, method, monkeypatch):
    """The block steps each row exactly as often as that row's run alone,
    and each row's trace is that run's; returns the block trace."""
    problem = block_problem(insts)
    trace, shapes = steps(monkeypatch, cls, method, problem, config)
    own = []
    for b, (row, inst) in enumerate(zip(trace.split(), insts)):
        reference = config.record_reference
        alone = config if reference is None else dataclasses.replace(config, record_reference=reference[b])
        single, single_shapes = steps(monkeypatch, cls, method, inst.problem(), alone)
        for name in COLUMNS:
            got, want = getattr(row, name), getattr(single, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert (row.converged, row.stop_reason) == (single.converged, single.stop_reason)
        assert set(single_shapes) <= {()}
        own.append(len(single_shapes))
        assert own[-1] == row.n_iters
    # Step n steps the rows whose own run takes n steps or more, and no other.
    assert [s[0] for s in shapes] == [sum(k >= n for k in own) for n in range(1, max(own) + 1)]
    assert sum(s[0] for s in shapes) == sum(own)
    assert len(set(own)) > 1  # rows leave the block at different iterations
    return trace


@pytest.fixture(scope="module")
def exp2_ten():
    insts = instances(EXP2, 0, 10)
    reference = run(block_problem(insts), SolverConfig("ista", max_iters=EXP2.reference_iters, audit=False))
    return insts, reference.final_x


@pytest.mark.parametrize(
    "variant, cls, method",
    [("dr-main-fg", QuadraticTerm, "prox"), ("dr-shift-gf", FirmPenalty, "prox"), ("ista", FirmPenalty, "prox")],
)
def test_ten_seed_block_with_stop_dist(exp2_ten, variant, cls, method, monkeypatch):
    insts, reference = exp2_ten
    config = SolverConfig(
        variant, max_iters=EXP2.max_iters, record_reference=reference, stop_dist=EXP2.dist_threshold
    )
    trace = check_shed(insts, config, cls, method, monkeypatch)
    assert set(trace.stop_reason) == {"stop_dist"}


def test_cycling_ista_reference(monkeypatch):
    # EXP1 master seed 3: row 4 reaches an exact fixed point and stops on tol
    # at iteration 500; the other rows run to the limit, row 5 on a cycle
    # from iteration 864.
    config = SolverConfig("ista", max_iters=EXP1.reference_iters, audit=False)
    trace = check_shed(instances(EXP1, 3, 6), config, FirmPenalty, "prox", monkeypatch)
    assert (trace.row_iters == EXP1.reference_iters).any()


@pytest.fixture(scope="module")
def exp2_five():
    insts = instances(EXP2, 1, 5)
    return insts, block_problem(insts)


ROWS = [3, 0, 4]


def test_take_gives_the_bits_of_a_block_built_on_those_rows(exp2_five, monkeypatch):
    insts, block = exp2_five
    alpha = 0.3
    block.smooth.prox(np.zeros(block.shape), alpha)  # the matrix a run holds
    alone = block_problem([insts[i] for i in ROWS])
    rng = np.random.default_rng(3)
    point, stack = rng.normal(size=(3, block.dim)), rng.normal(size=(4, 3, block.dim))
    built, build = [], linalg.prox_matrix
    with monkeypatch.context() as m:
        m.setattr(linalg, "prox_matrix", lambda *a: built.append(1) or build(*a))
        cut = block.take(ROWS)
        prox = [cut.smooth.prox(point, alpha)]
        prox.append(alone.smooth.prox(point, alpha))
        # Both apply the matrix the block's operator stored, shared by every
        # instance of the filter.
        assert not built and cut.smooth._step[1] is alone.smooth._step[1] is block.smooth._step[1]
    pairs = [
        (term.smooth.shifted_prox(point, alpha, block.rho), term.smooth.grad(stack), term.smooth.value(stack),
         term.penalty.prox(stack, alpha), term.penalty.shifted_prox(point, alpha), term.penalty.value(stack),
         term.cost(stack), term.fixed_point_residual(stack, alpha))
        for term in (cut, alone)
    ]
    pairs[0] += (prox[0],)
    pairs[1] += (prox[1],)
    for got, want in zip(*pairs):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert cut.smooth.operator is block.smooth.operator and cut.smooth._gram is block.smooth._gram
    assert cut.smooth.block_shape == cut.penalty.block_shape == (3,)
    assert not cut.smooth.y.flags.writeable and not cut.penalty.tau.flags.writeable


class Opaque:
    """A block term without ``take``; records every attribute it hands out."""

    def __init__(self, term):
        self.term, self.asked = term, []

    def __getattr__(self, name):
        if name == "take":
            raise AttributeError(name)
        self.asked.append(name)
        return getattr(self.term, name)

    def __repr__(self):
        return "Opaque()"


@pytest.mark.parametrize("side", ["smooth", "penalty"])
def test_a_block_term_without_take_is_rejected_before_the_first_iteration(exp2_five, side):
    _, block = exp2_five
    opaque = Opaque(getattr(block, side))
    problem = dataclasses.replace(block, **{side: opaque})
    with pytest.raises(TypeError, match=rf"^{side} term Opaque\(\) holds a block of rows but has no take\(rows\)$"):
        run(problem, SolverConfig("dr-main-fg", max_iters=5))
    assert not {"prox", "shifted_prox", "grad", "value"} & set(opaque.asked)


def test_a_shared_term_needs_no_take(exp2_five):
    # A penalty with one scalar weight has no block: the rows share it.
    insts, block = exp2_five
    shared = Problem(block.smooth, FirmPenalty(insts[0].penalty.tau, block.rho))
    trace_config = SolverConfig("dr-main-fg", max_iters=300, tol=1e-9)
    trace = run(shared, trace_config)
    assert len(set(trace.row_iters.tolist())) > 1
    for row, inst in zip(trace.split(), insts):
        single = run(Problem(QuadraticTerm(inst.operator, inst.y), shared.penalty), trace_config)
        assert row.final_x.tobytes() == single.final_x.tobytes()
