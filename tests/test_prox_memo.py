"""The proxes keep their step's constants without moving a bit.

``FirmPenalty.prox`` keeps (alpha, alpha tau, tau/rho, 1 - alpha rho) of its
last step, and ``QuadraticTerm.prox`` keeps (alpha, M, alpha Hᵀy) with M from
its operator's store.  Each must give the bits of the formula it replaced
(``oracles.firm_prox``; M applied to x + alpha Hᵀy), at steps that
alternate, on the band edges, at signed zeros, NaN and infinities, for
scalar and column weights, on stacks of blocks and after ``take``.  A step
that fails the step rule, NaN above all, must raise on every call.

For a column of weights the firm prox keeps alpha tau and tau/rho at the
(B, n) shape of the block's iterates.  Each row of its result must then have
the bits of a scalar-weight penalty's prox of that row, on blocks of 1, 2, 6
and 20 stock EXP2 seeds and on (k, B, n) audit stacks, with calls that
alternate between the run step and the audit step 1/sigma, that change n,
and after ``take``.
"""

import math

import numpy as np
import pytest

from drsplit import EXP2, FirmPenalty, QuadraticTerm, StepSizeError, linalg, solver
from drsplit.experiment import block_problem, build_instance, derive_seeds
from drsplit.linalg import matvec

from oracles import firm_prox

RHO = 0.8
STEPS = (0.3, 0.55, 0.3, 1.0 / RHO - 1e-9, 0.3)  # alternating, then one next to the gate


def points(rng, tau, alpha, shape):
    """Random points of shape over all three zones, their first coordinates
    set to where the firm prox changes form (+-alpha tau and +-tau/rho
    exactly), to +-0.0, NaN and +-inf."""
    x = rng.normal(size=shape) * 2.0 * np.max(tau) / RHO
    edges = [alpha * tau, tau / RHO]  # scalars, or (B, 1) columns
    for k, v in enumerate([*edges, *(-e for e in edges), 0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]):
        x[..., k] = v[:, 0] if np.ndim(v) else v
    return x


COLUMN = np.array([[0.7], [0.2], [1.9]])


@pytest.mark.parametrize(
    "tau, lead",
    [(0.7, ()), (0.7, (3,)), (0.7, (4, 3)), (COLUMN, (3,)), (COLUMN, (4, 3))],
    ids=["scalar-point", "scalar-block", "scalar-stack", "column-block", "column-stack"],
)
def test_firm_prox_has_the_bits_of_the_formula(tau, lead):
    g, rng = FirmPenalty(tau, RHO), np.random.default_rng(len(lead))
    for alpha in STEPS:
        for _ in range(50):
            x = points(rng, tau, alpha, (*lead, 40))
            got, want = g.prox(x, alpha), firm_prox(x, alpha, tau, RHO)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_firm_prox_after_take_has_the_bits_of_the_formula():
    tau, rows = np.array([[0.7], [0.2], [1.9], [1.1]]), [3, 0]
    g, rng = FirmPenalty(tau, RHO), np.random.default_rng(5)
    for alpha in STEPS:
        g.prox(points(rng, tau, alpha, (4, 40)), alpha)  # the whole block's constants, then the cut's
        cut = g.take(rows)
        for _ in range(20):
            x = points(rng, tau[rows], alpha, (2, 40))
            assert cut.prox(x, alpha).tobytes() == firm_prox(x, alpha, tau[rows], RHO).tobytes()


def test_quadratic_prox_has_the_bits_of_its_matrix():
    problem = block_problem([build_instance(EXP2, seed) for seed in derive_seeds(2, 4)])
    f, rng = problem.smooth, np.random.default_rng(9)
    gram, hty = f.operator.gram(), f.operator.adjoint_apply(f.y)
    alphas = (0.3, 0.55, 0.3, 0.55, 0.3)
    for alpha in alphas:
        for x in (rng.normal(size=problem.shape), rng.normal(size=(5, *problem.shape))):
            want = matvec(linalg.prox_matrix(gram, alpha), x + alpha * hty)
            assert f.prox(x, alpha).tobytes() == want.tobytes()
        cut = f.take([2, 0])
        x = rng.normal(size=(2, problem.dim))
        assert cut.prox(x, alpha).tobytes() == matvec(linalg.prox_matrix(gram, alpha), x + alpha * hty[[2, 0]]).tobytes()


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, 1.0 / RHO])
def test_a_bad_step_raises_on_every_call(bad):
    # The quadratic prox has no alpha * rho gate: 1/rho is a good step there.
    rng = np.random.default_rng(3)
    f = QuadraticTerm(linalg.LinearMap(rng.normal(size=(6, 4))), rng.normal(size=6))
    g = FirmPenalty(0.5, RHO)
    x = rng.normal(size=4)
    for prox in (g.prox, f.prox) if bad != 1.0 / RHO else (g.prox,):
        for _ in range(3):
            prox(x, 0.3)  # a good step kept, then the bad one tried twice
            for _ in range(2):
                with pytest.raises(StepSizeError):
                    prox(x, bad)
            assert prox.__self__._step[0] == 0.3


def check_rows_against_scalars(g, scalars, x, alpha):
    """Each block row of g.prox(x, alpha), x of shape (..., B, n), against
    the scalar-weight penalty of that row."""
    got = g.prox(x, alpha)
    assert got.shape == x.shape
    for b, scalar in enumerate(scalars):
        assert got[..., b, :].tobytes() == scalar.prox(x[..., b, :], alpha).tobytes()


@pytest.mark.parametrize("rows", [1, 2, 6, 20])
def test_block_firm_prox_rows_have_the_bits_of_scalar_penalties(rows):
    instances = [build_instance(EXP2, seed) for seed in derive_seeds(4, rows)]
    problem = block_problem(instances)
    g, scalars = problem.penalty, [inst.penalty for inst in instances]
    run_step, audit_step = solver.default_alpha(problem, "dr-main-fg"), 1.0 / problem.grad_lipschitz
    rng, n = np.random.default_rng(rows), problem.dim
    # The run step and the audit step alternate, as a run's steps and audit
    # flushes do; n changes once, and the constants are rebuilt for it.
    for alpha, width in [(run_step, n), (audit_step, n), (run_step, n), (run_step, 16), (run_step, n), (audit_step, n)]:
        for lead in ((rows,), (3, rows), (2, 4, rows)):  # a block, then (k, B, n) audit stacks
            for _ in range(5):
                check_rows_against_scalars(g, scalars, points(rng, g.tau, alpha, (*lead, width)), alpha)
    kept = [rows - 1, 0] if rows > 1 else [0]
    cut = g.take(kept)
    for alpha in (run_step, audit_step, run_step):
        for lead in ((len(kept),), (5, len(kept))):
            x = points(rng, cut.tau, alpha, (*lead, n))
            check_rows_against_scalars(cut, [scalars[b] for b in kept], x, alpha)


def test_a_nan_step_is_rejected_on_every_block_call():
    g = FirmPenalty(COLUMN, RHO)
    rng = np.random.default_rng(8)
    for shape in ((3, 40), (5, 3, 40), (3, 40)):
        x = rng.normal(size=shape)
        g.prox(x, 0.3)
        for _ in range(2):
            with pytest.raises(StepSizeError):
                g.prox(x, math.nan)
        assert g._step[0] == 0.3
