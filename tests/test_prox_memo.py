"""The proxes keep their step's constants without moving a bit.

``FirmPenalty.prox`` keeps (alpha, alpha tau, tau/rho, 1 - alpha rho) of its
last step, and ``QuadraticTerm.prox`` keeps (alpha, M, alpha Hᵀy) with M from
its operator's store.  Each must give the bits of the formula it replaced
(``oracles.firm_prox``; M applied to x + alpha Hᵀy), at steps that
alternate, on the band edges, at signed zeros, NaN and infinities, for
scalar and column weights, on stacks of blocks and after ``take``.  A step
that fails the step rule, NaN above all, must raise on every call.
"""

import math

import numpy as np
import pytest

from drsplit import EXP2, FirmPenalty, QuadraticTerm, StepSizeError, linalg
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
