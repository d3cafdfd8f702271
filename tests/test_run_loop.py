"""run()'s per-iterate bookkeeping: divergence found through the step norm and
confirmed on the iterate, on single problems and blocks alike, and a block's
stopped rows never stepped again."""

import math

import numpy as np
import pytest

from drsplit import DivergenceError, LinearMap, Problem, QuadraticTerm, SolverConfig, VARIANTS, ZeroPenalty, run

N = 6
ALPHA = 0.3  # far from one, at which ista solves the identity quadratic in one step

# The (side, method) each variant's step calls exactly once on the iterate:
# the second prox of a DR variant, the penalty's prox for ista.  The
# extraction and the audit call the others (the audit on a stack of iterates).
STEP_CALL = {
    "dr-main-fg": ("smooth", "prox"),
    "dr-shift-fg": ("smooth", "shifted_prox"),
    "dr-main-gf": ("penalty", "prox"),
    "dr-shift-gf": ("penalty", "shifted_prox"),
    "ista": ("penalty", "prox"),
}


class Poisoned:
    """``term`` itself, except that the k-th call of ``method`` on an
    iterate (an array of ``ndim`` axes; audit stacks have one more) writes
    ``poison`` at index ``at`` of its result.

    In a block (ndim 2) ``at`` names a row of the block as built.  The
    poisoned term is then a block term whose ``take`` keeps the poison and
    the call count, so the poison follows its row when run drops stopped
    rows, and it never fires once that row has left."""

    def __init__(self, term, method, k, poison, ndim, at, rows=None):
        self.term, self.method, self.k, self.poison, self.ndim, self.at = term, method, k, poison, ndim, at
        self.rows = rows  # the rows as built, in the order of the iterate's rows
        self.calls = 0

    @property
    def block_shape(self):
        return () if self.rows is None else self.rows.shape

    def take(self, rows):
        term = self.term.take(rows) if getattr(self.term, "block_shape", ()) else self.term
        cut = Poisoned(term, self.method, self.k, self.poison, self.ndim, self.at, self.rows[rows])
        cut.calls = self.calls
        return cut

    def __getattr__(self, name):
        found = getattr(self.term, name)
        if name != self.method:
            return found

        def call(x, *args):
            out = found(x, *args)
            if np.ndim(x) == self.ndim:
                self.calls += 1
                if self.calls == self.k:
                    out = np.array(out, dtype=float)
                    if self.rows is None:
                        out[self.at] = self.poison
                    elif self.at[0] in self.rows:
                        out[(self.rows.tolist().index(self.at[0]), *self.at[1:])] = self.poison
            return out

        return call


def data(rows):
    """Observations for an identity operator: (N,), or (rows, N) whose first
    row is zero, so that row's z stays 0 and it stops at iteration 1 on tol 0."""
    y = np.random.default_rng(7).normal(size=(rows, N) if rows else N)
    if rows:
        y[0] = 0.0
    return y


def problem(variant, rows=0, k=None, value=None, at=None):
    """Identity quadratic plus zero penalty; with k, the variant's step call
    turns ``value`` at iteration k (at index ``at``)."""
    y = data(rows)
    terms = {"smooth": QuadraticTerm(LinearMap(np.eye(N)), y), "penalty": ZeroPenalty()}
    if k is not None:
        side, method = STEP_CALL[variant]
        terms[side] = Poisoned(terms[side], method, k, value, y.ndim, at, np.arange(rows) if rows else None)
    return Problem(terms["smooth"], terms["penalty"])


BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", BAD, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("k", [1, 5])
def test_single_problem_names_the_iteration(variant, value, k):
    with pytest.raises(DivergenceError, match=rf"^non-finite iterate at iteration {k} of {variant}$"):
        run(problem(variant, k=k, value=value, at=(2,)), SolverConfig(variant, alpha=ALPHA, max_iters=20))


@pytest.mark.parametrize("value", BAD, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("audit", [True, False])
def test_one_row_of_a_block_names_the_iteration(variant, value, audit):
    # Row 0 stops at iteration 1; the poisoned row 2 is still running at 4.
    config = SolverConfig(variant, alpha=ALPHA, max_iters=20, audit=audit)
    with pytest.raises(DivergenceError, match=rf"^non-finite iterate at iteration 4 of {variant}$"):
        run(problem(variant, rows=3, k=4, value=value, at=(2, 3)), config)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_stopped_row_is_never_stepped_again(variant):
    # Row 0 stops at iteration 1, so a poison on it at iteration 6 never
    # fires and each row runs as it runs alone; on running row 1 it fires.
    config = SolverConfig(variant, alpha=ALPHA, max_iters=20)
    trace = run(problem(variant, rows=3, k=6, value=math.nan, at=(0, 1)), config)
    assert trace.row_iters.tolist() == [1, 20, 20] and trace.stop_reason[0] == "tol"
    for row, y in zip(trace.split(), data(3)):
        single = run(Problem(QuadraticTerm(LinearMap(np.eye(N)), y), ZeroPenalty()), config)
        for name in ("iterations", "cost", "step_norm", "fp_residual", "dist_to_ref", "final_x", "final_z"):
            a, b = getattr(row, name), getattr(single, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (row.converged, row.stop_reason) == (single.converged, single.stop_reason)
    with pytest.raises(DivergenceError, match=rf"^non-finite iterate at iteration 6 of {variant}$"):
        run(problem(variant, rows=3, k=6, value=math.nan, at=(1, 1)), config)


class Huge:
    """A penalty whose prox is 1e200 everywhere: finite iterates whose step
    norm overflows."""

    modulus = 0.0

    def value(self, x):
        return np.zeros(np.shape(x)[:-1])

    def prox(self, x, alpha):
        return np.full(np.shape(x), 1e200)

    def shifted_prox(self, x, alpha):
        return self.prox(x, alpha)


@pytest.mark.parametrize("rows", [0, 3])
def test_finite_iterates_whose_step_norm_overflows_do_not_raise(rows):
    huge = Problem(QuadraticTerm(LinearMap(np.eye(N)), data(rows)), Huge())
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(huge, SolverConfig("dr-main-fg", alpha=0.5, max_iters=5))
    assert np.isfinite(trace.final_z).all() and np.abs(trace.final_z).max() > 1e199
    assert np.isposinf(trace.step_norm[1:]).all()
    assert trace.n_iters == 5

