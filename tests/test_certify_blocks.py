"""``empirical_lipschitz`` on blocks of pairs against one operator call per point.

``empirical_lipschitz`` draws its points one ``sampler`` call at a time and
applies the operator to up to ``rows_per_call(2 * size)`` pairs at once, size
the numbers in one point: 48 pairs of EXP2's 90-number points.  Here
every result must equal (``==``) that of ``oracles.pointwise_lipschitz``,
the loop with one operator call per point, for the identity, the scalar weak
reflection and the four double reflections on EXP2 (and on the
subspace-constrained demo), over pair counts around the block size and with
coinciding pairs inside a block.  The errors for a non-finite ratio, a 0-d
sample and an operator that changes the shape are checked, and ``drsplit
certify`` stdout is pinned by its sha256.

The hashes were taken with Python 3.11.7 and numpy 2.4.6 on OpenBLAS 0.3.31
(x86-64), identical at 1 and 2 BLAS threads.
"""

import hashlib
import math

import numpy as np
import pytest
from oracles import pointwise_lipschitz

from drsplit import EXP2, FirmPenalty, build_subspace_demo, solver
from drsplit.analysis import empirical_lipschitz
from drsplit.cli import main
from drsplit.linalg import rows_per_call

K = rows_per_call(2 * EXP2.signal_len)
# Around one block and past three, and counts that end partway through a block.
N_PAIRS = [1, K - 1, K, K + 1, 3 * K + 5, 63, 64, 65, 197]

CERTIFY_SHA256 = {
    0: "a751f18fa9a52e841f3b2b5781363b69d49cbc53fed7d3cd13d09295bb5b7295",
    1: "bd0c4da61e911fc8621240932544de698d5ce5fc0d54718ea8ccd579704a546a",
    2: "5e4295bd1d50a29bba34d2d46822265399e922e7d829c465e7ac8f7076ee3fbe",
    3: "9c99ea5f9c7a27e16fe7d8087877aa0dc3f331cc4aa875aef13e45a9a679125e",
}


def vector_sampler(dim, radius):
    return lambda rng: rng.normal(size=dim) * rng.uniform(0.0, radius)


@pytest.fixture(scope="module")
def exp2_ops(exp2_instance, exp2_problem):
    """(operator, sampler) by name: the identity, the scalar weak reflection
    and each DR variant at the step certify uses for its family."""
    s, sigma = exp2_instance.operator.gram_extremes()
    penalty, rho = exp2_instance.penalty, exp2_problem.rho
    radius = 3.0 * penalty.tau / penalty.rho
    alpha_t = 1.0 / math.sqrt(sigma * s)
    vectors = vector_sampler(exp2_problem.dim, radius)
    ops = {
        "identity": (lambda x: x, vectors),
        "weak-reflection": (
            lambda t: solver.reflect(penalty.prox, t, alpha_t),
            lambda rng: rng.uniform(-radius, radius, size=1),
        ),
    }
    for variant in solver.DR_VARIANTS:
        alpha = solver.step_bound(variant, sigma, rho) if variant.startswith("dr-main") else 1.0 / s
        ops[variant] = (solver.double_reflection(exp2_problem, alpha, variant), vectors)
    return ops


OPS = ["identity", "weak-reflection", *solver.DR_VARIANTS]


@pytest.mark.parametrize("n_pairs", N_PAIRS)
@pytest.mark.parametrize("name", OPS)
def test_blocks_match_pointwise_loop(exp2_ops, name, n_pairs):
    op, sampler = exp2_ops[name]
    for seed in (0, 7):
        assert empirical_lipschitz(op, sampler, n_pairs, seed) == pointwise_lipschitz(op, sampler, n_pairs, seed)


@pytest.mark.parametrize("variant", solver.DR_VARIANTS)
def test_subspace_demo_blocks_match_pointwise_loop(variant):
    y = np.random.default_rng(6).normal(0.0, 2.0, size=16)
    problem, _ = build_subspace_demo(y, range(8), FirmPenalty(1.0, 0.5))
    op, sampler = solver.double_reflection(problem, 1.0, variant), vector_sampler(16, 6.0)
    assert empirical_lipschitz(op, sampler, 2 * K + 1, 3) == pointwise_lipschitz(op, sampler, 2 * K + 1, 3)


def test_operator_sees_one_stack_per_block(exp2_ops, exp2_problem):
    op, sampler = exp2_ops["dr-main-fg"]
    shapes = []
    empirical_lipschitz(lambda z: shapes.append(z.shape) or op(z), sampler, 3 * K + 5)
    n = exp2_problem.dim
    assert shapes == [(2 * K, n)] * 3 + [(10, n)]


def coinciding_sampler(dim, coincide):
    """A fresh sampler whose y repeats its x on the pairs where
    ``coincide(pair_index)`` holds; the draws are otherwise normal."""
    count = [0]

    def sampler(rng):
        i = count[0]
        count[0] += 1
        if i % 2 and coincide(i // 2):
            return sampler.last.copy()
        sampler.last = rng.normal(size=dim)
        return sampler.last

    return sampler


@pytest.mark.parametrize("n_pairs", [K, 3 * K + 5, 64, 197])
@pytest.mark.parametrize("name", ["identity", "dr-shift-gf"])
def test_coinciding_pairs_inside_a_block_are_skipped(exp2_ops, exp2_problem, name, n_pairs):
    # Pairs 5-9 of each block coincide, and every third pair past the first block.
    coincide = lambda i: 5 <= i % K < 10 or (i >= K and i % 3 == 0)
    op = exp2_ops[name][0]
    got = empirical_lipschitz(op, coinciding_sampler(exp2_problem.dim, coincide), n_pairs, seed=4)
    want = pointwise_lipschitz(op, coinciding_sampler(exp2_problem.dim, coincide), n_pairs, seed=4)
    assert got == want


@pytest.mark.parametrize("n_pairs", [1, K + 1, 65])
def test_every_pair_coinciding_is_degenerate(n_pairs):
    sampler = coinciding_sampler(3, lambda i: True)
    with pytest.raises(ValueError, match="degenerate sampler"):
        empirical_lipschitz(lambda x: x, sampler, n_pairs)


def test_all_nan_operator_raises():
    sampler = vector_sampler(4, 1.0)
    with pytest.raises(ValueError, match=f"non-finite ratio on {K + 3} of {K + 3} usable pairs"):
        empirical_lipschitz(lambda x: np.full_like(x, np.nan), sampler, K + 3)


def test_nan_sample_is_not_skipped():
    # Its gap is NaN, which the 1e-12 skip must not take for a coinciding pair.
    draws = iter([np.array([np.nan, 0.0])] + [np.array([1.0, float(i)]) for i in range(9)])
    with pytest.raises(ValueError, match="non-finite ratio on 1 of 5 usable pairs"):
        empirical_lipschitz(lambda x: x, lambda rng: next(draws), 5)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_partly_infinite_operator_counts_its_pairs():
    # Points whose first coordinate passes 1 map to inf, so a pair with one
    # such point has an infinite ratio (and two give inf - inf = NaN).
    op = lambda x: np.where(x[..., :1] > 1.0, np.inf, x)
    rng = np.random.default_rng(2)
    firsts = np.array([rng.normal(size=3)[0] for _ in range(2 * 150)]).reshape(150, 2)
    bad = int(np.count_nonzero((firsts > 1.0).any(axis=1)))
    assert 0 < bad < 150
    with pytest.raises(ValueError, match=f"non-finite ratio on {bad} of 150 usable pairs"):
        empirical_lipschitz(op, lambda rng: rng.normal(size=3), 150, seed=2)


def test_scalar_sample_names_its_shape():
    with pytest.raises(ValueError, match=r"shape \(\)"):
        empirical_lipschitz(lambda x: x, lambda rng: rng.normal(), 10)


def test_operator_changing_the_shape_is_named():
    with pytest.raises(ValueError, match=r"stack of shape \(20, 3\) to shape \(20,\)"):
        empirical_lipschitz(lambda x: x.sum(axis=-1), lambda rng: rng.normal(size=3), 10)
    with pytest.raises(ValueError, match=r"to shape \(\)"):
        empirical_lipschitz(lambda x: np.linalg.norm(x), lambda rng: rng.normal(size=3), 10)


@pytest.mark.parametrize("seed", sorted(CERTIFY_SHA256))
def test_certify_stdout(seed, capsys):
    assert main(["certify", "--pairs", "1000", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_SHA256[seed]
