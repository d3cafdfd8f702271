"""The block engine behind ``empirical_lipschitz`` and the draws ``certify`` makes.

``analysis._sampled_lipschitz`` calls ``draw(rng, 2k)`` once per block of
k <= ``rows_per_call(2)`` pairs (48).  ``certify`` draws its scalar points
with one ``uniform`` call of ``size=(2k, 1)`` per block, which consumes the
stream of 2k calls of ``size=1``, and passes ``empirical_lipschitz`` a
sampler of one vector point at a time, ``standard_normal(n) * (r *
random())``: its normal and uniform draws interleave in the stream.
With either draw the engine must equal (``==``) the public function with the
matching per-point sampler.  The vector draw must give the bits of
``normal(size=n) * uniform(0.0, r)``, which numpy computes as 0.0 + 1.0 * z
and 0.0 + r * u from the same stream.  A draw of the wrong shape must be
named, the engine must ask for exactly two points per pair, and certify's
weak-reflection check must make one draw per block, counted on its
generator.
"""

import collections
import math
import re

import numpy as np
import pytest

from drsplit import analysis, solver
from drsplit.analysis import _sampled_lipschitz, empirical_lipschitz
from drsplit.linalg import rows_per_call

K = rows_per_call(2)
# Around one block and past three, counts that end partway through a
# block, and certify's 10000 scalar pairs.
N_PAIRS = [1, K - 1, K, K + 1, 3 * K + 5, 63, 64, 65, 197, 10000]


@pytest.fixture(scope="module")
def exp2_setup(exp2_instance, exp2_problem):
    """(penalty, radius, step) of certify's EXP2 checks."""
    s, sigma = exp2_instance.operator.gram_extremes()
    penalty = exp2_instance.penalty
    return penalty, 3.0 * penalty.tau / penalty.rho, 1.0 / math.sqrt(sigma * s)


@pytest.mark.parametrize("n_pairs", N_PAIRS)
def test_scalar_block_draw_matches_per_point_sampler(exp2_setup, n_pairs):
    penalty, radius, alpha = exp2_setup
    weak = lambda t: solver.reflect(penalty.prox, t, alpha)
    block = lambda rng, count: rng.uniform(-radius, radius, size=(count, 1))
    point = lambda rng: rng.uniform(-radius, radius, size=1)
    for seed in (0, 7):
        assert _sampled_lipschitz(weak, block, n_pairs, seed) == empirical_lipschitz(weak, point, n_pairs, seed)


@pytest.mark.parametrize("n_pairs", N_PAIRS)
def test_vector_block_draw_matches_per_point_sampler(exp2_setup, exp2_problem, n_pairs):
    _, radius, alpha = exp2_setup
    dim = exp2_problem.dim
    op = solver.double_reflection(exp2_problem, alpha, "dr-main-fg")

    def block(rng, count):
        points = np.empty((count, dim))
        for row in points:
            row[:] = rng.normal(size=dim) * rng.uniform(0.0, radius)
        return points

    point = lambda rng: rng.normal(size=dim) * rng.uniform(0.0, radius)
    for seed in (0, 7):
        assert _sampled_lipschitz(op, block, n_pairs, seed) == empirical_lipschitz(op, point, n_pairs, seed)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_plain_vector_draw_has_the_bits_of_normal_times_uniform(seed):
    plain, broadcast = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 2, 90, 120):
        for r in (1e-3, 0.5, 1.0, 3.0, 37.25):
            for _ in range(20):
                got = plain.standard_normal(n) * (r * plain.random())
                want = broadcast.normal(size=n) * broadcast.uniform(0.0, r)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(19, 3), (21, 3), (20,), ()])
def test_draw_of_the_wrong_shape_is_named(shape):
    # Ten pairs are one block of 20 points.
    with pytest.raises(ValueError, match=re.escape(f"draw returned shape {shape} for 20 points")):
        _sampled_lipschitz(lambda x: x, lambda rng, count: np.zeros(shape), 10)


@pytest.mark.parametrize("n_pairs", N_PAIRS)
def test_engine_asks_for_two_points_per_pair(n_pairs):
    asked = []

    def draw(rng, count):
        asked.append(count)
        return rng.normal(size=(count, 2))

    _sampled_lipschitz(lambda x: x, draw, n_pairs)
    assert sum(asked) == 2 * n_pairs
    assert len(asked) == math.ceil(n_pairs / K)
    assert max(asked) <= 2 * K


class CountingGenerator:
    """A numpy Generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("pairs", [10, 10241])  # below and above certify's 10000 scalar pairs
def test_certify_draws_weak_reflection_points_once_per_block(pairs, monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        made.append(CountingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    checks = analysis.certify(pairs, seed=0)
    assert [ok for _, ok, _ in checks] == [True] * 5
    # The instances' generators draw the noise with normal, the vector checks'
    # with standard_normal: the weak reflection's is the only one with neither.
    (weak,) = [g for g in made if not g.calls["normal"] and not g.calls["standard_normal"]]
    assert weak.calls == {"uniform": math.ceil(max(pairs, 10000) / K)}


def test_certify_runs_its_vector_checks_through_the_public_function(monkeypatch):
    calls = []
    public = analysis.empirical_lipschitz
    monkeypatch.setattr(analysis, "empirical_lipschitz", lambda *args: calls.append(args[2:]) or public(*args))
    assert [ok for _, ok, _ in analysis.certify(10, seed=0)] == [True] * 5
    # The two nonexpansive checks and the two rate checks; the scalar one runs the engine.
    assert calls == [(10, 0)] * 4
