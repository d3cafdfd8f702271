"""The block engine behind ``empirical_lipschitz`` and the draws ``certify`` makes.

``analysis._sampled_lipschitz`` takes a list of operators, a generator and
the numbers in one point, and calls ``draw(rng, 2k)`` once per block of
k <= ``rows_per_call(2 * numbers)`` pairs: 48 pairs of 90-number points,
4320 of 1-number points.  The draw returns one block per operator, the same
array for operators that share their points.  ``certify`` draws its scalar
points with one ``uniform`` call of ``size=(2k, 1)`` per block, which
consumes the stream of 2k calls of ``size=1``: 3 calls for 10000 pairs, and
a constant equal to that of 48-pair blocks.  It draws its four vector checks' points once
per block: each point's normal row with ``standard_normal(out=row)`` and
then its factor with ``random()``, scaled by the radius of each
experiment, which must give the bits of the per-point sampler
``standard_normal(n) * (r * random())`` and so of ``normal(size=n) *
uniform(0.0, r)``, which numpy computes as 0.0 + 1.0 * z and 0.0 + r * u
from the same stream.  With either draw the engine must equal (``==``) the
public function with the matching per-point sampler, each of certify's
four vector constants must equal that check run alone, and an operator
sharing a block with another must get the constant it gets alone.  A draw
of the wrong shape must be named, the engine must ask for exactly two
points per pair, a non-finite ratio must name the operator's own count,
and certify must draw each point once: one ``uniform`` call per scalar
block and one ``standard_normal`` and ``random`` call per vector point,
counted on its generators.
"""
import collections
import math
import re

import numpy as np
import pytest

from drsplit import analysis, experiment, linalg, solver
from drsplit.analysis import _sampled_lipschitz, empirical_lipschitz
from drsplit.linalg import rows_per_call

DIM = experiment.EXP2.signal_len
K = rows_per_call(2 * DIM)  # pairs per block of certify's vector points
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
    block = lambda rng, count: (rng.uniform(-radius, radius, size=(count, 1)),)
    point = lambda rng: rng.uniform(-radius, radius, size=1)
    for seed in (0, 7):
        got = _sampled_lipschitz([weak], block, n_pairs, np.random.default_rng(seed), 1)
        assert got == [empirical_lipschitz(weak, point, n_pairs, seed)]


@pytest.mark.parametrize("n_pairs", N_PAIRS)
def test_vector_block_draw_matches_per_point_sampler(exp2_setup, exp2_problem, n_pairs):
    _, radius, alpha = exp2_setup
    dim = exp2_problem.dim
    op = solver.double_reflection(exp2_problem, alpha, "dr-main-fg")

    def block(rng, count):
        points = np.empty((count, dim))
        for row in points:
            row[:] = rng.normal(size=dim) * rng.uniform(0.0, radius)
        return (points,)

    point = lambda rng: rng.normal(size=dim) * rng.uniform(0.0, radius)
    for seed in (0, 7):
        got = _sampled_lipschitz([op], block, n_pairs, np.random.default_rng(seed), dim)
        assert got == [empirical_lipschitz(op, point, n_pairs, seed)]


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_plain_vector_draw_has_the_bits_of_normal_times_uniform(seed):
    plain, broadcast = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 2, 90, 120):
        for r in (1e-3, 0.5, 1.0, 3.0, 37.25):
            for _ in range(20):
                got = plain.standard_normal(n) * (r * plain.random())
                want = broadcast.normal(size=n) * broadcast.uniform(0.0, r)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_block_vector_draw_has_the_bits_of_the_per_point_sampler(seed):
    radii = (1e-3, 0.5, 1.0, 3.0, 37.25)
    for n in (1, 2, 90, 120):
        block = np.random.default_rng(seed)
        normals, factors = np.empty((20, n)), np.empty((20, 1))
        for i in range(20):
            block.standard_normal(out=normals[i])
            factors[i] = block.random()
        for r in radii:
            point = np.random.default_rng(seed)
            got = normals * (r * factors)
            for row in got:
                assert row.tobytes() == (point.standard_normal(n) * (r * point.random())).tobytes()


@pytest.mark.parametrize("shape", [(19, 3), (21, 3), (20,), ()])
def test_draw_of_the_wrong_shape_is_named(shape):
    # Ten pairs are one block of 20 points.
    with pytest.raises(ValueError, match=re.escape(f"draw returned shape {shape} for 20 points")):
        _sampled_lipschitz([lambda x: x], lambda rng, count: [np.zeros(shape)], 10, np.random.default_rng(0), 3)


@pytest.mark.parametrize("n_pairs", N_PAIRS)
def test_engine_asks_for_two_points_per_pair(n_pairs):
    for numbers in (DIM, 2, 1):
        asked = []

        def draw(rng, count):
            asked.append(count)
            return [rng.normal(size=(count, numbers))]

        _sampled_lipschitz([lambda x: x], draw, n_pairs, np.random.default_rng(0), numbers)
        per_call = rows_per_call(2 * numbers)  # K for DIM, then 2160 and 4320
        assert sum(asked) == 2 * n_pairs
        assert len(asked) == math.ceil(n_pairs / per_call)
        assert max(asked) <= 2 * per_call


@pytest.mark.parametrize("n_pairs", [1, K, 3 * K + 5])
def test_operators_sharing_a_block_get_their_constants_alone(exp2_setup, exp2_problem, n_pairs):
    _, radius, alpha = exp2_setup
    dim = exp2_problem.dim
    ops = [solver.double_reflection(exp2_problem, alpha, "dr-main-fg"), lambda x: 2 * x, lambda x: x]
    draw = lambda rng, count: [rng.normal(size=(count, dim)) * radius] * len(ops)
    engine = lambda ops, draw: _sampled_lipschitz(ops, draw, n_pairs, np.random.default_rng(3), dim)
    alone = [engine([op], lambda rng, count: draw(rng, count)[:1])[0] for op in ops]
    assert engine(ops, draw) == alone
    assert alone[1:] == [pytest.approx(2.0), pytest.approx(1.0)]


def test_non_finite_ratio_names_the_second_operators_count():
    # Two blocks of DIM-number points; in each the second operator's NaN
    # rows 0, 3 and 7 fall on pairs 0, 1 and 3, and every pair is usable.
    def nan_rows(x):
        out = x.copy()
        out[[0, 3, 7]] = np.nan
        return out

    draw = lambda rng, count: [rng.normal(size=(count, DIM))] * 2
    with pytest.raises(ValueError, match=re.escape(f"non-finite ratio on 6 of {K + 5} usable pairs")):
        _sampled_lipschitz([lambda x: x, nan_rows], draw, K + 5, np.random.default_rng(0), DIM)


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
    assert weak.calls == {"uniform": math.ceil(max(pairs, 10000) / rows_per_call(2))}
    assert weak.calls == {"uniform": 3}  # 4320 pairs of 1-number points per block; 209 at 48


@pytest.fixture(scope="module")
def certify_setups():
    """Per certify seed, the four vector checks' (operator, radius) in
    certify's order, built here from the instances as certify builds them."""
    setups = {}
    for seed in (0, 7):
        checks = []
        instance_seed = experiment.derive_seeds(seed, 1)[0]
        for spec, variants in ((experiment.EXP1, None), (experiment.EXP2, ("dr-main-fg", "dr-shift-fg"))):
            inst = experiment.build_instance(spec, seed=instance_seed)
            prob, (s, sigma) = inst.problem(), inst.operator.gram_extremes()
            radius = 3.0 * inst.penalty.tau / inst.penalty.rho
            if variants is None:
                steps = {v: solver.step_bound(v, sigma, prob.rho) for v in ("dr-main-fg", "dr-main-gf")}
            else:
                steps = {"dr-main-fg": 1.0 / math.sqrt(sigma * s), "dr-shift-fg": 1.0 / s}
            checks += [(solver.double_reflection(prob, alpha, v), radius, prob.dim) for v, alpha in steps.items()]
        setups[seed] = checks
    return setups


@pytest.mark.parametrize("pairs", [1, K - 1, K, K + 1, 3 * K + 5, 1000])
@pytest.mark.parametrize("seed", [0, 7])
def test_certify_vector_constants_equal_each_check_alone(certify_setups, pairs, seed, monkeypatch):
    results = []
    engine = analysis._sampled_lipschitz

    def recording(operators, draw, n_pairs, rng, numbers):
        results.append(engine(operators, draw, n_pairs, rng, numbers))
        return results[-1]

    monkeypatch.setattr(analysis, "_sampled_lipschitz", recording)
    assert [ok for _, ok, _ in analysis.certify(pairs, seed)] == [True] * 5
    # One engine call for the four vector checks, one for the scalar check.
    vector, _ = results
    alone = []
    for op, radius, dim in certify_setups[seed]:
        sampler = lambda rng: rng.standard_normal(dim) * (radius * rng.random())
        alone.append(empirical_lipschitz(op, sampler, pairs, seed))
    assert vector == alone


@pytest.mark.parametrize("pairs", [1, K + 1, 1000])
def test_certify_draws_each_vector_point_once(pairs, monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        made.append(CountingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    assert [ok for _, ok, _ in analysis.certify(pairs, seed=0)] == [True] * 5
    # Only the vector checks' generator calls standard_normal; at 8 * pairs
    # calls of each, four generators drew the same points.
    (vector,) = [g for g in made if g.calls["standard_normal"]]
    assert vector.calls == {"standard_normal": 2 * pairs, "random": 2 * pairs}


@pytest.mark.parametrize("pairs", [10, K + 1, 10241])
@pytest.mark.parametrize("seed", [0, 7])
def test_certify_scalar_constant_equals_that_of_48_pair_blocks(pairs, seed, monkeypatch):
    calls = []
    engine = analysis._sampled_lipschitz

    def recording(operators, draw, n_pairs, rng, numbers):
        asked = []
        counted = lambda rng, count: asked.append(count) or draw(rng, count)
        calls.append((operators, draw, n_pairs, numbers, asked, engine(operators, counted, n_pairs, rng, numbers)))
        return calls[-1][-1]

    monkeypatch.setattr(analysis, "_sampled_lipschitz", recording)
    assert [ok for _, ok, _ in analysis.certify(pairs, seed)] == [True] * 5
    (_, _, _, dim, vector_asked, _), (weak, draw, n_pairs, numbers, scalar_asked, got) = calls
    # The vector checks keep blocks of K pairs of DIM-number points; the
    # scalar check takes 4320 pairs of 1-number points per block.
    full, rest = divmod(pairs, K)
    assert (dim, K) == (DIM, 48)
    assert vector_asked == [2 * K] * full + ([2 * rest] if rest else [])
    assert numbers == 1 and scalar_asked == [8640, 8640, 2 * n_pairs - 17280]
    # The same draws in 48-pair blocks, as 96 numbers per call give them.
    monkeypatch.setattr(linalg, "STACK_NUMBERS", 96)
    asked = []
    counted = lambda rng, count: asked.append(count) or draw(rng, count)
    assert engine(weak, counted, n_pairs, np.random.default_rng(seed), 1) == got
    assert len(asked) == math.ceil(n_pairs / 48) == (214 if pairs > 10000 else 209)
