import numpy as np
import pytest

from drsplit import (
    InvalidFilterError,
    LinearMap,
    RankDeficiencyError,
    convolution_matrix,
    linalg,
)
from oracles import eig_extremes_via_charpoly


class TestConvolutionMatrix:
    def test_identity_filter(self):
        np.testing.assert_array_equal(convolution_matrix([1.0], 3), np.eye(3))

    def test_two_tap_filter(self):
        expected = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(convolution_matrix([1.0, 1.0], 2), expected)

    def test_benchmark_shape(self):
        m = convolution_matrix(0.5 ** np.arange(31), 90)
        assert m.shape == (120, 90)

    def test_matches_full_convolution(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=7)
        x = rng.normal(size=20)
        np.testing.assert_allclose(convolution_matrix(h, 20) @ x, np.convolve(h, x), atol=1e-14)

    def test_shift_structure(self):
        m = convolution_matrix([1.0, -2.0, 3.0], 6)
        for j in range(1, 6):
            np.testing.assert_array_equal(m[:, j], np.roll(m[:, 0], j))

    @pytest.mark.parametrize("taps", [[], [0.0, 0.0], [np.nan]])
    def test_invalid_filter(self, taps):
        with pytest.raises(InvalidFilterError):
            convolution_matrix(taps, 4)

    def test_invalid_signal_len(self):
        with pytest.raises(ValueError):
            convolution_matrix([1.0], 0)

    def test_rejects_a_filter_that_is_not_a_vector(self):
        with pytest.raises(ValueError, match=r"expected a 1-d vector, got shape \(1, 1\)"):
            convolution_matrix([[1.0]], 4)


class TestLinearMap:
    def test_identity_apply(self):
        m = LinearMap(np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(m.apply(x), x)

    def test_apply_by_hand(self):
        m = LinearMap([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(m.apply([1.0, 2.0]), [3.0, 3.0, 2.0])

    def test_adjoint_by_hand(self):
        m = LinearMap([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(m.adjoint_apply([1.0, 0.0, 0.0]), [1.0, 1.0])

    def test_stack_apply_matches_single_rows(self):
        # A (k, B, n) stack, as run() audits k iterates of a block at once.
        rng = np.random.default_rng(3)
        m = LinearMap(rng.normal(size=(7, 5)))
        x = rng.normal(size=(4, 3, 5))
        out = m.apply(x)
        assert out.shape == (4, 3, 7)
        for i in np.ndindex(4, 3):
            assert out[i].tobytes() == m.apply(x[i]).tobytes()

    def test_rejects_a_scalar(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., n\) stack"):
            LinearMap(np.eye(2)).apply(1.0)

    def test_dimension_mismatch(self):
        m = LinearMap(np.ones((3, 2)))
        with pytest.raises(ValueError):
            m.apply(np.ones(3))
        with pytest.raises(ValueError):
            m.adjoint_apply(np.ones(2))

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(1)
        m = LinearMap(rng.normal(size=(8, 5)))
        for _ in range(50):
            x, v = rng.normal(size=5), rng.normal(size=8)
            lhs, rhs = m.apply(x) @ v, x @ m.adjoint_apply(v)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_matrix_is_immutable(self):
        m = LinearMap(np.eye(2))
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            LinearMap([[1.0, np.inf]])

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ValueError, match=r"expected a 2-d matrix, got shape \(3,\)"):
            LinearMap(np.ones(3))


class TestGramExtremes:
    def test_identity(self):
        assert LinearMap(np.eye(3)).gram_extremes() == (1.0, 1.0)

    def test_diagonal(self):
        s, sigma = LinearMap(np.diag([1.0, 2.0])).gram_extremes()
        assert s == pytest.approx(1.0, rel=1e-12)
        assert sigma == pytest.approx(4.0, rel=1e-12)

    def test_against_charpoly_roots(self):
        rng = np.random.default_rng(2)
        m = LinearMap(rng.normal(size=(6, 4)))
        s, sigma = m.gram_extremes()
        lo, hi = eig_extremes_via_charpoly(m.gram())
        assert s == pytest.approx(lo, rel=1e-10)
        assert sigma == pytest.approx(hi, rel=1e-10)

    def test_cache_matches_fresh(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(10, 6))
        m = LinearMap(mat)
        cached = m.gram_extremes()
        fresh = LinearMap(mat).gram_extremes()
        assert cached[0] == pytest.approx(fresh[0], rel=1e-8)
        assert cached[1] == pytest.approx(fresh[1], rel=1e-8)
        assert 0 < cached[0] <= cached[1]

    def test_rank_deficient(self):
        col = np.arange(1.0, 4.0)
        with pytest.raises(RankDeficiencyError):
            LinearMap(np.column_stack([col, col])).gram_extremes()

    def test_eigen_sandwich(self):
        rng = np.random.default_rng(4)
        m = LinearMap(rng.normal(size=(9, 5)))
        s, sigma = m.gram_extremes()
        g = m.gram()
        for _ in range(200):
            w = rng.normal(size=5)
            w /= np.linalg.norm(w)
            quad = w @ g @ w
            assert s - 1e-8 <= quad <= sigma + 1e-8



@pytest.mark.parametrize(
    "points_per_row, rows",
    [(1, 96), (2, 48), (3, 32), (6, 16), (10, 9), (96, 1), (97, 1), (500, 1)],
)
def test_rows_per_call_keeps_within_the_point_budget(points_per_row, rows):
    # The budget counts numbers: 8640, 96 points of 90 numbers.  A single
    # 90-number problem audits 96 iterates per call, a certify vector block
    # holds 48 pairs, 6- and 10-seed blocks audit 16 and 9 iterates; a row
    # is never split.
    assert linalg.STACK_NUMBERS == 8640 == 96 * 90
    assert linalg.rows_per_call(90 * points_per_row) == rows


@pytest.mark.parametrize(
    "numbers_per_row, rows",
    [(1, 8640), (2, 4320), (16, 540), (8640, 1), (8641, 1), (10**6, 1)],
)
def test_rows_per_call_counts_numbers(numbers_per_row, rows):
    # 1-number scalar points go 8640 to a call: certify's scalar check
    # takes 4320 pairs per block.
    assert linalg.rows_per_call(numbers_per_row) == rows


def test_audit_flushes_of_90_number_blocks_stay_at_96_points():
    # A B-row block of 90-number iterates takes as many iterates per audit
    # call as the 96-point budget gave it, so no flush moves.
    for b in range(1, 101):
        assert linalg.rows_per_call(90 * b) == max(1, 96 // b)
