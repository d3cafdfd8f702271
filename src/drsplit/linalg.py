"""Dense linear algebra substrate: convolution operators and Gram spectra.

Vectors and matrices are plain float64 ``numpy`` arrays; ``LinearMap`` wraps a
dense matrix together with lazily cached extreme eigenvalues of its Gram matrix.
Operators also act on a block of B row vectors, shape (B, n), and on any
stack of them, shape (..., n), such as k iterates of a block.  Block results
are built from calls that give, per row, the same bits as the call on that
row alone: ``matvec`` and ``row_norm`` below.  ``X @ M.T``,
``np.linalg.norm(X, axis=1)`` and ``einsum`` round differently per row and
are not used.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidFilterError, RankDeficiencyError, StepSizeError

# Relative floor under which the least Gram eigenvalue counts as zero.
RANK_TOL = 1e-12


def as_rows(x) -> np.ndarray:
    """Coerce to a float64 vector (n,) or a stack of row vectors (..., n)."""
    v = np.asarray(x, dtype=float)
    if v.ndim < 1:
        raise ValueError(f"expected a vector or a (..., n) stack of vectors, got shape {v.shape}")
    return v


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a vector x, or for each row of a (..., n) stack.

    The stacked matmul runs one matrix-vector product per row, so each row
    equals ``m @ row`` bit for bit.
    """
    return np.matmul(m, x[..., None])[..., 0]


def row_norm(v: np.ndarray):
    """Euclidean norm over the last axis; per row bit-equal to np.linalg.norm."""
    return np.sqrt(np.vecdot(v, v))


# Most numbers per stacked call, where a loop stacks rows into one numpy
# call: run()'s audit (a row per pending iterate, of every running block
# row's numbers) and the sampled pairs of analysis (two points each).  It
# counts numbers, not points, so a call of 1-number points takes as many
# numbers as one of 90-number points.  Row-wise calls make any chunking
# bit-safe, so this sets only time and memory.  Python overhead, not flops,
# is the cost: 16 audit rows of 90 numbers took a 58-iteration EXP2 solve
# from 5.8 to 3.4 ms (96 rows: no slower), and certify(1000, seed) took
# 0.52-0.91 s at one pair per call and 0.08-0.19 s at 16 to 256.
# Temporaries grow with the numbers and the allocator keeps memory after
# them: a fresh process running run_experiment(EXP1) at 20 seeds (one block)
# into an out_dir peaked at 44.1-44.2 MB at 160 points of 90 numbers per call
# and 43.9-44.2 MB at 96 (8640 numbers); EXP2 at 43.6-43.7 and 43.4-43.5 MB.
# (2-core x86-64 host, OPENBLAS_NUM_THREADS=1.)
STACK_NUMBERS = 8640


def rows_per_call(numbers_per_row: int) -> int:
    """Rows per stacked call when each row holds numbers_per_row numbers;
    at least one, as a row is never split."""
    return max(1, STACK_NUMBERS // numbers_per_row)


def prox_matrix(gram: np.ndarray, alpha: float) -> np.ndarray:
    """M = (I + alpha gram)^-1, symmetric and read-only, for a positive
    semidefinite gram.  StepSizeError when alpha overflows I + alpha gram,
    ``np.linalg.LinAlgError`` when it is not positive definite.  For gram =
    HᵀH, cond(I + alpha gram) = (1 + alpha sigma)/(1 + alpha s) < sigma/s
    bounds what the explicit inverse loses to rounding."""
    with np.errstate(over="ignore"):
        a = np.eye(gram.shape[0]) + alpha * gram
    if not np.isfinite(a).all():
        raise StepSizeError(f"alpha = {alpha:.6g} overflows I + alpha HᵀH")
    np.linalg.cholesky(a)  # LinAlgError unless positive definite
    m = np.linalg.inv(a)
    m = 0.5 * (m + m.T)
    m.setflags(write=False)
    return m


# Steps whose prox matrix a LinearMap keeps.  Each run iterates at one step,
# and the quadratic prox is called at two: a run's step and, for the shifted
# variants, its shifted step alpha / (1 - alpha rho).  So two cover every run
# of a solve, an experiment or certify; 40 solves of one filter, over the
# five variants, build two matrices.  One matrix of a 90-column operator is
# 65 KB.
PROX_STEPS = 2


def convolution_matrix(filter_taps, signal_len: int) -> np.ndarray:
    """Build the full (zero-padded) linear convolution matrix.

    The result M has shape ``(signal_len + len(filter_taps) - 1, signal_len)``
    with ``M[i, j] = filter_taps[i - j]`` where defined, so ``M @ x`` equals
    ``np.convolve(filter_taps, x)``.  For any nonzero filter the matrix is tall
    with full column rank.
    """
    h = np.asarray(filter_taps, dtype=float)
    if h.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {h.shape}")
    if h.size == 0 or not np.any(h != 0.0):
        raise InvalidFilterError("filter must contain at least one nonzero tap")
    if not np.all(np.isfinite(h)):
        raise InvalidFilterError("filter taps must be finite")
    if signal_len < 1:
        raise ValueError(f"signal_len must be >= 1, got {signal_len}")
    out = np.zeros((signal_len + h.size - 1, signal_len))
    for j in range(signal_len):
        out[j : j + h.size, j] = h
    return out


class LinearMap:
    """Immutable dense operator with cached Gram matrix, extreme Gram
    eigenvalues and the prox matrices of its last PROX_STEPS steps."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float).copy()
        if m.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        self.matrix = m
        self._gram: np.ndarray | None = None
        self._extremes: tuple[float, float] | None = None
        # ((step, prox_matrix), ...), newest first, read and replaced as a
        # whole: concurrent callers may build a matrix twice or drop one
        # another's, but never get another step's.
        self._prox_matrices: tuple = ()

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x) -> np.ndarray:
        """H x for a vector or for each row of a (B, cols) block."""
        x = as_rows(x)
        if x.shape[-1] != self.cols:
            raise ValueError(
                f"dimension mismatch: operator has {self.cols} columns, vector has {x.shape[-1]}"
            )
        return matvec(self.matrix, x)

    def adjoint_apply(self, v) -> np.ndarray:
        """Hᵀ v for a vector or for each row of a (B, rows) block."""
        v = as_rows(v)
        if v.shape[-1] != self.rows:
            raise ValueError(f"dimension mismatch: operator has {self.rows} rows, vector has {v.shape[-1]}")
        return matvec(self.matrix.T, v)

    def gram(self) -> np.ndarray:
        """The (cached) Gram matrix HᵀH."""
        if self._gram is None:
            g = self.matrix.T @ self.matrix
            g = 0.5 * (g + g.T)
            g.setflags(write=False)
            self._gram = g
        return self._gram

    def gram_extremes(self) -> tuple[float, float]:
        """Least and greatest eigenvalue (s, sigma) of HᵀH.

        Raises RankDeficiencyError when the least eigenvalue is numerically
        zero relative to the greatest, i.e. the induced quadratic is not
        strongly convex.
        """
        if self._extremes is None:
            w = np.linalg.eigvalsh(self.gram())
            s, sigma = float(w[0]), float(w[-1])
            if s <= RANK_TOL * sigma:
                raise RankDeficiencyError(
                    f"Gram matrix is rank deficient (lambda_min={s:.3e}, lambda_max={sigma:.3e})"
                )
            self._extremes = (s, sigma)
        return self._extremes

    def prox_matrix(self, alpha: float) -> np.ndarray:
        """The (cached) ``prox_matrix(HᵀH, alpha)`` of step alpha: built on
        the first call at a step, then kept among the last PROX_STEPS steps
        built, which every term on this operator shares."""
        kept = self._prox_matrices
        for step, m in kept:
            if step == alpha:
                return m
        m = prox_matrix(self.gram(), alpha)
        self._prox_matrices = ((alpha, m), *kept[: PROX_STEPS - 1])
        return m
