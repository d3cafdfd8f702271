"""Strongly convex data-fidelity terms, the f side of a splitting.

Smooth terms expose ``value``, ``prox``, ``shifted_prox`` and, when the term
is differentiable, ``grad`` plus the curvature constants ``strong_convexity``
(s) and ``grad_lipschitz`` (sigma).  ``shifted_prox(x, alpha, rho)``, written
once on the ``SmoothTerm`` base class, is the prox of f - (rho/2)|.|^2,
computed through the rescaling

    prox_{f - rho/2|.|^2}(x, a) = prox_f(x / (1 - a rho), a / (1 - a rho)),

valid when alpha, rho and s pass ``errors.check_prox_step``, the step rule
of every prox and bound: a*rho < 1 and rho <= s; a NaN fails it.

``QuadraticTerm`` reads s and sigma once, when it is built.  Its prox is the
map x -> M (x + alpha Hᵀy) with M = (I + alpha HᵀH)^-1, and its reflection
2M - I.  M comes from ``LinearMap.prox_matrix``, which keeps the matrices of
the operator's last two steps for every term built on it, and the term keeps
the constants of the last step its prox was called at, (alpha, M, alpha
Hᵀy), so a call at that step checks nothing again and costs one addition and
one matvec.  It also holds a block of B observations y, shape (B, m), that
share one operator H; its methods then act on (B, n) blocks of points row by
row, with the same bits per row as a term built on that row's observation,
and ``take(rows)`` is the term built on the same operator and the kept
rows of y, so it shares H and its matrices.  Its prox does not scan its
input for non-finite values: a NaN in comes back as a NaN out, and
``solver.run`` reports it as divergence.

``SubspaceConstraint(y, support)`` is f = 0.5||y - x||^2 + i_K for the
coordinate subspace K of ``support``: 1-strongly convex and nonsmooth, with
no ``grad`` and no sigma.  So the dr-main variants and ista, whose step
gates need sigma, refuse it, and the dr-shift variants run it with
``shifted_prox`` from the base class, for any shift rho <= s = 1.  This is
the paper's modified DR, which imposes no smoothness on the convex term.

``value`` and ``grad`` also take any (..., n) stack of points, such as the
iterates that ``solver.run`` audits in one call, and return one result per
row; so does ``SubspaceConstraint.value``.
"""

from __future__ import annotations

import numpy as np

from .errors import check_prox_step, is_integer
from .linalg import LinearMap, as_rows, matvec


class SmoothTerm:
    """Base class: ``shifted_prox`` from a subclass's ``prox(x, alpha)`` and
    ``strong_convexity`` (s, or None when unknown)."""

    def shifted_prox(self, x, alpha: float, rho: float) -> np.ndarray:
        """prox of f - (rho/2)|.|^2; alpha, rho and s must pass ``check_prox_step``."""
        check_prox_step(alpha, rho, self.strong_convexity)
        scale = 1.0 - alpha * rho
        return self.prox(np.asarray(x, dtype=float) / scale, alpha / scale)


class QuadraticTerm(SmoothTerm):
    """f(x) = 0.5 * ||y - H x||^2 for a full-column-rank operator H.

    Strongly convex with modulus s = lambda_min(HᵀH); the gradient is
    Lipschitz with constant sigma = lambda_max(HᵀH).  Both are computed at
    construction, which raises RankDeficiencyError when H lacks full column
    rank.  Prox evaluations apply M = ``prox_matrix(HᵀH, alpha)``, the
    operator's stored matrix of step alpha, to x + alpha Hᵀy.  The term keeps
    (alpha, M, alpha Hᵀy) of the last step used, so iterating at a fixed step
    checks the step and fetches M once; a call at another step checks it and
    replaces them.  y of shape (B, m) makes a block of B terms that share H.
    """

    def __init__(self, operator, y):
        if not isinstance(operator, LinearMap):
            operator = LinearMap(operator)
        self.operator = operator
        self.y = as_rows(y).copy()
        if self.y.ndim > 2:
            raise ValueError(f"expected an observation (m,) or a (B, m) block of them, got shape {self.y.shape}")
        if self.y.shape[-1] != operator.rows:
            raise ValueError(
                f"dimension mismatch: operator has {operator.rows} rows, y has {self.y.shape[-1]}"
            )
        self.y.setflags(write=False)
        self.strong_convexity, self.grad_lipschitz = operator.gram_extremes()
        self._gram = operator.gram()
        self._hty = operator.adjoint_apply(self.y)
        # (step, its prox matrix, step * Hᵀy), read and replaced as a whole,
        # so concurrent callers never mix two steps' constants.
        self._step: tuple | None = None

    @property
    def dim(self) -> int:
        return self.operator.cols

    @property
    def block_shape(self) -> tuple:
        """() for one observation, (B,) for a block of B observations."""
        return self.y.shape[:-1]

    def take(self, rows) -> "QuadraticTerm":
        """The block of the given rows (indices into the block axis): the
        term built on the same operator and those rows of y, so it shares H,
        HᵀH, (s, sigma) and the operator's stored matrices."""
        return QuadraticTerm(self.operator, self.y[rows])

    def value(self, x):
        """f(x), one value per row of a block."""
        r = self.y - self.operator.apply(x)
        return 0.5 * np.vecdot(r, r)

    def grad(self, x) -> np.ndarray:
        return matvec(self._gram, as_rows(x)) - self._hty

    def prox(self, x, alpha: float) -> np.ndarray:
        step = self._step
        if step is None or step[0] != alpha:  # a NaN never equals: checked, and rejected, every call
            check_prox_step(alpha)
            self._step = step = (alpha, self.operator.prox_matrix(alpha), alpha * self._hty)
        return matvec(step[1], as_rows(x) + step[2])


class SubspaceConstraint(SmoothTerm):
    """f(x) = 0.5 * ||y - x||^2 + i_K(x), K the coordinates of ``support``,
    an iterable of integer indices (a boolean mask is refused).

    1-strongly convex (s = 1) and nonsmooth: it has no ``grad`` and no
    sigma.  Its prox is the quadratic's prox (z + alpha y)/(1 + alpha) on K
    and 0 off it.
    """

    strong_convexity = 1.0
    grad_lipschitz = None

    def __init__(self, y, support):
        self.y = np.asarray(y, dtype=float).copy()
        if self.y.ndim != 1:
            raise ValueError(f"expected a 1-d observation, got shape {self.y.shape}")
        self.y.setflags(write=False)
        idx = list(support)
        for i in idx:  # a bool is a mask entry here, not an index
            if not is_integer(i):
                raise ValueError(f"support must hold integer indices, got {i!r}")
        idx = np.array(idx, dtype=int)
        if np.any((idx < 0) | (idx >= self.y.size)):
            raise ValueError(f"support indices must lie in [0, {self.y.size})")
        self.mask = np.zeros(self.y.size, dtype=bool)
        self.mask[idx] = True
        self.mask.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.y.size

    def value(self, x):
        """0.5 ||y - x||^2 on K and inf off it, one value per row of a (..., n) stack."""
        x = as_rows(x)
        r = self.y - x
        return np.where(np.any(x[..., ~self.mask] != 0.0, axis=-1), np.inf, 0.5 * np.vecdot(r, r))[()]

    def prox(self, z, alpha: float) -> np.ndarray:
        check_prox_step(alpha)
        return np.where(self.mask, (as_rows(z) + alpha * self.y) / (1.0 + alpha), 0.0)
