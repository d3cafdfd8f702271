"""Strongly convex data-fidelity terms and subspace-constrained variants.

Smooth terms expose ``value``, ``prox``, ``shifted_prox`` and, when the term
is differentiable, ``grad`` plus the curvature constants ``strong_convexity``
(s) and ``grad_lipschitz`` (sigma).  ``shifted_prox(x, alpha, rho)``, written
once on the ``SmoothTerm`` base class, is the prox of f - (rho/2)|.|^2,
computed through the rescaling

    prox_{f - rho/2|.|^2}(x, a) = prox_f(x / (1 - a rho), a / (1 - a rho)),

valid when alpha, rho and s pass ``errors.check_prox_step``, the step rule
of every prox and bound: a*rho < 1 and rho <= s; a NaN fails it.

``QuadraticTerm`` reads s and sigma once, when it is built, and keeps one
Cholesky factor: that of the last step its prox was called at.  It also
holds a block of B observations y, shape (B, m), that share one operator H;
its methods then act on (B, n) blocks of points row by row, with the same
bits per row as a term built on that row's observation, and ``take(rows)``
cuts the block to some of its rows, sharing H and the factor.  Its prox calls
LAPACK ``dpotrs`` on the factor and does not scan its input for non-finite
values: a NaN in comes back as a NaN out, and ``solver.run`` reports it as
divergence.

``value`` and ``grad`` also take any (..., n) stack of points, such as the
iterates that ``solver.run`` audits in one call, and return one result per
row; so does ``SubspaceConstraint.value``.

The prox needs two LAPACK routines, ``dpotrf`` and ``dpotrs``, and nothing
else of ``scipy.linalg``, whose import takes about 0.3 s on a 2-core x86-64
host, most of it in helpers that pull in ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``.  So this module imports the ``scipy`` package only, which
sets up scipy's BLAS, and loads the extension ``scipy/linalg/_flapack``
under its own name ``scipy.linalg._flapack`` (about 5 ms); a drsplit
process never imports ``scipy.linalg``.  ``dpotrf`` and ``dpotrs`` here are
the objects that ``scipy.linalg.lapack`` exports, and ``cho_factor`` keeps
the checks of scipy's.  A ``scipy.linalg`` imported earlier is reused; one
imported later reuses the loaded extension and works as usual, except that
its package then lacks the private attribute ``scipy.linalg._flapack``.
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

from .errors import FactorizationError, check_prox_step
from .linalg import LinearMap, as_rows, matvec


def _load_flapack():
    """scipy's LAPACK extension module, loaded without ``scipy.linalg``; a
    missing file raises ImportError naming its path."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(
        os.path.dirname(scipy.__file__), "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs


def cho_factor(a):
    """(c, lower) for a square matrix a, with the upper Cholesky factor in c's
    upper triangle, as ``scipy.linalg.cho_factor(a)`` returns it: ValueError
    on a non-finite entry or a LAPACK argument error, ``np.linalg.LinAlgError``
    naming the first leading minor that is not positive definite."""
    c, info = dpotrf(np.asarray_chkfinite(a), lower=0, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"leading minor of order {info} is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK dpotrf rejected its argument {-info}")
    return c, False


def support_mask(dim: int, support) -> np.ndarray:
    """Boolean mask of length ``dim`` from an iterable of coordinate indices."""
    mask = np.zeros(dim, dtype=bool)
    idx = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if idx.size:
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError(f"support indices must lie in [0, {dim})")
        mask[idx] = True
    return mask


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
    rank.  Prox evaluations solve (I + alpha HᵀH) z = x + alpha Hᵀy with
    LAPACK ``dpotrs`` on the Cholesky factor of the last step used, so
    iterating at a fixed step factorizes once; a call at another step
    factorizes and replaces it.  y of shape (B, m) makes a block of B terms
    that share H.
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
        # (step, its cho_factor result), read and replaced as a whole, so
        # concurrent callers may factorize twice but never get another
        # step's factor.
        self._last_factor: tuple | None = None

    @property
    def dim(self) -> int:
        return self.operator.cols

    @property
    def block_shape(self) -> tuple:
        """() for one observation, (B,) for a block of B observations."""
        return self.y.shape[:-1]

    def take(self, rows) -> "QuadraticTerm":
        """The block of the given rows (indices into the block axis): y and
        Hᵀy cut to them, sharing H, HᵀH, (s, sigma) and the current Cholesky
        factor, so nothing is computed or factorized again."""
        term = copy.copy(self)
        term.y, term._hty = self.y[rows], self._hty[rows]
        term.y.setflags(write=False)
        return term

    def value(self, x):
        """f(x), one value per row of a block."""
        r = self.y - self.operator.apply(x)
        return 0.5 * np.vecdot(r, r)

    def grad(self, x) -> np.ndarray:
        return matvec(self._gram, as_rows(x)) - self._hty

    def _factor(self, alpha: float):
        last = self._last_factor
        if last is None or last[0] != alpha:
            last = (alpha, cho_factor(np.eye(self.dim) + alpha * self._gram))
            self._last_factor = last
        return last[1]

    def prox(self, x, alpha: float) -> np.ndarray:
        check_prox_step(alpha)
        rhs = as_rows(x) + alpha * self._hty
        # Rows of a block are the columns of one multi-right-hand-side solve,
        # which gives each column the bits of its own single solve.
        c, lower = self._factor(alpha)
        z, info = dpotrs(c, rhs.T, lower=lower)
        if info:
            raise FactorizationError(f"dpotrs rejected its argument {-info}")
        return z.T


class SubspaceConstraint(SmoothTerm):
    """f = i_K, the indicator of a coordinate subspace; prox is the projection."""

    def __init__(self, dim: int, support):
        self.mask = support_mask(dim, support)
        self.mask.setflags(write=False)
        self.strong_convexity = 0.0
        self.grad_lipschitz = None

    @property
    def dim(self) -> int:
        return self.mask.size

    def value(self, x):
        """0 on the subspace and inf off it, one value per row of a (..., n) stack."""
        x = as_rows(x)
        return np.where(np.any(x[..., ~self.mask] != 0.0, axis=-1), np.inf, 0.0)[()]

    def prox(self, z, alpha: float) -> np.ndarray:
        return np.where(self.mask, as_rows(z), 0.0)
