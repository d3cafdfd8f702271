"""Weakly convex separable penalties and their (shifted) proximity operators.

A penalty g is rho-weakly convex when g + (rho/2)|.|^2 is convex.  Every
penalty here exposes

    value(x)            sum of the pointwise penalty over coordinates
    pointwise(t)        elementwise penalty values
    prox(x, alpha)      argmin_z  |z - x|^2 / (2 alpha) + g(z), elementwise
    shifted_prox(x, alpha)  prox of the convexified g + (modulus/2)|.|^2
    modulus             the weak-convexity modulus rho

``shifted_prox`` is the operator used by the quadratic-shifted splitting: for
beta = alpha / (1 + alpha rho) it equals ``prox(x * beta / alpha, beta)``, and
its step gate ``beta * rho < 1`` holds for every alpha > 0.  Each prox checks
its step with ``errors.check_prox_step``, the one rule of every prox and
bound (alpha > 0, and alpha * rho < 1 for the firm prox); a NaN fails it.
``FirmPenalty`` computes its knee tau/rho and its plateau tau^2/(2 rho) once,
when it is built; both are infinite at rho = 0, where it is the convex
penalty tau|t| whose prox is the soft threshold.  Its prox keeps the
constants of the last step it was called at, (alpha, alpha tau, 1 - alpha
rho), so a call at that step checks nothing again and pays only for the
elementwise work; a call at another step checks it and replaces them, and a
NaN step, equal to no step, is checked and rejected on every call.  For a
(B, 1) column of weights it keeps alpha tau and the knee at the (B, n) shape
of the block's iterates, rebuilt when the step or n changes, so no call
broadcasts a column: a (k, B, n) stack of iterates broadcasts them along its
leading axis only.

A penalty is the g side alone: a data term, even the plain 0.5||y - x||^2
of the subspace demo, belongs to the f side (``smooth.SubspaceConstraint``),
whose strong convexity the shifted variants spend on g's weak convexity.

Every operation is elementwise, so it also acts on a (B, n) block of points,
or any (..., n) stack of them, row by row; ``value`` then returns one total
per row.  ``FirmPenalty`` takes its weight tau as a scalar or as a (B, 1)
column, one weight per row; ``take(rows)`` is the penalty built on the kept
rows of the column, and ``zones(x)`` reads which of its three zones each
coordinate of x lies in.
"""

from __future__ import annotations

import numpy as np

from .errors import check_prox_step


class SeparablePenalty:
    """Base class: coordinatewise penalty with a known weak-convexity modulus."""

    modulus: float = 0.0

    def pointwise(self, t):
        raise NotImplementedError

    def prox(self, x, alpha: float):
        raise NotImplementedError

    def value(self, x):
        """Sum of the pointwise penalty over the last axis (one total per row of a block)."""
        return np.sum(self.pointwise(np.asarray(x, dtype=float)), axis=-1)

    def shifted_prox(self, x, alpha: float):
        check_prox_step(alpha)
        scale = 1.0 + alpha * self.modulus
        return self.prox(np.asarray(x, dtype=float) / scale, alpha / scale)


class FirmPenalty(SeparablePenalty):
    """Penalty whose proximity operator is the firm threshold.

    Pointwise value tau*|t| - rho*t^2/2 inside |t| < tau/rho, constant
    tau^2/(2 rho) outside; rho-weakly convex, bounded, even, and
    nondecreasing in |t|.  rho >= 0: at rho = 0 the knee tau/rho and the
    plateau are infinite, the penalty is tau*|t| and its prox the soft
    threshold.  tau is a scalar, or a (B, 1) column that gives each row of a
    (B, n) block its own weight; rho is shared.
    """

    def __init__(self, tau, rho: float):
        tau = np.asarray(tau, dtype=float)
        if tau.ndim not in (0, 2) or tau.shape[1:] not in ((), (1,)):
            raise ValueError(f"tau must be a scalar or a (B, 1) column, got shape {tau.shape}")
        if not np.all((tau > 0) & np.isfinite(tau)):
            raise ValueError(f"tau must be positive, got {tau}")
        if not (rho >= 0 and np.isfinite(rho)):
            raise ValueError(f"rho must be nonnegative, got {rho}")
        self._column = bool(tau.ndim)
        if self._column:
            tau = tau.copy()
            tau.setflags(write=False)
            # Square each weight as a Python float, as a scalar penalty does:
            # numpy's square and libm's pow differ in the last bit on about
            # one value in a thousand.
            tau_sq = np.array([[t**2] for t in tau[:, 0].tolist()])
        else:
            tau = float(tau)
            tau_sq = tau**2
        self.tau = tau
        self.rho = float(rho)
        self.modulus = self.rho
        # The knee tau/rho and the plateau tau^2/(2 rho), at the shape of tau
        # (prox repeats a column's knee along the row): infinite at rho = 0.
        with np.errstate(divide="ignore"):
            self._knee = np.divide(tau, self.rho)
            self._plateau = np.divide(tau_sq, 2.0 * self.rho)
        # (step, n, step * tau, knee, 1 - step * rho), read and replaced as a
        # whole, so concurrent callers never mix two steps' constants.  n is 0
        # for a scalar tau; a column's two thresholds are (B, n) arrays.
        self._step: tuple | None = None

    @property
    def block_shape(self) -> tuple:
        """() for a scalar weight, (B,) for a (B, 1) column of weights."""
        return np.shape(self.tau)[:-1]

    def take(self, rows) -> "FirmPenalty":
        """The block of the given rows (indices into the block axis) of a
        column of weights: the penalty built on those rows of tau."""
        return FirmPenalty(self.tau[rows], self.rho)

    def pointwise(self, t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t)
        return np.where(a < self._knee, self.tau * a - 0.5 * self.rho * a * a, self._plateau)

    def prox(self, x, alpha: float):
        """Firm threshold: dead zone below alpha*tau, expansive middle band,
        identity above tau/rho (none at rho = 0, where the middle band is the
        soft threshold).  Requires alpha * rho < 1."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1] if self._column and x.ndim else 0
        step = self._step
        # A NaN step never equals: checked, and rejected, every call.
        if step is None or step[0] != alpha or step[1] != n:
            check_prox_step(alpha, self.rho)
            dead, edge = alpha * self.tau, self._knee
            if n:  # the same bits as the column, repeated along the row
                dead, edge = np.repeat(dead, n, axis=1), np.repeat(edge, n, axis=1)
            self._step = step = (alpha, n, dead, edge, 1.0 - alpha * self.rho)
        _, _, dead, edge, denom = step
        a = np.abs(x)
        # copysign has the bits of sign(x) * (a - dead) / denom wherever the
        # middle band is taken, as x is finite and nonzero there (unless
        # alpha * tau underflows to 0: then x = -0.0 gives -0.0, not 0.0).
        middle = np.copysign((a - dead) / denom, x)
        return np.where(a < dead, 0.0, np.where(a < edge, middle, x))

    def zones(self, x):
        """(sign, band) of each coordinate of a point, a stack or a (B, n)
        block x: its sign, 0 in the dead zone (x = 0), and whether |x| <
        tau/rho, which holds in the dead zone and the middle band and fails
        in the identity zone.  A (B, 1) column tau gives each row its own
        threshold."""
        x = np.asarray(x, dtype=float)
        return np.sign(x), np.abs(x) < self._knee

    def __repr__(self):
        return f"FirmPenalty(tau={self.tau!r}, rho={self.rho!r})"


class ZeroPenalty(SeparablePenalty):
    """g identically zero; prox is the identity.

    Kept as the trivial g, under which a run exercises the smooth side alone."""

    modulus = 0.0

    def pointwise(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def prox(self, x, alpha: float):
        return np.asarray(x, dtype=float).copy()

    def __repr__(self):
        return "ZeroPenalty()"
