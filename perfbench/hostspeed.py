"""Host speed reference: a fixed numpy/scipy kernel timed next to the workload.

On a shared host the same single-threaded computation can run anywhere
between 1x and 2x its quiet time, in stretches of seconds to minutes, so raw
seconds from two runs minutes apart are not comparable.  The benchmark
therefore times this kernel next to each measurement and reports the
measurement scaled to the quiet host:

    seconds * QUIET_KERNEL_S / kernel seconds measured alongside

The kernel has drsplit's instruction mix (a Python loop of small numpy
calls on 90-vectors with a Cholesky solve) but never calls drsplit, so a
change to drsplit moves the scaled time in full.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Kernel seconds on the quiet 2-core host the benchmark was built on
# (fastest of 100 runs); it only sets the scale of reported times.
QUIET_KERNEL_S = 0.0496
STEPS = 1500


def kernel_seconds() -> float:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(120, 90))
    gram = a.T @ a
    factor = cho_factor(np.eye(90) + 0.1 * gram)
    x = rng.normal(size=90)
    t0 = time.perf_counter()
    for _ in range(STEPS):
        y = cho_solve(factor, x + 0.1 * (gram @ x))
        a_y = np.abs(y)
        x = np.where(a_y < 0.05, 0.0, np.sign(y) * (a_y - 0.01))
        x = x / max(float(np.linalg.norm(x)), 1e-12)
    return time.perf_counter() - t0


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` expressed at the quiet host's speed."""
    return seconds * QUIET_KERNEL_S / kernel_s


class SpeedLog:
    """Kernel samples, at most one per ``interval`` seconds, and the timed
    parts they scale.  Samples are taken between parts and, where a workload
    offers a point for it, inside long parts; time spent in a sample taken
    inside a part is not part of the part."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel seconds)

    def sample(self) -> None:
        t0 = time.perf_counter()
        k = kernel_seconds()
        self.samples.append((t0, time.perf_counter(), k))

    def sample_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.interval:
            self.sample()

    def scaled(self, end: float, seconds: float) -> tuple[float, float]:
        """For a part that ended at ``end`` after ``seconds``: its seconds
        without the samples taken inside it, and those seconds at quiet-host
        speed.  Each stretch between samples is scaled by the mean kernel
        time of the samples that bracket it."""
        start = end - seconds
        inside = [s for s in self.samples if start <= s[0] and s[1] <= end]
        before = [s[2] for s in self.samples if s[1] <= start][-1:] or [None]
        after = [s[2] for s in self.samples if s[0] >= end][:1] or [None]
        kernels = before + [s[2] for s in inside] + after
        bounds = [start, *(t for s in inside for t in s[:2]), end]
        raw = quiet = 0.0
        for j in range(len(inside) + 1):
            length = bounds[2 * j + 1] - bounds[2 * j]
            around = [k for k in kernels[j : j + 2] if k is not None]
            raw += length
            quiet += scale(length, sum(around) / len(around))
        return raw, quiet
