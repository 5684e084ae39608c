"""A fixed numpy kernel that follows the host's speed.

On a shared host the speed of a vCPU drifts by up to 1.7x over seconds to
minutes, and every op of a run slows with it. The benchmark times this kernel
between ops and reports each timing scaled by ``NOMINAL_S / kernel time``,
that is, in the time the op would take on a host where the kernel takes
``NOMINAL_S``. The kernel does the kinds of work the program does: Philox
normal draws, a GEMM with an abs-max reduction, and a Python loop of small
numpy reductions over resampled rows. It uses numpy only, so no change to
``funcband`` changes it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on the uncontended 2-vCPU host the benchmark was built on.
NOMINAL_S = 0.020


class Reference:
    def __init__(self):
        lags = np.abs(np.subtract.outer(np.arange(100), np.arange(100)))
        self._factor = np.linalg.cholesky(np.exp(-lags / 10.0))
        self._rows = np.random.default_rng(0).standard_normal((20, 100))
        self.seconds()  # first call pays for lazy initialisation

    def seconds(self) -> float:
        """Run the kernel once; returns its wall time."""
        start = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(1))
        total = 0.0
        for _ in range(3):
            z = rng.standard_normal((2048, 100))
            total += float(np.abs(z @ self._factor).max(axis=1).sum())
        for _ in range(200):
            boot = self._rows[rng.integers(0, 20, size=20)]
            total += float(np.max(np.abs(boot.mean(axis=0) / np.sqrt(boot.var(axis=0, ddof=1)))))
        if not np.isfinite(total):
            raise ArithmeticError("reference kernel produced a non-finite value")
        return time.perf_counter() - start

    def speed(self) -> float:
        """Median kernel time over three runs."""
        return statistics.median(self.seconds() for _ in range(3))


def calibrated(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` scaled to a host where the kernel takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / kernel_seconds
