"""Monte-Carlo sup-norm quantiles of centered Gaussian processes on a grid.

A correlation table is factored through its symmetric PSD square root (after
eigenvalue repair); sample paths are L z with z standard normal, and the
threshold is the ceil((1-gamma) N)-th order statistic of the simulated
sup-absolute values.  Randomness is counter-based (Philox) with per-chunk
substreams, so a given seed gives bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from .errors import FactorizationError, FuncbandError
from .moments import CorrelationField, _psd_repair_eig

__all__ = [
    "SupQuantileRequest",
    "SupQuantileResult",
    "simulate_sup_norms",
    "sup_quantile",
    "default_path_count",
    "order_statistic_quantile",
]

_CHUNK = 2048
# Order statistics closer than this, relative to the quantile, count as tied:
# bootstrap resamples that draw the same curves give z* equal up to rounding.
_TIE_RTOL = 1e-8
# Eigenvalues at or below this fraction of the largest are rounding noise of
# a rank-deficient table; their square roots (about sqrt(eps)) are zeroed.
_EIG_RTOL = 1e-12


def _check_level(gamma: float) -> None:
    """Reject a tail probability outside the open interval (0,1)."""
    if not 0.0 < gamma < 1.0:
        raise FuncbandError(f"level (gamma) must lie in (0,1), got gamma={gamma!r}")


def _check_seed(seed) -> None:
    """Reject a seed that ``numpy.random.SeedSequence`` would not take."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise FuncbandError(f"seed must be a non-negative integer, got seed={seed!r}")


def default_path_count(p: int) -> int:
    """Path-count schedule by design size: 8000 / 10000 / 13000."""
    if p <= 10:
        return 8000
    if p <= 20:
        return 10000
    return 13000


@dataclass(frozen=True)
class SupQuantileRequest:
    correlation: CorrelationField | np.ndarray
    level: float            # gamma, the tail probability
    paths: int
    seed: int

    def __post_init__(self):
        _check_level(self.level)
        _check_seed(self.seed)
        if self.paths < 100:
            raise FuncbandError("need at least 100 simulated paths")

    def table(self) -> np.ndarray:
        c = self.correlation
        return c.table if isinstance(c, CorrelationField) else np.asarray(c, dtype=float)


@dataclass(frozen=True)
class SupQuantileResult:
    threshold: float
    stderr: float
    paths: int
    clipped_mass: float


def _sqrt_factor(table: np.ndarray) -> tuple[np.ndarray, float]:
    repaired, mass, eig = _psd_repair_eig(table, correlation=True)
    vals, vecs = eig if eig is not None else np.linalg.eigh(repaired)
    vals = np.where(vals > _EIG_RTOL * vals.max(), vals, 0.0)
    factor = (vecs * np.sqrt(vals)[None, :]) @ vecs.T
    if not np.all(np.isfinite(factor)):
        raise FactorizationError("correlation square root contains non-finite entries")
    return factor, mass


def map_philox_chunks(total: int, chunk: int, seed: int, draw) -> list:
    """Apply ``draw(rng, k)`` to consecutive chunks of at most ``chunk`` of
    ``total`` draws, each chunk with its own Philox substream spawned from
    ``seed``.  Returns the per-chunk results in chunk order."""
    sizes = [min(chunk, total - start) for start in range(0, total, chunk)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    return [draw(np.random.Generator(np.random.Philox(s)), k) for k, s in zip(sizes, streams)]


def simulate_sup_norms(request: SupQuantileRequest) -> tuple[np.ndarray, float]:
    """Simulate sup-absolute values of the Gaussian process; deterministic
    given the seed."""
    factor, mass = _sqrt_factor(request.table())
    m = factor.shape[0]

    def draw(rng, k):
        return np.abs(rng.standard_normal((k, m)) @ factor).max(axis=1)

    parts = map_philox_chunks(request.paths, _CHUNK, request.seed, draw)
    return np.concatenate(parts), mass


def order_statistic_quantile(values: np.ndarray, gamma: float) -> float:
    """ceil((1-gamma) N)-th order statistic (1-based, no interpolation)."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    k = min(max(ceil((1.0 - gamma) * n), 1), n)
    return float(values[k - 1])


def _quantile_stderr(sorted_vals: np.ndarray, gamma: float) -> float:
    """Binomial-quantile asymptotic standard error with a finite-difference
    density estimate from nearby order statistics.  The window of about
    sqrt(N) order statistics doubles until its ends differ by more than
    rounding, so ties at the quantile widen it instead of reading as an exact
    threshold; 0 only when all N values tie."""
    n = sorted_vals.size
    k = min(max(ceil((1.0 - gamma) * n), 1), n)
    half = max(1, int(0.5 * sqrt(n)))
    while True:
        lo = max(k - half, 1)
        hi = min(k + half, n)
        spread = float(sorted_vals[hi - 1] - sorted_vals[lo - 1])
        if spread > _TIE_RTOL * abs(float(sorted_vals[k - 1])):
            break
        if lo == 1 and hi == n:
            return 0.0
        half *= 2
    density = (hi - lo) / n / spread
    return sqrt(gamma * (1.0 - gamma) / n) / density


def sup_quantile(request: SupQuantileRequest) -> SupQuantileResult:
    values, mass = simulate_sup_norms(request)
    values.sort()
    c = order_statistic_quantile(values, request.level)
    se = _quantile_stderr(values, request.level)
    return SupQuantileResult(threshold=c, stderr=se, paths=request.paths, clipped_mass=mass)
