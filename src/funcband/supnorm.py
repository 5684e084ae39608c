"""Monte-Carlo sup-norm quantiles of centered Gaussian processes on a grid.

Sample paths are z L with z a row of w standard normals and L a w x m
root of the m x m correlation table (L'L = table); the threshold is the
ceil((1-gamma) N)-th order statistic of the simulated sup-absolute values.
L takes one of three forms:

* dense: the m x m symmetric root of the table from ``moments._psd_root``
  (one eigendecomposition, which also repairs a table that is not PSD),
  applied by one k x m x m product per chunk; w = m;
* thin: for a shrunk empirical correlation (1-lam) Xs'Xs/(n-1) + lam I of
  n < m/2 curves, sqrt(lam) I + V diag(d) V' from the thin SVD of the
  n x m standardized deviations Xs, applied by two k x m x n products;
  w = m.  The bands pass it with the request in place of a table: such a
  request builds its m x m table from the root only when ``table()`` is
  asked for, and the draw never asks.  The result differs from the dense
  root by rounding only;
* factor: an exact r x m root of a rank-r table, such as the goodness-of-fit
  correlation of rank p - L < m, applied by one k x r x m product; w = r.

Paths are drawn in chunks of at most 2048 into one normal buffer and one
product buffer allocated per call.  Randomness is counter-based (Philox)
with per-chunk substreams, so a given seed gives bit-identical output.
Requests with the same seed, paths and width w can share one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, sqrt
from typing import Callable

import numpy as np

from .errors import FactorizationError, FuncbandError, _check_int
from .moments import CorrelationField, _psd_root

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
# The thin root is taken only for shrinkage intensities at or above this:
# every eigenvalue of the shrunk table is then at least lambda, far above
# moments._EIG_RTOL and eigh's rounding, so the dense root would drop nothing.
_THIN_MIN_LAMBDA = 1e-6
# Largest number of random numbers one call may draw: standard normals
# (paths x grid points) or bootstrap indices (resamples x curves).
_MAX_DRAWS = 10**8


def _check_level(gamma: float) -> None:
    """Reject a tail probability outside the open interval (0,1)."""
    if not 0.0 < gamma < 1.0:
        raise FuncbandError(f"level (gamma) must lie in (0,1), got gamma={gamma!r}")


def _check_draws(name: str, count, per_draw: int, low: int = 1) -> None:
    """Reject a path or resample count that is not an integer >= ``low``, or
    whose ``per_draw`` random numbers each would add up to more than
    ``_MAX_DRAWS``."""
    _check_int(name, count, low)
    limit = _MAX_DRAWS // max(per_draw, 1)
    if count > limit:
        raise FuncbandError(f"{name} must be at most {limit} ({per_draw} random draws each, "
                            f"{_MAX_DRAWS:.0e} in all), got {name}={count!r}")


def default_path_count(p: int) -> int:
    """Path-count schedule by design size: 8000 / 10000 / 13000."""
    if p <= 10:
        return 8000
    if p <= 20:
        return 10000
    return 13000


@dataclass(frozen=True)
class SupQuantileRequest:
    correlation: CorrelationField | np.ndarray | None
    level: float            # gamma, the tail probability
    paths: int
    seed: int
    # The bands' _ThinRoot of a shrunk empirical correlation, or a pair
    # (L, clipped mass) of a w x m factor L with L'L = table(); None draws
    # through the dense root of table().  A request with a thin root needs
    # no correlation: its table() is then built from the root, only when asked.
    _root: _ThinRoot | tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_level(self.level)
        _check_int("seed", self.seed)
        if self.correlation is None and not isinstance(self._root, _ThinRoot):
            raise FuncbandError("a sup-norm request needs a correlation table")
        _check_draws("paths", self.paths, self._size, 100)

    def table(self) -> np.ndarray:
        c = self.correlation
        if c is None:
            return self._root.table()
        return c.table if isinstance(c, CorrelationField) else np.asarray(c, dtype=float)

    @property
    def _size(self) -> int:
        """m, the number of grid points of a path; a thin root knows it."""
        if isinstance(self._root, _ThinRoot):
            return self._root.size
        table = self.table()
        return table.shape[0] if table.ndim else 1

    @cached_property
    def _times(self) -> tuple[Callable, float, int]:
        """The root's ``times(z, out, scratch)``, clipped mass and width, built once."""
        if isinstance(self._root, _ThinRoot):
            return self._root, 0.0, self._root.size
        factor, mass = self._root or _psd_root(self.table(), correlation=True)
        return (lambda z, out, scratch=None: np.matmul(z, factor, out=out)), mass, len(factor)


@dataclass(frozen=True)
class SupQuantileResult:
    threshold: float
    stderr: float
    clipped_mass: float


def _thin_root(curves: np.ndarray, mean: np.ndarray, sigma: np.ndarray, lam: float):
    """The ``_ThinRoot`` of n ``curves`` on m points, or None where the dense
    root is used instead: for 2n >= m, where two k x m x n products save
    little over one k x m x m, and for lam below _THIN_MIN_LAMBDA."""
    n, m = curves.shape
    if 2 * n >= m or lam < _THIN_MIN_LAMBDA:
        return None
    return _ThinRoot(curves, mean, sigma, lam)


class _ThinRoot:
    """The symmetric square root L = a I + V diag(d) V' of the shrunk
    correlation (1-lam) Xs'Xs/(n-1) + lam I of n curves on m points,
    Xs = (curves - mean) / sigma, from the thin SVD Xs = U diag(s) V', with
    a = sqrt(lam) and d = sqrt((1-lam) s^2/(n-1) + lam) - a.  Nothing is
    clipped; no m x m array is formed unless ``table`` is called."""

    def __init__(self, curves: np.ndarray, mean: np.ndarray, sigma: np.ndarray, lam: float):
        n, self.size = curves.shape
        self._xs = (curves - mean) / sigma
        self._lam = lam
        try:
            _, s, self._vt = np.linalg.svd(self._xs, full_matrices=False)
        except np.linalg.LinAlgError:
            raise FactorizationError("thin square root: SVD did not converge") from None
        self._a = sqrt(lam)
        self._d = np.sqrt((1.0 - lam) * s * s / (n - 1) + lam) - self._a
        if not all(np.all(np.isfinite(v)) for v in (self._d, self._vt, sigma)):
            raise FactorizationError("thin square root contains non-finite entries")

    def __call__(self, z, out, scratch=None):
        """Set and return out = z L; a z goes to ``scratch``, a new array if
        None (z itself if z is not read again)."""
        t = z @ self._vt.T
        t *= self._d
        np.matmul(t, self._vt, out=out)
        return np.add(out, np.multiply(z, self._a, out=scratch), out=out)

    def table(self) -> np.ndarray:
        """The m x m correlation table L'L, entries clipped to [-1,1] and unit
        diagonal as in ``CorrelationField``."""
        xs = self._xs
        table = np.clip(xs.T @ xs / (len(xs) - 1), -1.0, 1.0)
        table *= 1.0 - self._lam
        np.fill_diagonal(table, 1.0)
        return table


def map_philox_chunks(total: int, chunk: int, seed: int, draw) -> list:
    """Apply ``draw(rng, k)`` to consecutive chunks of at most ``chunk`` of
    ``total`` draws, each chunk with its own Philox substream spawned from
    ``seed``.  Returns the per-chunk results in chunk order."""
    sizes = [min(chunk, total - start) for start in range(0, total, chunk)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    return [draw(np.random.Generator(np.random.Philox(s)), k) for k, s in zip(sizes, streams)]


def simulate_sup_norms(request: SupQuantileRequest, *more: SupQuantileRequest):
    """Simulate sup-absolute values of the Gaussian process; deterministic
    given the seed.  Uses the request's thin root (nothing is clipped then) or
    factor when it has one, else the dense root of its table.  Returns (values,
    clipped mass), or with ``more`` requests a list of such pairs, one each."""
    requests = (request, *more)
    roots = [r._times for r in requests]
    if any((r.seed, r.paths, w) != (request.seed, request.paths, roots[0][2])
           for r, (_, _, w) in zip(requests, roots)):
        raise FuncbandError("requests simulated together must share seed, paths and width")
    sizes = [r._size for r in requests]
    values = np.empty((len(roots), request.paths))
    starts = iter(range(0, request.paths, _CHUNK))      # map_philox_chunks goes in order
    z = np.empty((min(_CHUNK, request.paths), roots[0][2]))
    y = np.empty(len(z) * max(sizes))

    def draw(rng, k):
        zk, start = z[:k], next(starts)
        rng.standard_normal(out=zk)
        for (times, _, _), m, v in zip(roots, sizes, values):
            yk = y[:k * m].reshape(k, m)
            # A thin root may overwrite the normals only when no other root reads them.
            np.abs(times(zk, yk, None if more else zk), out=yk).max(axis=1, out=v[start:start + k])

    map_philox_chunks(request.paths, _CHUNK, request.seed, draw)
    pairs = [(v, mass) for v, (_, mass, _) in zip(values, roots)]
    return pairs if more else pairs[0]


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
    return _sup_quantile_of(request, *simulate_sup_norms(request))


def _sup_quantile_of(request, values, mass) -> SupQuantileResult:
    values.sort()
    c = order_statistic_quantile(values, request.level)
    se = _quantile_stderr(values, request.level)
    return SupQuantileResult(threshold=c, stderr=se, clipped_mass=mass)
