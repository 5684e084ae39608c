"""Monte-Carlo sup-norm quantiles of centered Gaussian processes on a grid.

Sample paths are z L with z a row of w standard normals and L a w x m
root of the m x m correlation table (L'L = table); the threshold is the
ceil((1-gamma) N)-th order statistic of the simulated sup-absolute values.
A root has a ``size`` m, a ``width`` w, the clipped eigenvalue ``mass``, a
``table()`` and the product z L.  It is one of two kinds:

* matrix: a w x m array L, applied by one k x w x m product per chunk: the
  m x m symmetric root of a table from ``moments._psd_root`` (which also
  repairs a table that is not PSD), or the goodness-of-fit test's exact
  factor of its rank-r correlation, w = min(r, m);
* thin: for a shrunk empirical correlation (1-lam) Xs'Xs/(n-1) + lam I of
  n < m/2 curves, sqrt(lam) I + V diag(d) V' from the thin SVD of the
  n x m standardized deviations Xs, applied by two k x m x n products;
  w = m.  Only ``table()`` forms an m x m array, and the draw never calls it.

Paths are drawn in chunks of at most 2048 into one normal buffer and one
product buffer allocated per call.  Randomness is counter-based (Philox)
with per-chunk substreams, so a given seed gives bit-identical output.
Requests with the same seed, paths and width w can share one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, sqrt

import numpy as np

from .errors import FactorizationError, FuncbandError, _check_int
from .moments import CorrelationField, _psd_root, _shrunk_table

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
    _check_int("p", p, 1)
    if p <= 10:
        return 8000
    if p <= 20:
        return 10000
    return 13000


class _MatrixRoot:
    """A w x m root ``factor`` L of an m x m correlation table (L'L = table),
    made by dropping the share ``mass`` of the table's eigenvalue mass.  A
    root made from a table by ``of`` keeps that table for ``table()``."""

    def __init__(self, factor: np.ndarray, mass: float = 0.0, table: np.ndarray | None = None):
        self.factor = factor
        self.width, self.size = factor.shape
        self.mass = mass
        self._table = table

    @classmethod
    def of(cls, table: np.ndarray) -> _MatrixRoot:
        """The m x m symmetric root of a correlation table, from ``_psd_root``."""
        return cls(*_psd_root(table, correlation=True), table)

    def __call__(self, z, out, scratch=None):
        """Set and return out = z L."""
        return np.matmul(z, self.factor, out=out)

    def table(self) -> np.ndarray:
        return self.factor.T @ self.factor if self._table is None else self._table


class _ThinRoot(_MatrixRoot):
    """The symmetric square root L = a I + V diag(d) V' of the shrunk
    correlation (1-lam) Xs'Xs/(n-1) + lam I of n curves on m points,
    Xs = (curves - mean) / sigma, from the thin SVD Xs = U diag(s) V', with
    a = sqrt(lam) and d = sqrt((1-lam) s^2/(n-1) + lam) - a.  Nothing is
    clipped; no m x m array is formed unless ``table`` is called."""

    def __init__(self, curves: np.ndarray, mean: np.ndarray, sigma: np.ndarray, lam: float):
        self.width = self.size = curves.shape[1]
        self.mass = 0.0
        self._xs = (curves - mean) / sigma
        self._lam = lam
        try:
            _, s, self._vt = np.linalg.svd(self._xs, full_matrices=False)
        except np.linalg.LinAlgError:
            raise FactorizationError("thin square root: SVD did not converge") from None
        self._a = sqrt(lam)
        self._d = np.sqrt((1.0 - lam) * s * s / (len(curves) - 1) + lam) - self._a
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
        return _shrunk_table(self._xs, self._lam)


@dataclass(frozen=True)
class SupQuantileRequest:
    """Draw ``paths`` sup-norms of the Gaussian process with correlation
    ``correlation``: an m x m table, a ``CorrelationField`` or a root.  The
    root drawn through, ``root``, is built once: for a table, ``_MatrixRoot.of``."""

    correlation: CorrelationField | np.ndarray | _MatrixRoot
    level: float            # gamma, the tail probability
    paths: int
    seed: int
    root: _MatrixRoot = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_level(self.level)
        _check_int("seed", self.seed)
        root = self.correlation
        if not isinstance(root, _MatrixRoot):
            root = _MatrixRoot.of(np.asarray(getattr(root, "table", root), dtype=float))
        object.__setattr__(self, "root", root)
        _check_draws("paths", self.paths, root.size, 100)

    def table(self) -> np.ndarray:
        """The given table, or the root's own table."""
        return self.root.table()


@dataclass(frozen=True)
class SupQuantileResult:
    threshold: float
    stderr: float
    clipped_mass: float


def map_philox_chunks(total: int, chunk: int, seed: int, draw) -> list:
    """Apply ``draw(rng, k)`` to consecutive chunks of at most ``chunk`` of
    ``total`` draws, each chunk with its own Philox substream spawned from
    ``seed``.  Returns the per-chunk results in chunk order."""
    sizes = [min(chunk, total - start) for start in range(0, total, chunk)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    return [draw(np.random.Generator(np.random.Philox(s)), k) for k, s in zip(sizes, streams)]


def simulate_sup_norms(request: SupQuantileRequest, *more: SupQuantileRequest):
    """Simulate sup-absolute values of the Gaussian process through the
    request's root; deterministic given the seed.  Returns (values, clipped
    mass), or with ``more`` requests a list of such pairs, one each."""
    requests = (request, *more)
    roots = [r.root for r in requests]
    width = roots[0].width
    if any((r.seed, r.paths, root.width) != (request.seed, request.paths, width)
           for r, root in zip(requests, roots)):
        raise FuncbandError("requests simulated together must share seed, paths and width")
    values = np.empty((len(roots), request.paths))
    starts = iter(range(0, request.paths, _CHUNK))      # map_philox_chunks goes in order
    z = np.empty((min(_CHUNK, request.paths), width))
    y = np.empty(len(z) * max(root.size for root in roots))

    def draw(rng, k):
        zk, start = z[:k], next(starts)
        rng.standard_normal(out=zk)
        for root, v in zip(roots, values):
            yk = y[:k * root.size].reshape(k, root.size)
            # A thin root may overwrite the normals only when no other root reads them.
            np.abs(root(zk, yk, None if more else zk), out=yk).max(axis=1, out=v[start:start + k])

    map_philox_chunks(request.paths, _CHUNK, request.seed, draw)
    pairs = [(v, root.mass) for v, root in zip(values, roots)]
    return pairs if more else pairs[0]


def order_statistic_quantile(values: np.ndarray, gamma: float) -> float:
    """ceil((1-gamma) N)-th order statistic (1-based, no interpolation)."""
    _check_level(gamma)
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    if n == 0:
        raise FuncbandError("values must hold at least one value, got values of size 0")
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
