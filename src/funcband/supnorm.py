"""Monte-Carlo sup-norm quantiles of centered Gaussian processes on a grid.

Sample paths are z L with z a row of w standard normals and L a w x m
root of the m x m correlation table (L'L = table); the threshold is the
ceil((1-gamma) N)-th order statistic of the simulated sup-absolute values.
A root has a ``size`` m, a ``width`` w, the clipped eigenvalue ``mass``, a
``table()`` and the ``sups`` of z L.  It is one of two kinds:

* matrix: a w x m array L, applied by one k x w x m product per chunk: the
  m x m symmetric root of a table from ``moments._psd_root`` (which also
  repairs a table that is not PSD), or the goodness-of-fit test's exact
  factor of its rank-r correlation, w = min(r, m).  The product is taken
  point-major, as L'z', so the sups are a max over m rows of k paths;
* thin: for a shrunk empirical correlation (1-lam) Xs'Xs/(n-1) + lam I of
  n curves, a I + V diag(d) V' from the thin SVD of the n x m standardized
  deviations Xs, a = sqrt(lam).  For n < m/2 it is applied as a (z + (z V)
  diag(d/a) V') by two k x m x n products that only read z, w = m; else its
  ``dense()`` matrix root is drawn.

A chunk of at most 2048 paths sets the randomness: each has its own
counter-based (Philox) substream, so a given seed gives bit-identical
output.  Requests with the same seed and paths share one draw, as wide as
the widest root: a root of width w reads the first w columns of its
normals, so the widest root's values are those of its own draw.  A block
sets the memory: the rows of a chunk that are filled, multiplied and reduced
to their sups at once, in one normal buffer and one product buffer; no root
writes its normals.  A block has 2048 rows, halved until one buffer of rows
x max(w, columns) doubles is at most 8 MiB, where a root's ``columns`` are m,
or m + n for a thin root, whose z V shares the product buffer: grids of up
to 512 points draw a chunk in one block, wider ones in blocks of 4 to 8 MiB.
The blocks of a chunk fill in turn from its generator, so they draw the same
normals in the same order as one fill of the chunk.

W workers, one per CPU this process may run on and at most one per chunk,
each take whole chunks and draw them in blocks of 1/W of those rows (W
rounded up to a power of two), so that together they hold the buffers of
one; the caller makes every buffer, and numpy's per-call buffer is kept
small (``_UFUNC_BUFFER``).  numpy releases the interpreter lock in the fill
and the products.  The draw holds OpenBLAS at one thread while it runs, so
a product's bits depend neither on W nor on the BLAS thread count: a seed
gives the same values on any number of CPUs.  The Gaussian bands and
tests hold it from their first product (``_blas_held``), since OpenBLAS's
pool thread spins on another CPU for a while after a threaded product.
Where numpy's OpenBLAS or its ``openblas_set_num_threads_local`` is not
found, W is 1 and BLAS keeps its own count.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass, field
from functools import cache, wraps
from math import ceil, sqrt
from numbers import Real

import numpy as np

from .errors import (FactorizationError, FuncbandError, _as_float_array, _check_finite, _check_int,
                     _check_type)
from .moments import _psd_root, _shrunk_table

__all__ = [
    "SupQuantileRequest",
    "SupQuantileResult",
    "simulate_sup_norms",
    "sup_quantile",
    "default_path_count",
    "order_statistic_quantile",
]

_CHUNK = 2048
# Largest size of one draw buffer.  Halving the block keeps a buffer above
# 4 MiB, where numpy still advises huge pages; smaller blocks ran slower.
_BLOCK_BYTES = 8 * 2**20
# Order statistics closer than this, relative to the quantile, count as tied:
# bootstrap resamples that draw the same curves give z* equal up to rounding.
_TIE_RTOL = 1e-8
# Largest number of random numbers one call may draw: standard normals
# (paths x grid points) or bootstrap indices (resamples x curves).
_MAX_DRAWS = 10**8
# Elements of numpy's buffer for a strided or broadcast ufunc operand, set in
# each draw worker: a thin root's scaling of z V, and its sum with a narrower
# root's normals, each take one per call.  numpy's default, 8192 doubles, put
# 64 KiB per worker into the draw's peak memory whenever the calls of two
# workers happened to overlap.
_UFUNC_BUFFER = 256


def _check_level(gamma: float) -> None:
    """Reject a tail probability that is not a real number in (0,1)."""
    if not (isinstance(gamma, Real) and 0.0 < gamma < 1.0):
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
        self.columns = self.size        # doubles of the product buffer per path
        self.mass = mass
        self._table = table

    @classmethod
    def of(cls, table: np.ndarray) -> _MatrixRoot:
        """The m x m symmetric root of a correlation table, from ``_psd_root``."""
        return cls(*_psd_root(table, correlation=True), table)

    def sups(self, z, y, out):
        """Set ``out`` to the sup |z L| of each row of z, with L'z' in the first
        m k doubles of ``y`` (k ``columns`` doubles): point-major, so the sup is
        a max over contiguous rows of k paths, not over each path's short row
        of m points.  Allocates no array."""
        yk = np.matmul(self.factor.T, z.T, out=y[:self.size * len(z)].reshape(self.size, len(z)))
        np.abs(yk, out=yk).max(axis=0, out=out)

    def table(self) -> np.ndarray:
        return self.factor.T @ self.factor if self._table is None else self._table


class _ThinRoot(_MatrixRoot):
    """The symmetric square root L = a I + V diag(d) V' of the shrunk
    correlation (1-lam) Xs'Xs/(n-1) + lam I of n curves on m points,
    Xs = (curves - mean) / sigma, from the thin SVD Xs = U diag(s) V', with
    a = sqrt(lam) and d = sqrt((1-lam) s^2/(n-1) + lam) - a.  Nothing is
    clipped; no m x m array is formed unless ``dense`` or ``table`` is called."""

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
        self._scale = self._d / self._a if lam > 0.0 else None     # the draw needs a > 0
        self.columns = self.size + len(self._d)

    def dense(self) -> _MatrixRoot:
        """L as an m x m matrix root."""
        factor = (self._vt.T * self._d) @ self._vt
        factor[np.diag_indices(self.size)] += self._a
        return _MatrixRoot(factor)

    def sups(self, z, y, out):
        """As ``_MatrixRoot.sups``, with z L / a in ``y`` row-major (a row of
        m > 2n points is long) and z V in the k n doubles after it.  Needs
        a > 0."""
        k, n = len(z), len(self._d)
        yk = y[:k * self.size].reshape(k, self.size)
        t = np.matmul(z, self._vt.T, out=y[k * self.size:k * self.columns].reshape(k, n))
        t *= self._scale
        np.add(np.matmul(t, self._vt, out=yk), z, out=yk)
        np.abs(yk, out=yk).max(axis=1, out=out)
        out *= self._a

    def table(self) -> np.ndarray:
        return _shrunk_table(self._xs, self._lam)


@dataclass(frozen=True, eq=False)
class SupQuantileRequest:
    """Draw ``paths`` sup-norms of the Gaussian process with correlation
    ``correlation``: an m x m table or a root.  The root drawn through,
    ``root``, is built once: for a table, ``_MatrixRoot.of``."""

    correlation: np.ndarray | _MatrixRoot
    level: float            # gamma, the tail probability
    paths: int
    seed: int
    root: _MatrixRoot = field(init=False, repr=False)

    def __post_init__(self):
        _check_level(self.level)
        _check_int("seed", self.seed)
        root = self.correlation
        if not isinstance(root, _MatrixRoot):
            root = _MatrixRoot.of(_as_float_array("correlation", root))
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # a platform without CPU affinity
        return os.cpu_count() or 1


@cache
def _openblas_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` (int -> int, the count
    before) in the library that numpy's wheel bundles, or None.  Looked up
    once, at the first draw."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:             # no numpy.libs: a numpy not from a wheel
        return None
    for name in names:
        try:            # RTLD_NOLOAD: the copy numpy loaded, never a second one
            setter = ctypes.CDLL(os.path.join(libs, name),
                                 mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (AttributeError, OSError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any draw or held call runs, then
    sets back the count it found.  In the pthreads build that numpy wheels
    bundle, ``openblas_set_num_threads_local`` sets the count of the whole
    process (it is thread-local only inside OpenMP regions), so the draw
    holds it, not each worker, and holds that overlap share one, which the
    last to end gives back.  Being process-wide, a hold also puts BLAS calls
    of other threads on one thread meanwhile, so an unheld routine running
    beside a held one can take other bits; a count another thread sets
    during a hold is overwritten at its end; and a child forked during a
    hold keeps one thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holds = self._saved = 0

    def __enter__(self):
        with self._lock:
            setter = _openblas_setter()
            if setter and not self._holds:
                self._saved = setter(1)
            self._holds += 1

    def __exit__(self, *exc):
        with self._lock:
            self._holds -= 1
            setter = _openblas_setter()
            if setter and not self._holds:
                setter(self._saved)


_BLAS = _OneBlasThread()


def _blas_held(function):
    """``function`` run with OpenBLAS held at one thread: a Gaussian band or
    test holds it from its first product to the end of its draw.  After a
    product on two threads, OpenBLAS's pool thread spins for about 0.15 s on
    the other CPU, where it slowed a draw's second worker by 1.7x."""
    @wraps(function)
    def held(*args, **kwargs):
        with _BLAS:
            return function(*args, **kwargs)
    return held


def map_philox_chunks(total: int, chunk: int, seed: int, *draws) -> list:
    """Apply a ``draw(rng, k, start)`` to each chunk [start, start + k) of at
    most ``chunk`` of ``total`` draws, each chunk with its own Philox
    substream spawned from ``seed``.  Each of the ``draws`` is one worker that
    takes the next chunk until none is left: the first on the calling thread,
    each other on a thread of its own that ends before this returns.  An
    exception in a worker stops every worker taking a chunk and is raised
    here.  Returns the per-chunk results in chunk order."""
    starts = range(0, total, chunk)
    streams = np.random.SeedSequence(seed).spawn(len(starts))
    results = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock, stop, errors = threading.Lock(), threading.Event(), []

    def work(draw):
        try:
            while not stop.is_set():
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                rng = np.random.Generator(np.random.Philox(streams[i]))
                results[i] = draw(rng, min(chunk, total - starts[i]), starts[i])
        except BaseException as exc:        # raised again below, on the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for draw in draws[1:]:
            thread = threading.Thread(target=work, args=(draw,))
            thread.start()
            threads.append(thread)
        work(draws[0])
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results


def simulate_sup_norms(request: SupQuantileRequest, *more: SupQuantileRequest):
    """Simulate sup-absolute values of the Gaussian process through the
    request's root; deterministic given the seed.  Returns (values, clipped
    mass), or with ``more`` requests a list of such pairs, one each.

    W workers, one per CPU and at most one per chunk, each take whole chunks
    of at most 2048 paths (one Philox substream) and fill, multiply and
    reduce them to their sups in blocks of rows: 2048, halved until a normal
    or product buffer of rows x max(w, ``columns``) doubles is at most 8 MiB,
    then divided by W rounded up to a power of two."""
    requests = (request, *more)
    for r in requests:
        _check_type("request", r, SupQuantileRequest)
    if any((r.seed, r.paths) != (request.seed, request.paths) for r in requests):
        raise FuncbandError("requests simulated together must share seed and paths")
    roots = [r.root for r in requests]
    width = max(root.width for root in roots)
    columns = max(width, *(root.columns for root in roots))
    rows = _CHUNK
    while rows > 1 and rows * columns * 8 > _BLOCK_BYTES:
        rows //= 2
    workers = min(_cpus(), ceil(request.paths / _CHUNK)) if _openblas_setter() else 1
    rows = min(max(rows >> (workers - 1).bit_length(), 1), request.paths)
    values = np.empty((len(roots), request.paths))
    z = np.empty((workers, rows, width))            # every worker's buffers, made here
    y = np.empty((workers, rows * columns))

    def worker(z, y):
        def draw(rng, k, start):
            with np.errstate():         # gives back numpy's buffer size on exit
                np.setbufsize(_UFUNC_BUFFER)
                for at in range(start, start + k, rows):
                    zk = z[:min(rows, start + k - at)]
                    rng.standard_normal(out=zk)
                    for root, v in zip(roots, values):
                        w = root.width          # a narrower root reads the first w columns
                        root.sups(zk[:, :w], y, v[at:at + len(zk)])
        return draw

    with _BLAS:
        map_philox_chunks(request.paths, _CHUNK, request.seed, *map(worker, z, y))
    pairs = [(v, root.mass) for v, root in zip(values, roots)]
    return pairs if more else pairs[0]


def _sorted_quantile(values: np.ndarray, gamma: float) -> tuple[float, float]:
    """(c, se) of ``values``, sorted here in place: the ceil((1-gamma) N)-th order
    statistic (1-based, no interpolation) and its binomial-quantile asymptotic
    standard error, with a finite-difference density estimate from a window of
    about sqrt(N) nearby order statistics.  The window doubles until its ends
    differ by more than rounding, so ties at the quantile widen it instead of
    reading as an exact threshold; se is 0 only when all N values tie."""
    values.sort()
    n = values.size
    k = min(max(ceil((1.0 - gamma) * n), 1), n)
    c = float(values[k - 1])
    half = max(1, int(0.5 * sqrt(n)))
    while True:
        lo = max(k - half, 1)
        hi = min(k + half, n)
        spread = float(values[hi - 1] - values[lo - 1])
        if spread > _TIE_RTOL * abs(c):
            break
        if lo == 1 and hi == n:
            return c, 0.0
        half *= 2
    density = (hi - lo) / n / spread
    return c, sqrt(gamma * (1.0 - gamma) / n) / density


def order_statistic_quantile(values: np.ndarray, gamma: float) -> float:
    """ceil((1-gamma) N)-th order statistic (1-based, no interpolation) of the
    N finite ``values`` of a 1-D array."""
    _check_level(gamma)
    try:
        values = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FuncbandError(f"values must be real numbers: {exc}") from None
    if values.ndim != 1 or values.size == 0:
        raise FuncbandError(f"values must be a nonempty 1-D array, got shape {values.shape}")
    _check_finite("values", values)
    return _sorted_quantile(values, gamma)[0]


def sup_quantile(request: SupQuantileRequest) -> SupQuantileResult:
    values, mass = simulate_sup_norms(request)
    return SupQuantileResult(*_sorted_quantile(values, request.level), clipped_mass=mass)
