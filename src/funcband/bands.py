"""Simultaneous confidence bands: normal, bootstrap, two-sample, prediction.

All bands have the form center(x) +/- threshold * scale(x); for the mean
regression band the scale is sigma_hat(x)/sqrt(n) and the threshold is the
Monte-Carlo sup-norm quantile of a centered Gaussian process with the shrunk
empirical correlation of the smoothed curves.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import sqrt
from typing import Sequence

import numpy as np

from .errors import (DegenerateVarianceError, FuncbandError, GridError, IllPosedBandwidthError,
                     SampleValidationError, _as_float_array, _check_finite, _check_int,
                     _check_type)
from .grids import EvalGrid, FunctionalSample, _opened
from .moments import _shrunk_table, _unit_correlation, empirical_variance, schafer_strimmer_lambda
from .smoothing import _BANDWIDTH_ERRORS, _bandwidth, _bandwidth_candidates, fit_mean
from .supnorm import (
    SupQuantileRequest,
    _ThinRoot,
    _blas_held,
    _check_draws,
    _check_level,
    _sorted_quantile,
    default_path_count,
    map_philox_chunks,
    simulate_sup_norms,
)

__all__ = [
    "BandResult",
    "TwoSampleResult",
    "normal_scb",
    "bootstrap_scb",
    "two_sample_scb",
    "prediction_band",
    "split_half_bandwidth",
    "band_covers",
]


@dataclass(frozen=True, eq=False)
class BandResult:
    """A simultaneous band: center +/- half_width at confidence ``level``."""

    grid: EvalGrid
    center: np.ndarray
    half_width: np.ndarray
    threshold: float
    level: float
    method: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_type("grid", self.grid, EvalGrid, GridError)
        for name in ("center", "half_width"):
            object.__setattr__(self, name, _as_float_array(name, getattr(self, name)))
        if self.center.shape != (self.grid.n_points,):
            raise FuncbandError("band center must match the grid size")
        if self.half_width.shape != self.center.shape:
            raise FuncbandError("band half width must match the center")
        if np.any(self.half_width < 0):
            raise FuncbandError("band half width must be nonnegative")

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    def covers(self, values: np.ndarray) -> bool:
        return band_covers(self, values)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "method": self.method,
            "threshold": self.threshold,
            "grid": self.grid.points.tolist(),
            "center": self.center.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
        }

    def write_csv(self, path_or_file) -> None:
        if self.grid.dim != 1:
            raise GridError("band CSV output supports d=1 only")
        with _opened(path_or_file, "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "center", "lower", "upper"])
            for x, c, lo, up in zip(self.grid.points, self.center, self.lower, self.upper):
                writer.writerow([repr(float(x)), repr(float(c)), repr(float(lo)), repr(float(up))])


def band_covers(band: BandResult, values: np.ndarray) -> bool:
    """True iff the curve lies within the band at every grid point."""
    _check_type("band", band, BandResult)
    values = _as_float_array("values", values)
    if values.shape != band.center.shape:
        raise FuncbandError(f"curve of shape {values.shape} does not match the band's "
                            f"grid of shape {band.center.shape}")
    dev = np.abs(values - band.center)
    return bool(np.all(dev <= band.half_width))


def _checked_variance(mean_fit) -> np.ndarray:
    """sigma_hat^2 of the smoothed curves; needs n >= 2 and a finite, nonzero
    variance everywhere."""
    if mean_fit.curves.shape[0] < 2:
        raise DegenerateVarianceError("band construction needs n >= 2 curves")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2 = empirical_variance(mean_fit.curves, mean_fit.mean)
    _check_finite("variance", sigma2)
    if np.any(sigma2 <= 0):
        j = int(np.argmin(sigma2))
        raise DegenerateVarianceError(f"zero variance at evaluation point index {j}")
    return sigma2


# The thin draw divides by sqrt(lambda), so it is taken only for shrinkage
# intensities at or above this floor; below it the same root is applied dense.
_THIN_MIN_LAMBDA = 1e-6


def _curve_root(curves: np.ndarray, mean: np.ndarray, sigma: np.ndarray, lam: float):
    """The root of the correlation of n ``curves`` on m points shrunk with
    intensity ``lam``, from one thin SVD: drawn thin for 2n < m and
    lam >= _THIN_MIN_LAMBDA, else as its ``dense()`` matrix root, as two
    k x m x n products would save little over one k x m x m."""
    root = _ThinRoot(curves, mean, sigma, lam)
    n, m = curves.shape
    return root if 2 * n < m and lam >= _THIN_MIN_LAMBDA else root.dense()


def _band(method, eval, center, sigma, divisor, sups, gamma, h, kernel, seed, **details):
    """The band center +/- c sigma / divisor, with c the order-statistic
    quantile of the sup-norm draws ``sups`` (sorted here in place); ``details``
    gains the provenance (``h`` as recorded by the caller, one ``_bandwidth``
    tuple or a pair of them) and c's standard error."""
    c, se = _sorted_quantile(sups, gamma)
    details = {"h": h, "kernel": kernel, "seed": seed, **details, "threshold_stderr": se}
    return BandResult(eval, center, c * sigma / divisor, c, 1.0 - gamma, method, details)


def _gaussian_bands(method, parts, divisor, gamma, paths, p, seed, kernel) -> list:
    """The band center +/- c sigma / divisor on ``eval`` of each part (eval, center,
    sigma, corr, lam, h), c drawn for the Gaussian process with correlation ``corr``
    (a table or a root) in one ``simulate_sup_norms`` call.  ``divisor`` is sqrt(n)
    for a mean band, 1.0 for a prediction band; ``paths`` defaults by design size p."""
    n_paths = paths if paths is not None else default_path_count(p)
    drawn = simulate_sup_norms(*(SupQuantileRequest(corr, gamma, n_paths, seed)
                                 for _, _, _, corr, _, _ in parts))
    return [_band(method, eval, center, sigma, divisor, sups, gamma, h, kernel, seed,
                  paths=n_paths, shrinkage_lambda=lam, clipped_mass=mass)
            for (eval, center, sigma, _, lam, h), (sups, mass)
            in zip(parts, drawn if len(parts) > 1 else [drawn])]


def _curve_part(sample, eval, h, kernel, plan=None) -> tuple:
    """The ``_gaussian_bands`` part of mu_hat +/- c sigma_hat / divisor on ``eval``
    built from the smoothed curves of ``sample``, drawn through their ``_curve_root``;
    the smoother is read from ``plan`` when one is given."""
    mean_fit = fit_mean(sample, eval, h, kernel, plan)
    sigma = np.sqrt(_checked_variance(mean_fit))
    lam = schafer_strimmer_lambda(mean_fit.curves)
    root = _curve_root(mean_fit.curves, mean_fit.mean, sigma, lam)
    return eval, mean_fit.mean, sigma, root, lam, _bandwidth(h, eval.dim)


@_blas_held
def normal_scb(
    sample: FunctionalSample,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
    gamma: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
    _plan=None,
) -> BandResult:
    """Gaussian-limit simultaneous band for the mean curve.  ``_plan``, a
    ``smoothing._Plan`` of the sample's design grid, ``eval``, h and kernel,
    supplies the smoother instead of building it here."""
    return _gaussian_bands("normal", [_curve_part(sample, eval, h, kernel, _plan)],
                           sqrt(sample.n_curves), gamma, paths, sample.n_points, seed, kernel)[0]


_BOOT_CHUNK = 512
_BOOT_ATTEMPTS = 100
# A resample whose (n-1) var* lies below this fraction of its centred sum of
# squares at some point is rechecked directly: the count-matrix form of var*
# carries a rounding error of a few ulps of that sum, so above this fraction
# its relative error stays near 1e-14.
_BOOT_VAR_RTOL = 1e-2


def _resample_z(curves, mean, powers, idx, buffers):
    """z* of each resample (row of ``idx``) and a mask of the degenerate ones,
    where every resampled curve has the same value at some point, computed in
    the first rows of ``buffers`` (sums, ratio).

    With S1 = C X, S2 = C X^2 and q = S2 / S1^2 at each point,
    (mu* - mu_hat)^2 / var* = (n-1) / (n (n q - 1)), so
    z* = sqrt((n-1) / (n r - 1)) for r = min q.  The flag
    (n-1) var* <= rtol S2 reads r <= 1 / ((1 - rtol) n); a NaN r
    (S1 = S2 = 0 at some point) is flagged too."""
    k, n = idx.shape
    counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
    sums, ratio = (b[:k] for b in buffers)
    np.matmul(counts.reshape(k, n).astype(float), powers, out=sums)
    m = mean.size
    np.square(sums[:, :m], out=ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(sums[:, m:], ratio, out=ratio).min(axis=1)
    flagged = ~(r > 1.0 / ((1.0 - _BOOT_VAR_RTOL) * n))
    z = np.sqrt((n - 1) / (n * np.where(flagged, 1.0, r) - 1))
    near = np.flatnonzero(flagged)
    degenerate = np.zeros(k, dtype=bool)
    if near.size:
        boot = curves[idx[near]]
        degenerate[near] = dead = np.any(np.all(boot == boot[:, :1], axis=1), axis=1)
        boot = boot[~dead]
        z[near[~dead]] = sqrt(n) * np.max(
            np.abs(boot.mean(axis=1) - mean) / boot.std(axis=1, ddof=1), axis=1)
    return z, degenerate


def _bootstrap_sup_stats(curves, mean, bootstraps, seed):
    """Bootstrap z* values and the number of degenerate-resample redraws.

    Each chunk of at most 512 resamples draws its index rows in one call on
    its Philox substream; degenerate rows are then redrawn, in row order,
    from the same generator, up to 100 draws per resample in all."""
    n, m = curves.shape
    dev = curves - mean[None, :]
    powers = np.hstack([dev, dev * dev])           # [X, X^2], X centred at mu_hat
    shape = (min(_BOOT_CHUNK, bootstraps), m)      # one set of buffers for every chunk
    buffers = (np.empty((shape[0], 2 * m)), np.empty(shape))

    def draw(rng, k, _start):
        z, bad = _resample_z(curves, mean, powers, rng.integers(0, n, size=(k, n)), buffers)
        rows = np.flatnonzero(bad)
        redraws = 0
        for _ in range(_BOOT_ATTEMPTS - 1):
            if not rows.size:
                break
            redraws += rows.size
            z[rows], bad = _resample_z(curves, mean, powers,
                                       rng.integers(0, n, size=(rows.size, n)), buffers)
            rows = rows[bad]
        if rows.size:
            raise DegenerateVarianceError(
                f"bootstrap resample had zero variance {_BOOT_ATTEMPTS} times in a row")
        return z, redraws

    parts = map_philox_chunks(bootstraps, _BOOT_CHUNK, seed, draw)
    return np.concatenate([z for z, _ in parts]), sum(r for _, r in parts)


def bootstrap_scb(
    sample: FunctionalSample,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
    gamma: float = 0.05,
    bootstraps: int = 2500,
    seed: int = 0,
    _plan=None,
) -> BandResult:
    """Naive bootstrap band: resample the smoothed curves with replacement,
    take the order-statistic quantile of z* = sqrt(n) || (mu* - mu_hat) / sigma* ||_inf.

    Resamples are drawn in chunks of at most 512 on per-chunk Philox
    substreams.  A chunk of k resamples becomes a k x n count matrix C, and
    with X = curves - mu_hat, S1 = C X and S2 = C X^2, one GEMM fills the
    k x 2m buffer [S1, S2]; a second k x m buffer holds r = S2 / S1^2 per
    point, and z* = sqrt((n-1) / (n min r - 1)), since
    mu* - mu_hat = S1/n and (n-1) var* = S2 - S1^2/n.  Resamples close to
    zero variance are recomputed directly; those with an exactly constant
    point are redrawn.  It needs n >= 3 curves: a resample of two curves
    either repeats one of them, and is redrawn, or permutes them, so z* = 0.
    ``details`` reports the threshold's standard error and the redraw count;
    ``_plan`` supplies the smoother, as in ``normal_scb``.
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    _check_level(gamma)
    _check_int("seed", seed)
    _check_draws("bootstraps", bootstraps, sample.n_curves)
    if sample.n_curves < 3:
        raise DegenerateVarianceError(f"the bootstrap band needs n >= 3 curves, got "
                                      f"n={sample.n_curves}: a resample of fewer curves either "
                                      f"repeats one of them or permutes them")
    mean_fit = fit_mean(sample, eval, h, kernel, _plan)
    sigma = np.sqrt(_checked_variance(mean_fit))
    z_star, redraws = _bootstrap_sup_stats(mean_fit.curves, mean_fit.mean, bootstraps, seed)
    return _band("bootstrap", eval, mean_fit.mean, sigma, sqrt(sample.n_curves), z_star, gamma,
                 _bandwidth(h, eval.dim), kernel, seed, bootstraps=bootstraps, redraws=redraws)


@dataclass(frozen=True, eq=False)
class TwoSampleResult:
    band: BandResult
    reject: bool


@_blas_held
def two_sample_scb(
    sample_a: FunctionalSample,
    sample_b: FunctionalSample,
    eval: EvalGrid,
    h_a,
    h_b=None,
    kernel: str = "epanechnikov",
    alpha: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
) -> TwoSampleResult:
    """Band for the difference of two mean curves; rejects equality iff the
    zero line exits the band somewhere.  ``details`` records one h and one
    lambda per sample."""
    _check_type("sample_a", sample_a, FunctionalSample, SampleValidationError)
    _check_type("sample_b", sample_b, FunctionalSample, SampleValidationError)
    if sample_a.grid.n_points != sample_b.grid.n_points or not np.allclose(
        sample_a.grid.points, sample_b.grid.points
    ):
        raise GridError("the two samples must share a common design grid")
    if h_b is None:
        h_b = h_a
    fits, covs, lams = [], [], []
    for sample, h in ((sample_a, h_a), (sample_b, h_b)):
        mean_fit = fit_mean(sample, eval, h, kernel)
        sigma = np.sqrt(_checked_variance(mean_fit))
        lam = schafer_strimmer_lambda(mean_fit.curves)
        corr = _shrunk_table((mean_fit.curves - mean_fit.mean) / sigma, lam)
        cov = corr * np.outer(sigma, sigma) / sample.n_curves
        fits.append(mean_fit)
        covs.append(cov)
        lams.append(lam)
    diff_cov = covs[0] + covs[1]
    sd = np.sqrt(np.diag(diff_cov))
    center = fits[0].mean - fits[1].mean
    hs = tuple(_bandwidth(h, eval.dim) for h in (h_a, h_b))
    part = (eval, center, sd, _unit_correlation(diff_cov / np.outer(sd, sd)), tuple(lams), hs)
    band, = _gaussian_bands("two-sample", [part], 1.0, alpha, paths, sample_a.n_points, seed,
                            kernel)
    reject = bool(np.any(np.abs(center) > band.half_width))
    return TwoSampleResult(band=band, reject=reject)


def prediction_band(
    sample: FunctionalSample,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
    gamma: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
) -> BandResult:
    """Band intended to contain a new curve: mu_hat +/- c sigma_hat (no sqrt(n))."""
    return _prediction_bands(sample, [eval], h, kernel, gamma, paths, seed)[0]


@_blas_held
def _prediction_bands(sample, grids, h, kernel, gamma, paths, seed) -> list:
    """The ``prediction_band`` on each of ``grids``, from one draw of Gaussian
    paths: the widest root's band is its own ``prediction_band``, and a narrower
    root reads the first columns of the same normals (common random numbers)."""
    return _gaussian_bands("prediction", [_curve_part(sample, g, h, kernel) for g in grids],
                           1.0, gamma, paths, sample.n_points, seed, kernel)


@_blas_held
def split_half_bandwidth(
    sample: FunctionalSample,
    candidates: Sequence,
    gamma: float = 0.05,
    kernel: str = "epanechnikov",
    paths: int | None = None,
    seed: int = 0,
):
    """Split the training curves in half, build a prediction band on the first
    half per candidate bandwidth, and return the candidate whose coverage of
    the second half is closest to the target level (ties to the smaller h).
    The candidates are compared on common random numbers: their bands share
    one draw of the Gaussian paths, each equal to its own ``prediction_band``.
    A candidate is skipped only where the smoother is ill-posed or singular, and
    none left raises IllPosedBandwidthError, as in ``cv_bandwidth``."""
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    _check_int("seed", seed)
    _check_level(gamma)
    if paths is not None:
        _check_draws("paths", paths, sample.n_points, 100)
    n = sample.n_curves
    if n < 4:
        raise FuncbandError("split-half selection needs n >= 4 curves")
    cands = _bandwidth_candidates(candidates, sample.grid.dim)
    half = n // 2
    build = FunctionalSample(grid=sample.grid, values=sample.values[:half])
    holdout = sample.values[half:]
    parts = []
    for b in cands:
        try:
            parts.append(_curve_part(build, sample.grid, b, kernel))
        except _BANDWIDTH_ERRORS:
            continue
    if not parts:
        raise IllPosedBandwidthError("no candidate bandwidth was usable")
    built = _gaussian_bands("prediction", parts, 1.0, gamma, paths, build.n_points, seed, kernel)
    coverages = {part[5]: float(np.mean([band.covers(row) for row in holdout]))
                 for part, band in zip(parts, built)}
    return min(coverages, key=lambda b: abs(coverages[b] - (1.0 - gamma))), coverages
