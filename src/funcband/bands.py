"""Simultaneous confidence bands: normal, bootstrap, two-sample, prediction.

All bands have the form center(x) +/- threshold * scale(x); for the mean
regression band the scale is sigma_hat(x)/sqrt(n) and the threshold is the
Monte-Carlo sup-norm quantile of a centered Gaussian process with the shrunk
empirical correlation of the smoothed curves.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from math import sqrt
from typing import Sequence

import numpy as np

from .errors import DegenerateVarianceError, FuncbandError, GridError, _check_finite, _check_int
from .grids import EvalGrid, FunctionalSample
from .moments import (
    CovarianceField,
    ShrinkageSpec,
    empirical_variance,
    correlation_from_covariance,
    _shrinkage_intensity,
    _shrunk_table,
)
from .smoothing import Bandwidth, Kernel, epanechnikov, fit_mean
from .supnorm import (
    SupQuantileRequest,
    _MatrixRoot,
    _ThinRoot,
    _check_draws,
    _check_level,
    _quantile_stderr,
    _sup_quantile_of,
    default_path_count,
    map_philox_chunks,
    order_statistic_quantile,
    simulate_sup_norms,
    sup_quantile,
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


@dataclass(frozen=True)
class BandResult:
    """A simultaneous band: center +/- half_width at confidence ``level``."""

    grid: EvalGrid
    center: np.ndarray
    half_width: np.ndarray
    threshold: float
    level: float
    method: str
    details: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def write_csv(self, path_or_file) -> None:
        if self.grid.dim != 1:
            raise GridError("band CSV output supports d=1 only")

        def _write(fh):
            writer = csv.writer(fh)
            writer.writerow(["x", "center", "lower", "upper"])
            for x, c, lo, up in zip(self.grid.points, self.center, self.lower, self.upper):
                writer.writerow([repr(float(x)), repr(float(c)), repr(float(lo)), repr(float(up))])

        if hasattr(path_or_file, "write"):
            _write(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                _write(fh)


def band_covers(band: BandResult, values: np.ndarray) -> bool:
    """True iff the curve lies within the band at every grid point."""
    values = np.asarray(values, dtype=float)
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


# The thin root is taken only for shrinkage intensities at or above this:
# every eigenvalue of the shrunk table is then at least lambda, far above
# moments._EIG_RTOL and eigh's rounding, so the dense root would drop nothing.
_THIN_MIN_LAMBDA = 1e-6


def _curve_root(curves: np.ndarray, mean: np.ndarray, sigma: np.ndarray, lam: float):
    """The root of the correlation of n ``curves`` on m points shrunk with
    intensity ``lam``: thin for 2n < m and lam >= _THIN_MIN_LAMBDA, else the
    dense root, as two k x m x n products would save little over one k x m x m."""
    n, m = curves.shape
    if 2 * n < m and lam >= _THIN_MIN_LAMBDA:
        return _ThinRoot(curves, mean, sigma, lam)
    return _MatrixRoot.of(_shrunk_table((curves - mean) / sigma, lam))


def _provenance(h, kernel, seed, **extra) -> dict:
    d = {"h": Bandwidth.of(h, 1).values if np.isscalar(h) or isinstance(h, Bandwidth) else h,
         "kernel": (kernel or epanechnikov()).name,
         "seed": seed}
    d.update(extra)
    return d


def _gaussian_parts(method, eval, center, sigma, corr, divisor, gamma, paths, p, seed,
                    h, kernel, lam):
    """The sup-norm request of the Gaussian band center +/- c sigma / divisor,
    with c the Monte-Carlo sup-norm quantile of the Gaussian process with
    correlation ``corr`` (a table or a root), and the function that makes
    the band from the request's ``SupQuantileResult``.
    ``divisor`` is sqrt(n) for a mean band and 1.0 for a prediction band, and
    ``paths`` defaults by the design size ``p``."""
    n_paths = paths if paths is not None else default_path_count(p)

    def band(res) -> BandResult:
        details = _provenance(h, kernel, seed, paths=n_paths, shrinkage_lambda=lam,
                              clipped_mass=res.clipped_mass, threshold_stderr=res.stderr)
        return BandResult(eval, center, res.threshold * sigma / divisor, res.threshold,
                          1.0 - gamma, method, details)

    return SupQuantileRequest(corr, gamma, n_paths, seed), band


def _gaussian_band(*args) -> BandResult:
    request, band = _gaussian_parts(*args)
    return band(sup_quantile(request))


def _curve_parts(method, divisor, sample, eval, h, kernel, gamma, paths, seed, shrinkage):
    """``_gaussian_parts`` of the band mu_hat +/- c sigma_hat / divisor built
    from the smoothed curves of ``sample``, drawn through their ``_curve_root``."""
    mean_fit = fit_mean(sample, eval, h, kernel)
    sigma = np.sqrt(_checked_variance(mean_fit))
    lam = _shrinkage_intensity(shrinkage, mean_fit.curves)
    root = _curve_root(mean_fit.curves, mean_fit.mean, sigma, lam)
    return _gaussian_parts(method, eval, mean_fit.mean, sigma, root, divisor, gamma, paths,
                           sample.n_points, seed, h, kernel, lam)


def normal_scb(
    sample: FunctionalSample,
    eval: EvalGrid,
    h,
    kernel: Kernel | None = None,
    gamma: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
    shrinkage: ShrinkageSpec = ShrinkageSpec(),
) -> BandResult:
    """Gaussian-limit simultaneous band for the mean curve."""
    request, band = _curve_parts("normal", sqrt(sample.n_curves), sample, eval, h, kernel,
                                 gamma, paths, seed, shrinkage)
    return band(sup_quantile(request))


_BOOT_CHUNK = 512
_BOOT_ATTEMPTS = 100
# A resample whose (n-1) var* lies below this fraction of its centred sum of
# squares at some point is rechecked directly: the count-matrix form of var*
# carries a rounding error of a few ulps of that sum, so above this fraction
# its relative error stays near 1e-14.
_BOOT_VAR_RTOL = 1e-2


def _resample_z(curves, mean, powers, idx):
    """z* of each resample (row of ``idx``) and a mask of the degenerate ones,
    where every resampled curve has the same value at some point."""
    k, n = idx.shape
    counts = np.bincount((idx + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
    sums = counts.reshape(k, n).astype(float) @ powers
    m = mean.size
    dev = sums[:, :m] / n                            # mu* - mu_hat
    ss = sums[:, m:] - sums[:, :m] * dev             # (n-1) var*
    near = np.flatnonzero(np.any(ss <= _BOOT_VAR_RTOL * sums[:, m:], axis=1))
    degenerate = np.zeros(k, dtype=bool)
    if near.size:
        boot = curves[idx[near]]
        degenerate[near] = np.any(np.all(boot == boot[:, :1], axis=1), axis=1)
        dev[near] = boot.mean(axis=1) - mean
        ss[near] = boot.var(axis=1, ddof=1) * (n - 1)
        ss[degenerate] = np.inf
    z = sqrt(n) * np.max(np.abs(dev) / np.sqrt(ss / (n - 1)), axis=1)
    return z, degenerate


def _bootstrap_sup_stats(curves, mean, bootstraps, seed):
    """Bootstrap z* values and the number of degenerate-resample redraws.

    Each chunk of at most 512 resamples draws its index rows in one call on
    its Philox substream; degenerate rows are then redrawn, in row order,
    from the same generator, up to 100 draws per resample in all."""
    n = curves.shape[0]
    dev = curves - mean[None, :]
    powers = np.hstack([dev, dev * dev])           # [X, X^2], X centred at mu_hat

    def draw(rng, k):
        z, bad = _resample_z(curves, mean, powers, rng.integers(0, n, size=(k, n)))
        rows = np.flatnonzero(bad)
        redraws = 0
        for _ in range(_BOOT_ATTEMPTS - 1):
            if not rows.size:
                break
            redraws += rows.size
            z[rows], bad = _resample_z(curves, mean, powers,
                                       rng.integers(0, n, size=(rows.size, n)))
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
    kernel: Kernel | None = None,
    gamma: float = 0.05,
    bootstraps: int = 2500,
    seed: int = 0,
) -> BandResult:
    """Naive bootstrap band: resample the smoothed curves with replacement,
    take the order-statistic quantile of z* = sqrt(n) || (mu* - mu_hat) / sigma* ||_inf.

    Resamples are drawn in chunks of at most 512 on per-chunk Philox
    substreams.  A chunk of k resamples becomes a k x n count matrix C, and
    with X = curves - mu_hat, mu* - mu_hat = (C X)/n and
    (n-1) var* = C X^2 - (C X)^2/n.  Resamples close to zero variance are
    recomputed directly; those with an exactly constant point are redrawn.
    ``details`` reports the threshold's standard error and the redraw count.
    """
    _check_level(gamma)
    _check_int("seed", seed)
    _check_draws("bootstraps", bootstraps, sample.n_curves)
    mean_fit = fit_mean(sample, eval, h, kernel)
    sigma = np.sqrt(_checked_variance(mean_fit))
    z_star, redraws = _bootstrap_sup_stats(mean_fit.curves, mean_fit.mean, bootstraps, seed)
    z_star.sort()
    c = order_statistic_quantile(z_star, gamma)
    return BandResult(
        grid=eval,
        center=mean_fit.mean,
        half_width=c * sigma / sqrt(sample.n_curves),
        threshold=c,
        level=1.0 - gamma,
        method="bootstrap",
        details=_provenance(h, kernel, seed, bootstraps=bootstraps,
                            threshold_stderr=_quantile_stderr(z_star, gamma),
                            redraws=redraws),
    )


@dataclass(frozen=True)
class TwoSampleResult:
    band: BandResult
    reject: bool


def two_sample_scb(
    sample_a: FunctionalSample,
    sample_b: FunctionalSample,
    eval: EvalGrid,
    h_a,
    h_b=None,
    kernel: Kernel | None = None,
    alpha: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
    shrinkage: ShrinkageSpec = ShrinkageSpec(),
) -> TwoSampleResult:
    """Band for the difference of two mean curves; rejects equality iff the
    zero line exits the band somewhere."""
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
        lam = _shrinkage_intensity(shrinkage, mean_fit.curves)
        corr = _shrunk_table((mean_fit.curves - mean_fit.mean) / sigma, lam)
        cov = corr * np.outer(sigma, sigma) / sample.n_curves
        fits.append(mean_fit)
        covs.append(cov)
        lams.append(lam)
    diff_cov = covs[0] + covs[1]
    corr_diff = correlation_from_covariance(CovarianceField(grid=eval, table=diff_cov))
    center = fits[0].mean - fits[1].mean
    band = _gaussian_band("two-sample", eval, center, np.sqrt(np.diag(diff_cov)), corr_diff,
                          1.0, alpha, paths, sample_a.n_points, seed, (h_a, h_b), kernel,
                          tuple(lams))
    reject = bool(np.any(np.abs(center) > band.half_width))
    return TwoSampleResult(band=band, reject=reject)


def prediction_band(
    sample: FunctionalSample,
    eval: EvalGrid,
    h,
    kernel: Kernel | None = None,
    gamma: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
    shrinkage: ShrinkageSpec = ShrinkageSpec(),
) -> BandResult:
    """Band intended to contain a new curve: mu_hat +/- c sigma_hat (no sqrt(n))."""
    request, band = _curve_parts("prediction", 1.0, sample, eval, h, kernel, gamma, paths,
                                 seed, shrinkage)
    return band(sup_quantile(request))


def split_half_bandwidth(
    sample: FunctionalSample,
    candidates: Sequence,
    gamma: float = 0.05,
    kernel: Kernel | None = None,
    paths: int | None = None,
    seed: int = 0,
    shrinkage: ShrinkageSpec = ShrinkageSpec(),
):
    """Split the training curves in half, build a prediction band on the first
    half per candidate bandwidth, and return the candidate whose coverage of
    the second half is closest to the target level (ties to the smaller h).
    The candidates are compared on common random numbers: their bands share
    one draw of the Gaussian paths, each equal to its own ``prediction_band``."""
    _check_int("seed", seed)
    _check_level(gamma)
    if paths is not None:
        _check_draws("paths", paths, sample.n_points, 100)
    n = sample.n_curves
    if n < 4:
        raise FuncbandError("split-half selection needs n >= 4 curves")
    cands = sorted({Bandwidth.of(c, sample.grid.dim).values for c in candidates})
    if not cands:
        raise FuncbandError("empty candidate bandwidth list")
    half = n // 2
    build = FunctionalSample(grid=sample.grid, values=sample.values[:half])
    holdout = sample.values[half:]
    eval = sample.grid.as_eval()
    pending = []
    for b in cands:
        try:
            request, band = _curve_parts("prediction", 1.0, build, eval, b, kernel, gamma,
                                         paths, seed, shrinkage)
        except FuncbandError:
            continue
        pending.append((b, request, band))
    if not pending:
        raise FuncbandError("no candidate bandwidth was usable")
    drawn = simulate_sup_norms(*(request for _, request, _ in pending))
    coverages = {}
    for (b, request, band), sups in zip(pending, drawn if len(pending) > 1 else [drawn]):
        band = band(_sup_quantile_of(request, *sups))
        coverages[b] = float(np.mean([band.covers(row) for row in holdout]))
    return Bandwidth(min(coverages, key=lambda b: abs(coverages[b] - (1.0 - gamma)))), coverages
