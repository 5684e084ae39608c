"""Empirical variance/correlation of smoothed curves, covariance shrinkage,
and the one symmetric square root that every band, test and generator draws
through, which also repairs tables that are not positive semidefinite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVarianceError, FactorizationError, FuncbandError, _check_finite
from .grids import DesignGrid, EvalGrid, FunctionalSample

__all__ = [
    "CovarianceField",
    "CorrelationField",
    "ShrinkageSpec",
    "empirical_variance",
    "empirical_correlation",
    "schafer_strimmer_lambda",
    "shrink_correlation",
    "empirical_data_covariance",
    "psd_repair",
    "correlation_from_covariance",
]

_SYM_TOL = 1e-10
# Eigenvalues at or below this fraction of the largest are rounding noise of
# a rank-deficient table; their square roots (about sqrt(eps)) are zeroed.
_EIG_RTOL = 1e-12


def _check_symmetric(table: np.ndarray, what: str) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise FuncbandError(f"{what} table must be square")
    if not np.all(np.isfinite(table)):
        raise FuncbandError(f"{what} table has non-finite entries")
    scale = max(1.0, float(np.abs(table).max(initial=0.0)))
    if np.abs(table - table.T).max(initial=0.0) > _SYM_TOL * scale:
        raise FuncbandError(f"{what} table is not symmetric")
    return 0.5 * (table + table.T)


@dataclass(frozen=True)
class CovarianceField:
    """Symmetric covariance values C(x_a, x_b) on a grid."""

    grid: EvalGrid | DesignGrid
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _check_symmetric(self.table, "covariance"))
        if self.table.shape[0] != self.grid.n_points:
            raise FuncbandError("covariance table size must match the grid")
        if np.any(np.diag(self.table) < 0):
            raise FuncbandError("covariance diagonal must be nonnegative")


@dataclass(frozen=True)
class CorrelationField:
    """Symmetric correlation values with unit diagonal, entries in [-1,1]."""

    grid: EvalGrid | DesignGrid
    table: np.ndarray

    def __post_init__(self):
        table = _check_symmetric(self.table, "correlation")
        if table.shape[0] != self.grid.n_points:
            raise FuncbandError("correlation table size must match the grid")
        table = np.clip(table, -1.0, 1.0)
        np.fill_diagonal(table, 1.0)
        object.__setattr__(self, "table", table)


@dataclass(frozen=True)
class ShrinkageSpec:
    """Shrinkage toward the identity correlation.

    ``intensity`` is the mixing weight lambda in [0,1]; None means estimate
    it from the data with the analytic (Schafer-Strimmer) formula.
    """

    intensity: float | None = None

    def __post_init__(self):
        if self.intensity is not None and not 0.0 <= self.intensity <= 1.0:
            raise FuncbandError("shrinkage intensity must lie in [0,1]")


def empirical_variance(curves: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """Pointwise sample variance of the rows of ``curves`` with divisor n-1."""
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2:
        raise FuncbandError(f"curves must be an (n, m) array, got shape {curves.shape}")
    n = curves.shape[0]
    if n < 2:
        raise DegenerateVarianceError("variance estimation needs n >= 2 curves")
    if mean is None:
        mean = curves.mean(axis=0)
    dev = curves - mean[None, :]
    return (dev * dev).sum(axis=0) / (n - 1)


def empirical_correlation(
    curves: np.ndarray,
    grid,
    mean: np.ndarray | None = None,
    sigma2: np.ndarray | None = None,
) -> CorrelationField:
    """Empirical correlation of the rows of ``curves`` across grid points."""
    curves = np.asarray(curves, dtype=float)
    if mean is None:
        mean = curves.mean(axis=0)
    if sigma2 is None:
        sigma2 = empirical_variance(curves, mean)
    if np.any(sigma2 <= 0):
        j = int(np.argmin(sigma2))
        raise DegenerateVarianceError(f"zero variance at grid point index {j}")
    table = _shrunk_table((curves - mean) / np.sqrt(sigma2), 0.0)
    return CorrelationField(grid=grid, table=table)


def schafer_strimmer_lambda(curves: np.ndarray) -> float:
    """Analytic shrinkage intensity toward the identity correlation.

    lambda = sum_{a != b} var_hat(r_ab) / sum_{a != b} r_ab^2, clipped to
    [0,1], with var_hat(r_ab) the empirical variance of the products of the
    standardized observations.

    With W = Xs'Xs = (n-1) R and W2 = (Xs^2)'(Xs^2) for the n x m
    standardized curves Xs, var_hat(r_ab) = n (W2_ab - W_ab^2 / n) / (n-1)^3,
    and for n <= m both off-diagonal sums reduce to n x n quantities:
    sum_{a != b} W_ab^2 = ||Xs Xs'||_F^2 - sum_a (col sum of Xs^2)_a^2 and
    sum_{a != b} W2_ab = sum_k (row sum of Xs^2)_k^2 - sum Xs^4.  For n > m
    the m x m sums are taken directly.  The cost is O(n m min(n, m)).
    """
    x = np.asarray(curves, dtype=float)
    n, m = x.shape
    _check_finite("curves", x.T)
    if n < 3:
        return 1.0  # too few curves to estimate the estimator's variance
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    if np.any(sd <= 0):
        raise DegenerateVarianceError("zero variance column in shrinkage input")
    xs = (x - mean[None, :]) / sd[None, :]
    sq = xs * xs
    if n <= m:
        gram = xs @ xs.T
        w_off = float(np.sum(gram * gram)) - float(np.sum(sq.sum(axis=0) ** 2))
        w2_off = float(np.sum(sq.sum(axis=1) ** 2)) - float(np.sum(sq * sq))
    else:   # m x m is the smaller table; summing its off-diagonal cancels nothing
        off = ~np.eye(m, dtype=bool)
        w_off = float(np.sum((xs.T @ xs)[off] ** 2))
        w2_off = float(np.sum((sq.T @ sq)[off]))
    denom = w_off / (n - 1.0) ** 2          # sum_{a != b} r_ab^2
    if denom <= 0:
        return 1.0
    lam = n / (n - 1.0) ** 3 * (w2_off - w_off / n) / denom
    return min(max(lam, 0.0), 1.0)


def _shrinkage_intensity(spec: ShrinkageSpec, curves: np.ndarray | None) -> float:
    """lambda: the spec's intensity, or else the analytic one of ``curves``."""
    if spec.intensity is not None:
        return float(spec.intensity)
    if curves is None:
        raise FuncbandError("data-estimated shrinkage needs the underlying curves")
    return schafer_strimmer_lambda(curves)


def _shrunk_table(xs: np.ndarray, lam: float) -> np.ndarray:
    """(1-lam) R + lam I for the correlation R = Xs'Xs/(n-1) of the n x m standardized
    deviations Xs, entries clipped to [-1,1] and unit diagonal as in ``CorrelationField``."""
    table = np.clip(xs.T @ xs / (len(xs) - 1), -1.0, 1.0)
    table *= 1.0 - lam
    np.fill_diagonal(table, 1.0)
    return table


def shrink_correlation(
    raw: CorrelationField, spec: ShrinkageSpec, curves: np.ndarray | None = None
) -> tuple[CorrelationField, float]:
    """Convex combination (1-lambda) raw + lambda I; returns (field, lambda)."""
    lam = _shrinkage_intensity(spec, curves)
    m = raw.table.shape[0]
    table = (1.0 - lam) * raw.table + lam * np.eye(m)
    return CorrelationField(grid=raw.grid, table=table), lam


def correlation_from_covariance(cov: CovarianceField) -> CorrelationField:
    diag = np.diag(cov.table)
    if np.any(diag <= 0):
        j = int(np.argmin(diag))
        raise DegenerateVarianceError(f"zero variance at grid point index {j}")
    sd = np.sqrt(diag)
    return CorrelationField(grid=cov.grid, table=cov.table / np.outer(sd, sd))


def _centered_curves(sample: FunctionalSample) -> np.ndarray:
    """The curves minus their mean curve; raises unless there are n >= 2."""
    y = sample.values
    if y.shape[0] < 2:
        raise DegenerateVarianceError("covariance estimation needs n >= 2 curves")
    return y - y.mean(axis=0)[None, :]


def empirical_data_covariance(
    sample: FunctionalSample, spec: ShrinkageSpec | None = None
) -> tuple[CovarianceField, float]:
    """Sample covariance of the raw data across units, optionally shrunk.

    Shrinkage acts on the correlation scale (variances preserved).  Returns
    (field, lambda); lambda is 0 when no shrinkage spec is given.
    """
    y = sample.values
    dev = _centered_curves(sample)
    with np.errstate(over="ignore", invalid="ignore"):
        table = dev.T @ dev / (y.shape[0] - 1)
    _check_finite("covariance", table)
    cov = CovarianceField(grid=sample.grid, table=table)
    if spec is None:
        return cov, 0.0
    shrunk, lam = shrink_correlation(correlation_from_covariance(cov), spec, curves=y)
    sd = np.sqrt(np.diag(cov.table))
    return CovarianceField(grid=sample.grid, table=shrunk.table * np.outer(sd, sd)), lam


def psd_repair(table: np.ndarray, correlation: bool = False) -> tuple[np.ndarray, float]:
    """Zero the negative and rounding-level eigenvalues of a symmetric table.

    Returns (L'L, mass) for the root L and the dropped mass of ``_psd_root``;
    for a correlation table the diagonal is one up to rounding.
    """
    root, mass = _psd_root(table, correlation)
    return root.T @ root, mass


def _kept_eigenvalues(vals: np.ndarray) -> tuple[np.ndarray, float]:
    """(keep, mass): the mask of eigenvalues above _EIG_RTOL of the largest,
    and the share of the absolute eigenvalue mass of the others."""
    keep = vals > _EIG_RTOL * max(vals.max(), 0.0)
    total = float(np.abs(vals).sum())
    return keep, float(np.abs(vals[~keep]).sum()) / total if total > 0 else 0.0


def _psd_root(table: np.ndarray, correlation: bool = False) -> tuple[np.ndarray, float]:
    """(L, mass): the symmetric root L = V sqrt(D) V' of the table V D V' with
    the eigenvalues dropped by ``_kept_eigenvalues`` zeroed, and their share
    of the eigenvalue mass.  For a correlation that lost mass, the columns of
    L are rescaled so that L'L has a unit diagonal."""
    vals, vecs = np.linalg.eigh(_check_symmetric(table, "correlation" if correlation else "input"))
    keep, mass = _kept_eigenvalues(vals)
    root = (vecs * np.sqrt(np.where(keep, vals, 0.0))[None, :]) @ vecs.T
    if correlation and mass > 0.0:
        d = np.sqrt((root * root).sum(axis=0))
        if np.any(d <= 0):
            raise DegenerateVarianceError("repair zeroed a correlation diagonal entry")
        root = root / d[None, :]
    if not np.all(np.isfinite(root)):
        raise FactorizationError("square root contains non-finite entries")
    return root, mass
