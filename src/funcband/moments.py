"""Empirical variance/correlation of smoothed curves, covariance shrinkage,
and the one symmetric square root of a table, which also repairs tables that
are not positive semidefinite."""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateVarianceError, FactorizationError, FuncbandError,
                     SampleValidationError, _as_float_array, _check_finite, _check_type)
from .grids import FunctionalSample

__all__ = [
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
    table = _as_float_array(what, table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise FuncbandError(f"{what} table must be square")
    if not np.all(np.isfinite(table)):
        raise FuncbandError(f"{what} table has non-finite entries")
    scale = max(1.0, float(np.abs(table).max(initial=0.0)))
    if np.abs(table - table.T).max(initial=0.0) > _SYM_TOL * scale:
        raise FuncbandError(f"{what} table is not symmetric")
    return 0.5 * (table + table.T)


def _check_covariance(table: np.ndarray, size: int | None = None,
                      what: str = "covariance") -> np.ndarray:
    """A caller's covariance or correlation table, symmetrized by
    ``_check_symmetric``; raises unless it also has ``size`` rows (when given)
    and a nonnegative diagonal."""
    table = _check_symmetric(table, what)
    if size is not None and table.shape[0] != size:
        raise FuncbandError(f"{what} table size must match the grid")
    if np.any(np.diag(table) < 0):
        raise FuncbandError(f"{what} diagonal must be nonnegative")
    return table


def _unit_correlation(table: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """A copy of (1-lam) R + lam I, R the table with entries clipped to [-1,1]
    and a unit diagonal."""
    table = np.clip(table, -1.0, 1.0)
    table *= 1.0 - lam
    np.fill_diagonal(table, 1.0)
    return table


def _curve_array(curves) -> np.ndarray:
    """``curves`` as an (n, m) float array, or a FuncbandError naming it."""
    curves = _as_float_array("curves", curves)
    if curves.ndim != 2:
        raise FuncbandError(f"curves must be an (n, m) array, got shape {curves.shape}")
    return curves


def _point_values(name: str, values, curves: np.ndarray) -> np.ndarray:
    """A caller's per-point ``values`` (a mean or a variance) for ``curves``,
    as an (m,) float array, or a FuncbandError naming it."""
    values = _as_float_array(name, values)
    if values.shape != curves.shape[1:]:
        raise FuncbandError(f"{name} must have shape {curves.shape[1:]}, got shape {values.shape}")
    return values


def empirical_variance(curves: np.ndarray, mean: np.ndarray | None = None) -> np.ndarray:
    """Pointwise sample variance of the rows of ``curves`` with divisor n-1."""
    curves = _curve_array(curves)
    n = curves.shape[0]
    if n < 2:
        raise DegenerateVarianceError("variance estimation needs n >= 2 curves")
    mean = curves.mean(axis=0) if mean is None else _point_values("mean", mean, curves)
    dev = curves - mean[None, :]
    return (dev * dev).sum(axis=0) / (n - 1)


def empirical_correlation(
    curves: np.ndarray,
    mean: np.ndarray | None = None,
    sigma2: np.ndarray | None = None,
) -> np.ndarray:
    """Empirical correlation table of the rows of ``curves`` across grid points."""
    curves = _curve_array(curves)
    mean = curves.mean(axis=0) if mean is None else _point_values("mean", mean, curves)
    sigma2 = (empirical_variance(curves, mean) if sigma2 is None
              else _point_values("sigma2", sigma2, curves))
    if np.any(sigma2 <= 0):
        j = int(np.argmin(sigma2))
        raise DegenerateVarianceError(f"zero variance at grid point index {j}")
    return _shrunk_table((curves - mean) / np.sqrt(sigma2), 0.0)


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
    x = _curve_array(curves)
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


def _shrunk_table(xs: np.ndarray, lam: float) -> np.ndarray:
    """``_unit_correlation`` (1-lam) R + lam I for the correlation R = Xs'Xs/(n-1)
    of the n x m standardized deviations Xs."""
    return _unit_correlation(xs.T @ xs / (len(xs) - 1), lam)


def shrink_correlation(raw: np.ndarray, curves: np.ndarray) -> tuple[np.ndarray, float]:
    """Convex combination (1-lambda) raw + lambda I of the correlation table
    ``raw`` (clipped to [-1,1], unit diagonal), with lambda the analytic
    intensity of ``curves``; returns (table, lambda)."""
    raw = _check_covariance(raw, what="correlation")
    lam = schafer_strimmer_lambda(curves)
    return _unit_correlation(raw, lam), lam


def correlation_from_covariance(table: np.ndarray) -> np.ndarray:
    """The correlation table C_ab / sqrt(C_aa C_bb) of a covariance table."""
    table = _check_covariance(table)
    diag = np.diag(table)
    if np.any(diag <= 0):
        j = int(np.argmin(diag))
        raise DegenerateVarianceError(f"zero variance at grid point index {j}")
    sd = np.sqrt(diag)
    return _unit_correlation(table / np.outer(sd, sd))


def _centered_curves(sample: FunctionalSample) -> np.ndarray:
    """The curves minus their mean curve; raises unless there are n >= 2."""
    y = sample.values
    if y.shape[0] < 2:
        raise DegenerateVarianceError("covariance estimation needs n >= 2 curves")
    return y - y.mean(axis=0)[None, :]


def empirical_data_covariance(
    sample: FunctionalSample, shrinkage: bool = False
) -> tuple[np.ndarray, float]:
    """Sample covariance table of the raw data across units, optionally shrunk.

    Shrinkage acts on the correlation scale (variances preserved), with the
    analytic intensity of the curves.  Returns (table, lambda); lambda is 0
    without shrinkage.
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    _check_type("shrinkage", shrinkage, bool)
    y = sample.values
    dev = _centered_curves(sample)
    with np.errstate(over="ignore", invalid="ignore"):
        table = dev.T @ dev / (y.shape[0] - 1)
    _check_finite("covariance", table)
    if not shrinkage:
        return table, 0.0
    # a correlation of a checked table: shrinking it needs no second check
    corr = correlation_from_covariance(table)
    lam = schafer_strimmer_lambda(y)
    sd = np.sqrt(np.diag(table))
    return _unit_correlation(corr, lam) * np.outer(sd, sd), lam


def psd_repair(table: np.ndarray, correlation: bool = False) -> tuple[np.ndarray, float]:
    """Zero the negative and rounding-level eigenvalues of a symmetric table.

    Returns (L'L, mass) for the root L and the dropped mass of ``_psd_root``;
    for a correlation table the diagonal is one up to rounding.
    """
    _check_type("correlation", correlation, bool)
    root, mass = _psd_root(_as_float_array("table", table), correlation)
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
    vals, vecs = np.linalg.eigh(_check_covariance(table, what="correlation") if correlation
                                else _check_symmetric(table, "input"))
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
