"""Kernels, local linear weights, and curve smoothing.

The local linear estimate at x is the intercept of a kernel-weighted least
squares line (plane for d=2) fit through the data; it can be written as a
weighted average sum_j W_j(x) y_j whose weights sum to one and reproduce
linear functions exactly.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import (GridError, IllPosedBandwidthError, SampleValidationError, SingularDesignError,
                     _as_float_array, _check_type)
from .grids import DesignGrid, EvalGrid, FunctionalSample

__all__ = [
    "Kernel",
    "epanechnikov",
    "truncated_gaussian",
    "kernel_by_name",
    "Bandwidth",
    "WeightVector",
    "local_linear_weights",
    "weight_matrix",
    "fit_mean",
    "MeanFit",
    "cv_score",
    "cv_bandwidth",
]

_DET_RTOL = 1e-10
_BANDWIDTH_ERRORS = (IllPosedBandwidthError, SingularDesignError)  # a search skips these


@dataclass(frozen=True)
class Kernel:
    """Nonnegative kernel with support [-1,1]; applied per axis for d=2."""

    name: str
    profile: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        out = np.zeros(u.shape)
        out[inside] = self.profile(u[inside])  # outside, u*u may overflow
        return out


def _epa(u):
    return 0.75 * np.maximum(1.0 - u * u, 0.0)


_GAUSS_NORM = math.erf(1.0 / math.sqrt(2.0))  # P(|Z| < 1) for Z ~ N(0, 1)


def _tgauss(u):
    # standard normal density restricted to [-1,1], renormalized
    return np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * _GAUSS_NORM)


def epanechnikov() -> Kernel:
    return Kernel("epanechnikov", _epa)


def truncated_gaussian() -> Kernel:
    return Kernel("gauss", _tgauss)


def kernel_by_name(name: str) -> Kernel:
    key = name.lower() if isinstance(name, str) else None
    if key in ("epanechnikov", "epa"):
        return epanechnikov()
    if key in ("gauss", "gaussian", "truncated-gaussian"):
        return truncated_gaussian()
    raise GridError(f"unknown kernel {name!r}")


@dataclass(frozen=True)
class Bandwidth:
    """Per-axis finite positive bandwidths."""

    values: tuple[float, ...]

    def __post_init__(self):
        _check_type("values", self.values, tuple, GridError)
        if not self.values or not all(isinstance(h, Real) and 0 < h < math.inf
                                      for h in self.values):
            raise GridError(f"bandwidths must be finite and positive, got h={self.values}")

    @classmethod
    def of(cls, h, dim: int = 1) -> "Bandwidth":
        if isinstance(h, Bandwidth):
            if len(h.values) != dim:
                raise GridError(f"bandwidth has {len(h.values)} axes, expected {dim}")
            return h
        try:
            vals = (float(h),) * dim if np.isscalar(h) else tuple(float(v) for v in h)
        except (TypeError, ValueError):
            raise GridError(f"bandwidth must be a number per axis, got h={h!r}") from None
        if len(vals) != dim:
            raise GridError(f"bandwidth has {len(vals)} axes, expected {dim}")
        return cls(vals)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Sparse local linear weights at a single evaluation point."""

    indices: np.ndarray
    weights: np.ndarray

    def dense(self, p: int) -> np.ndarray:
        out = np.zeros(p)
        out[self.indices] = self.weights
        return out


def weight_matrix(
    grid: DesignGrid, eval: EvalGrid, h, kernel: Kernel | None = None
) -> np.ndarray:
    """Dense (m x p) matrix of local linear weights, rows = evaluation points.

    Row i is the first row of S_i^-1 X_i' K_i, with X_i = [1, x_j - x_i] the
    local design, K_i the product-kernel weights and S_i = X_i' K_i X_i the
    (d+1) x (d+1) local moment matrix, renormalised to sum to one (as it does
    in exact arithmetic).  Raises IllPosedBandwidthError if some
    evaluation point has fewer than d+1 kernel-active design points, and
    SingularDesignError if the determinant of S_i with its diagonal scaled
    to one is at most _DET_RTOL there (active points on a common hyperplane).
    """
    _check_type("grid", grid, DesignGrid, GridError)
    _check_type("eval", eval, EvalGrid, GridError)
    kernel = kernel or epanechnikov()
    _check_type("kernel", kernel, Kernel)
    if grid.dim != eval.dim:
        raise GridError("design and evaluation grids must share the dimension")
    h = Bandwidth.of(h, grid.dim)
    diff = np.ascontiguousarray(grid.coords().T) - eval.coords()[:, :, None]   # (m, d, p)
    with np.errstate(over="ignore"):    # a subnormal h sends far offsets to +-inf
        u = diff / np.asarray(h.values)[None, :, None]
    k = math.prod(kernel(u[:, a]) for a in range(grid.dim))    # (m, p)
    del u
    active = (k > 0).sum(axis=1)
    need = grid.dim + 1
    if np.any(active < need):
        i = int(np.argmin(active))
        raise IllPosedBandwidthError(
            f"only {int(active[i])} active design points at evaluation point index {i}; "
            f"need >= {need} (increase h)"
        )
    kd = k[:, None, :] * diff
    s = np.empty((eval.n_points, need, need))
    s[:, 0, 0] = k.sum(axis=1)
    s[:, 0, 1:] = s[:, 1:, 0] = kd.sum(axis=2)
    s[:, 1:, 1:] = kd @ diff.transpose(0, 2, 1)
    del kd
    if np.any(np.linalg.det(s) <= _DET_RTOL * np.prod(np.diagonal(s, axis1=1, axis2=2), axis=1)):
        raise SingularDesignError("singular local design (active points on a hyperplane)")
    row = np.linalg.solve(s, np.eye(need)[0])   # (m, d+1): S^-1 e1, S^-1 is symmetric
    w = np.einsum("ma,map->mp", row[:, 1:], diff)
    w += row[:, :1]
    w *= k
    w /= w.sum(axis=1, keepdims=True)
    return w


def local_linear_weights(grid: DesignGrid, x, h, kernel: Kernel | None = None) -> WeightVector:
    """Local linear weights at a single point, in sparse form."""
    _check_type("grid", grid, DesignGrid, GridError)
    x_arr = np.atleast_1d(_as_float_array("x", x, GridError))
    row = weight_matrix(grid, EvalGrid(tuple(x_arr[:, None])), h, kernel)[0]
    idx = np.nonzero(row)[0]
    return WeightVector(indices=idx, weights=row[idx])


@dataclass(frozen=True, eq=False)
class MeanFit:
    """Smoothed mean together with the per-curve smooths it averages."""

    mean: np.ndarray        # (m,)
    curves: np.ndarray      # (n, m), row i = smooth of curve i


def fit_mean(
    sample: FunctionalSample, eval: EvalGrid, h, kernel: Kernel | None = None
) -> MeanFit:
    """Smooth the sample mean; also returns the n per-curve smooths."""
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    w = weight_matrix(sample.grid, eval, h, kernel)
    curves = sample.values @ w.T
    return MeanFit(mean=curves.mean(axis=0), curves=curves)


def cv_score(sample: FunctionalSample, h, kernel: Kernel | None = None) -> float:
    """Leave-one-curve-out cross validation score at the design points.

    CV(h) = sum_i sum_j (Y_ij - mu_hat^(-i)(x_j; h))^2 with mu_hat^(-i) the
    smoothed mean of the sample with curve i removed.
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    n = sample.n_curves
    if n < 2:
        raise GridError("cross validation needs n >= 2")
    s = weight_matrix(sample.grid, sample.grid, h, kernel)  # (p, p)
    ybar = sample.column_means()
    smoothed_mean = s @ ybar
    smoothed_rows = sample.values @ s.T       # (n, p)
    # leave-one-out mean smooth: (n * S ybar - S y_i) / (n - 1)
    loo = (n * smoothed_mean[None, :] - smoothed_rows) / (n - 1)
    resid = sample.values - loo
    with np.errstate(over="ignore", invalid="ignore"):
        score = float(np.sum(resid * resid))
    if not np.isfinite(score):
        raise SampleValidationError(f"non-finite cross-validation score at h={h}")
    return score


def _bandwidth_candidates(candidates, dim: int) -> list:
    """The distinct candidate bandwidths as sorted value tuples; GridError if
    ``candidates`` is not iterable or is empty."""
    _check_type("candidates", candidates, Iterable, GridError)
    cands = sorted({Bandwidth.of(c, dim).values for c in candidates})
    if not cands:
        raise GridError("empty candidate bandwidth list")
    return cands


def cv_bandwidth(
    sample: FunctionalSample, candidates: Sequence, kernel: Kernel | None = None
):
    """Pick the candidate bandwidth minimizing the leave-one-curve-out score.

    Ill-posed candidates are skipped with a warning and duplicates scored once;
    ties break toward the smallest bandwidth.  Returns (Bandwidth, scores dict).
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    scores = {}
    for b in _bandwidth_candidates(candidates, sample.grid.dim):
        try:
            scores[b] = cv_score(sample, b, kernel)
        except _BANDWIDTH_ERRORS as exc:
            warnings.warn(f"skipping ill-posed candidate h={b}: {exc}")
    if not scores:
        raise IllPosedBandwidthError("all candidate bandwidths are ill-posed")
    return Bandwidth(min(scores, key=scores.get)), scores
