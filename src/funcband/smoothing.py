"""Kernels, local linear weights, and curve smoothing.

A kernel is one of the names "epanechnikov" and "gauss" (the standard normal
density truncated to [-1, 1] and renormalized); a bandwidth h is a positive
number for every axis, or one per axis.

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
from typing import Sequence

import numpy as np

from .errors import (FuncbandError, GridError, IllPosedBandwidthError, SampleValidationError,
                     SingularDesignError, _as_float_array, _check_choice, _check_type)
from .grids import DesignGrid, EvalGrid, FunctionalSample

__all__ = [
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


def _epa(u):
    return 0.75 * np.maximum(1.0 - u * u, 0.0)


_GAUSS_NORM = math.erf(1.0 / math.sqrt(2.0))  # P(|Z| < 1) for Z ~ N(0, 1)


def _tgauss(u):
    # standard normal density restricted to [-1,1], renormalized
    return np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * _GAUSS_NORM)


# kernel name -> its profile on |u| < 1; every kernel is zero outside, per axis
_KERNELS = {"epanechnikov": _epa, "gauss": _tgauss}


def _bandwidth(h, dim: int = 1) -> tuple[float, ...]:
    """``h`` as one finite positive float per axis: a number for every axis,
    or one value per axis; GridError otherwise."""
    try:
        vals = (float(h),) * dim if np.isscalar(h) else tuple(float(v) for v in h)
    except (TypeError, ValueError):
        raise GridError(f"bandwidth must be a number per axis, got h={h!r}") from None
    if len(vals) != dim:
        raise GridError(f"bandwidth has {len(vals)} axes, expected {dim}")
    if not all(0 < v < math.inf for v in vals):
        raise GridError(f"bandwidths must be finite and positive, got h={vals}")
    return vals


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
    grid: DesignGrid, eval: EvalGrid, h, kernel: str = "epanechnikov"
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
    _check_choice("kernel", kernel, _KERNELS, GridError)
    if grid.dim != eval.dim:
        raise GridError("design and evaluation grids must share the dimension")
    h = _bandwidth(h, grid.dim)
    diff = np.ascontiguousarray(grid.coords().T) - eval.coords()[:, :, None]   # (m, d, p)
    with np.errstate(over="ignore"):    # a subnormal h sends far offsets to +-inf
        u = diff / np.asarray(h)[None, :, None]
    inside = np.abs(u) < 1.0
    u[inside] = _KERNELS[kernel](u[inside])     # outside, u*u may overflow
    u[~inside] = 0.0
    k = math.prod(u[:, a] for a in range(grid.dim))    # (m, p)
    del u, inside
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


def local_linear_weights(grid: DesignGrid, x, h, kernel: str = "epanechnikov") -> WeightVector:
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


@dataclass(frozen=True, eq=False)
class _Plan:
    """What calls on one design grid, evaluation grid, h and kernel share,
    built once and read-only: the (m, p) smoother ``w`` on ``eval``
    (``_Plan.of``); for the candidate ``model``, gof's complement ``q`` of its
    basis columns at the design points (I - P = Q Q') and ``wq`` = W Q
    (``gof._gof_plan``); on the design itself, PLRT's ``g0`` = (I-P)'(I-P) =
    Q Q' and ``g1`` = (I-S)'(I-S) with S = W (``plrt._plrt_plan``); and the
    known mode's factor ``known`` of Sigma/n.  A piece that no caller of the
    plan reads is None."""

    design: DesignGrid
    eval: EvalGrid
    h: tuple[float, ...]    # the _bandwidth tuple W was built for
    kernel: str
    w: np.ndarray
    model: object = None    # the BasisModel of q, compared by identity
    q: np.ndarray | None = None
    wq: np.ndarray | None = None
    g0: np.ndarray | None = None
    g1: np.ndarray | None = None
    known: np.ndarray | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @classmethod
    def of(cls, design: DesignGrid, eval: EvalGrid, h, kernel: str) -> "_Plan":
        """The band plan: the smoother W from ``design`` to ``eval``."""
        w = weight_matrix(design, eval, h, kernel)
        return cls(design, eval, _bandwidth(h, design.dim), kernel, w)

    def check(self, grid: DesignGrid, eval: EvalGrid, h, kernel: str, model=None) -> "_Plan":
        """This plan, once it is shown to be built on ``grid`` and ``eval``, for
        ``h`` and ``kernel`` and, if given, ``model``; FuncbandError otherwise."""
        for what, given, built in (("design", grid, self.design), ("evaluation", eval, self.eval)):
            if given is not built and not np.array_equal(getattr(given, "points", None),
                                                         built.points):
                raise FuncbandError(f"the design plan was built on another {what} grid")
        h = _bandwidth(h, self.design.dim)
        if h != self.h or not (isinstance(kernel, str) and kernel == self.kernel):
            raise FuncbandError(f"the design plan was built for h={self.h} and kernel="
                                f"{self.kernel!r}, not h={h} and kernel={kernel!r}")
        if model is not None and model is not self.model:
            raise FuncbandError("the design plan was built for another model")
        return self


def fit_mean(
    sample: FunctionalSample, eval: EvalGrid, h, kernel: str = "epanechnikov",
    _plan: _Plan | None = None,
) -> MeanFit:
    """Smooth the sample mean; also returns the n per-curve smooths.  The
    smoother is read from ``_plan``, built here when not given."""
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    plan = (_plan or _Plan.of(sample.grid, eval, h, kernel)).check(sample.grid, eval, h, kernel)
    curves = sample.values @ plan.w.T
    return MeanFit(mean=curves.mean(axis=0), curves=curves)


def cv_score(sample: FunctionalSample, h, kernel: str = "epanechnikov") -> float:
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
    """The distinct candidate bandwidths as sorted ``_bandwidth`` tuples;
    GridError if ``candidates`` is not iterable or is empty."""
    _check_type("candidates", candidates, Iterable, GridError)
    cands = sorted({_bandwidth(c, dim) for c in candidates})
    if not cands:
        raise GridError("empty candidate bandwidth list")
    return cands


def cv_bandwidth(
    sample: FunctionalSample, candidates: Sequence, kernel: str = "epanechnikov"
):
    """Pick the candidate bandwidth minimizing the leave-one-curve-out score.

    Ill-posed candidates are skipped with a warning and duplicates scored once;
    ties break toward the smallest bandwidth.  Returns (h, scores dict), h and
    the keys one float per axis.
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
    return min(scores, key=scores.get), scores
