"""Sup-norm goodness-of-fit test for curvilinear regression models.

The candidate model is a linear span of basis functions, fit by least
squares at the design points; the smoothed residual process r(x) =
W(x)' (I - P) ybar is standardized by the plug-in covariance of sqrt(n) r
and its sup-norm compared to a Monte-Carlo Gaussian threshold.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from math import sqrt
from typing import Callable

import numpy as np

from .bands import BandResult, _gaussian_bands
from .errors import (DegenerateVarianceError, FuncbandError, GridError, RankDeficiencyError,
                     SampleValidationError, _check_int, _check_type)
from .grids import DesignGrid, EvalGrid, FunctionalSample
from .moments import _check_covariance, _kept_eigenvalues, empirical_data_covariance
from .smoothing import _bandwidth, _Plan
from .supnorm import _MatrixRoot, _blas_held

__all__ = [
    "BasisModel",
    "basis_model",
    "polynomial_basis",
    "GofReport",
    "ls_fit",
    "LsFit",
    "residual_process",
    "gamma_n_plugin",
    "limit_gamma",
    "scb_gof_test",
]

_GRAM_RTOL = 1e-6
_COND_LIMIT = 1e10
# Trapezoidal nodes on [0,1] for the basis Gram check and the limit covariance.
_QUAD_POINTS = 2001


@dataclass(frozen=True)
class BasisModel:
    """Linear model span of basis functions on [0,1], orthogonal under the
    design density's weighted inner product."""

    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    density: Callable[[np.ndarray], np.ndarray] | None = None  # None = uniform

    @property
    def size(self) -> int:
        return len(self.functions)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """(len(x), L) matrix of basis values."""
        x = np.asarray(x, dtype=float)
        return np.column_stack([np.asarray(f(x), dtype=float) for f in self.functions])

    def weight(self, x: np.ndarray) -> np.ndarray:
        if self.density is None:
            return np.ones_like(np.asarray(x, dtype=float))
        return np.asarray(self.density(x), dtype=float)


def _quadrature(model: BasisModel) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal nodes u on [0,1] and weights times the design density f(u),
    so that weights @ g(u) approximates the weighted integral of g."""
    u = np.linspace(0.0, 1.0, _QUAD_POINTS)
    wgt = np.full(_QUAD_POINTS, 1.0 / (_QUAD_POINTS - 1))
    wgt[0] = wgt[-1] = 0.5 / (_QUAD_POINTS - 1)
    return u, wgt * model.weight(u)


def _gram(model: BasisModel) -> np.ndarray:
    u, wf = _quadrature(model)
    phi = model.matrix(u)
    return phi.T @ (wf[:, None] * phi)


def basis_model(functions: Sequence[Callable], density: Callable | None = None) -> BasisModel:
    """Build a basis model, orthogonalizing (with a warning) if the supplied
    functions fail the weighted-orthogonality check."""
    _check_type("functions", functions, Sequence)
    if not functions:
        raise FuncbandError("basis model needs at least one function")
    for i, f in enumerate(functions):
        if not callable(f):
            raise FuncbandError(f"basis functions must be callable, got functions[{i}]={f!r}")
    if density is not None and not callable(density):
        raise FuncbandError(f"density must be callable or None, got density={density!r}")
    model = BasisModel(tuple(functions), density)
    gram = _gram(model)
    off = np.abs(gram - np.diag(np.diag(gram)))
    scale = max(float(np.abs(np.diag(gram)).max()), 1e-300)
    if off.max(initial=0.0) <= _GRAM_RTOL * scale:
        return model
    warnings.warn("basis functions are not orthogonal under the design density; "
                  "orthogonalizing (the projection is basis-invariant)")
    # Gram-Schmidt under the weighted inner product, realized as closures over
    # the original functions and mixing coefficients.
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("basis Gram matrix is not positive definite") from exc
    inv = np.linalg.inv(chol)  # rows give orthonormalized combinations

    def make(coefs):
        def f(x, _c=coefs, _fs=model.functions):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            for c, g in zip(_c, _fs):
                if c != 0.0:
                    out = out + c * np.asarray(g(x), dtype=float)
            return out

        return f

    ortho = tuple(make(inv[k].tolist()) for k in range(model.size))
    return BasisModel(ortho, density)


def polynomial_basis(degree: int, density: Callable | None = None) -> BasisModel:
    """Shifted-Legendre polynomial basis of the given degree on [0,1]
    (orthonormal for the uniform density)."""
    _check_int("degree", degree)
    from numpy.polynomial import legendre

    funcs = []
    for k in range(degree + 1):
        coef = np.zeros(k + 1)
        coef[k] = 1.0

        def f(x, _c=coef, _k=k):
            # shifted to [0,1] and L2([0,1])-normalized
            return sqrt(2 * _k + 1) * legendre.legval(2.0 * np.asarray(x, dtype=float) - 1.0, _c)

        funcs.append(f)
    return basis_model(funcs, density)


@dataclass(frozen=True, eq=False)
class LsFit:
    theta: np.ndarray
    fitted_design: np.ndarray   # fitted values at the design points


def _design_matrix(model: BasisModel, grid: DesignGrid) -> np.ndarray:
    _check_type("model", model, BasisModel)
    if grid.dim != 1:
        raise FuncbandError("goodness-of-fit supports d=1 designs")
    phi = model.matrix(grid.points)
    cond = np.linalg.cond(phi)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankDeficiencyError(f"design matrix condition number {cond:.3g} exceeds 1e10")
    return phi


def ls_fit(sample: FunctionalSample, model: BasisModel) -> LsFit:
    """Least squares fit of the averaged data on the model span."""
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    phi = _design_matrix(model, sample.grid)
    ybar = sample.column_means()
    theta, *_ = np.linalg.lstsq(phi, ybar, rcond=None)
    return LsFit(theta=theta, fitted_design=phi @ theta)


def _complement(model: BasisModel, grid: DesignGrid) -> np.ndarray:
    """Q, the (p, p - L) orthonormal complement of the basis columns at the
    design points, so that I - P = Q Q'."""
    phi = _design_matrix(model, grid)
    if phi.shape[1] >= phi.shape[0]:
        raise DegenerateVarianceError(f"a basis of L={phi.shape[1]} functions leaves no residual "
                                      f"at p={phi.shape[0]} design points (needs L < p)")
    return np.linalg.qr(phi, mode="complete")[0][:, phi.shape[1]:]


def _gof_plan(model: BasisModel, design: DesignGrid, eval: EvalGrid, h, kernel: str) -> _Plan:
    """The band plan ``_Plan.of`` plus the model's ``_complement`` Q and W Q."""
    q = _complement(model, design)
    plan = _Plan.of(design, eval, h, kernel)
    return replace(plan, model=model, q=q, wq=plan.w @ q)


def _residual_map(sample, model, eval, h, kernel, plan=None) -> tuple:
    """(r, W Q, Q): the residuals r = W Q Q' ybar smoothed by the (m, p)
    smoother W, with Q the ``_complement`` of the basis columns; Q and W Q
    are read from ``plan``, the ``_gof_plan`` built here when not given."""
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    _check_type("model", model, BasisModel)
    plan = (plan or _gof_plan(model, sample.grid, eval, h, kernel)).check(
        sample.grid, eval, h, kernel, model)
    return plan.wq @ (plan.q.T @ sample.column_means()), plan.wq, plan.q


def _projected_covariance(sample, q, shrinkage) -> tuple[np.ndarray, float]:
    """(Q' S_hat Q, lambda) for the empirical covariance S_hat, shrunk if ``shrinkage``."""
    data_cov, lam = empirical_data_covariance(sample, shrinkage)
    return q.T @ data_cov @ q, lam


def residual_process(
    sample: FunctionalSample,
    model: BasisModel,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
) -> np.ndarray:
    """Smoothed least-squares residuals r(x) = W(x)'(I - P) ybar on the grid."""
    return _residual_map(sample, model, eval, h, kernel)[0]


def gamma_n_plugin(
    sample: FunctionalSample,
    model: BasisModel,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
    shrinkage: bool = True,
) -> tuple[np.ndarray, float]:
    """Plug-in covariance table of sqrt(n) r: W(x)'(I-P) S_hat (I-P) W(x'), with
    S_hat the (optionally shrunk) empirical covariance of the raw data."""
    _, wq, q = _residual_map(sample, model, eval, h, kernel)
    g, lam = _projected_covariance(sample, q, shrinkage)
    table = wq @ g @ wq.T
    return 0.5 * (table + table.T), lam


def limit_gamma(
    covariance: Callable[[np.ndarray, np.ndarray], np.ndarray],
    model: BasisModel,
    eval: EvalGrid,
) -> np.ndarray:
    """Limit covariance table of sqrt(n) r by weighted quadrature:

    Gamma(x,x') = R(x,x') + sum_kl phi_k(x) phi_l(x') <<R phi_k phi_l>>
                 - sum_l <R(x,.) phi_l> phi_l(x') - sum_l <R(x',.) phi_l> phi_l(x)

    where <.> integrates against the design density (trapezoidal rule).  The
    table R of ``covariance`` on the evaluation and quadrature points is
    checked as a caller's covariance table.
    """
    if not callable(covariance):
        raise FuncbandError(f"covariance must be callable, got covariance={covariance!r}")
    _check_type("model", model, BasisModel)
    _check_type("eval", eval, EvalGrid, GridError)
    if eval.dim != 1:
        raise GridError(f"limit_gamma supports d=1 evaluation grids, got d={eval.dim}")
    u, wf = _quadrature(model)
    phi_u = model.matrix(u)                      # (q, L)
    x = eval.points
    phi_x = model.matrix(x)                      # (m, L)
    m, nodes = x.size, np.concatenate([x, u])
    r = _check_covariance(covariance(nodes[:, None], nodes[None, :]), nodes.size)
    r_xu, r_uv = r[:m, m:], r[m:, m:]            # (m, q), (q, q)

    single = r_xu @ (wf[:, None] * phi_u)        # (m, L): int R(x,u) phi_l(u) f(u) du
    double = phi_u.T @ (np.outer(wf, wf) * r_uv) @ phi_u   # (L, L)

    table = r[:m, :m] + phi_x @ double @ phi_x.T - single @ phi_x.T - phi_x @ single.T
    return 0.5 * (table + table.T)


@dataclass(frozen=True, eq=False)
class GofReport:
    statistic: float
    threshold: float
    alpha: float
    reject: bool
    band: BandResult
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "T": self.statistic,
            "c_alpha": self.threshold,
            "alpha": self.alpha,
            "reject": self.reject,
            "band": self.band.to_dict(),
            "diagnostics": self.diagnostics,
        }


@_blas_held
def scb_gof_test(
    sample: FunctionalSample,
    model: BasisModel,
    eval: EvalGrid,
    h,
    kernel: str = "epanechnikov",
    alpha: float = 0.05,
    paths: int | None = None,
    seed: int = 0,
    shrinkage: bool = True,
    _plan=None,
) -> GofReport:
    """Sup-norm test of the parametric model; T = sqrt(n) || r / sigma_Gamma ||_inf.

    Gamma_hat = A A' with A = W Q C, C C' = Q' S_hat Q less the eigenvalues that
    moments._kept_eigenvalues drops (their share is the clipped mass).  Paths draw
    through its correlation's root F = (A / sigma_Gamma)', r x m, or if r > m the
    m x m R of F = Q R (R'R = F'F).  ``_plan``, the ``_gof_plan`` of ``model``,
    the sample's design grid, ``eval``, h and kernel, supplies Q and W Q."""
    r, wq, q = _residual_map(sample, model, eval, h, kernel, _plan)
    g, lam = _projected_covariance(sample, q, shrinkage)
    vals, vecs = np.linalg.eigh(g)
    keep, mass = _kept_eigenvalues(vals)
    a = wq @ (vecs[:, keep] * np.sqrt(vals[keep]))
    sigma_gamma = np.linalg.norm(a, axis=1)
    if np.any(sigma_gamma <= 0):
        j = int(np.argmin(sigma_gamma))
        raise DegenerateVarianceError(f"zero variance at grid point index {j}")
    factor = (a / sigma_gamma[:, None]).T
    if len(factor) > len(r):
        factor = np.linalg.qr(factor, mode="r")
    n = sample.n_curves
    t_stat = sqrt(n) * float(np.max(np.abs(r / sigma_gamma)))
    part = (eval, r, sigma_gamma, _MatrixRoot(factor, mass), lam, _bandwidth(h, eval.dim))
    band, = _gaussian_bands("gof-residual", [part], sqrt(n), alpha, paths, sample.n_points, seed,
                            kernel)
    return GofReport(
        statistic=t_stat,
        threshold=band.threshold,
        alpha=alpha,
        reject=t_stat > band.threshold,
        band=band,
        diagnostics={"lambda": lam, "clipped_mass": band.details["clipped_mass"],
                     "threshold_stderr": band.details["threshold_stderr"]},
    )
