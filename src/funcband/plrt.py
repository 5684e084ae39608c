"""Pseudo-likelihood ratio benchmark test for lack of fit.

Compares the residual sums of squares of the parametric least-squares fit
and a local linear smooth of the averaged data.  The null distribution of
F = RSS_0/RSS_1 - 1 is calibrated by writing {F >= F_obs} as a Gaussian
quadratic form being nonnegative.  The p-value is computed exactly by
characteristic-function inversion (Imhof's method) of the weighted
chi-square representation, integrated by vectorised adaptive Gauss-Kronrod
quadrature in numpy, with weights from a factor of Sigma/n (Cholesky, or
in nonparametric mode the centred curves).  What the statistic needs from
the design alone is a private ``smoothing._Plan``: gof's plan on the design
itself, whose smoother W is S and whose complement Q gives I - P = Q Q', plus
the two Gram products.  A replication loop builds it once per design, model,
h and kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import isfinite, sqrt
from typing import Literal, get_args

import numpy as np

from .errors import (DegenerateVarianceError, FuncbandError, IntegrationError,
                     SampleValidationError, _as_float_array, _check_choice, _check_type)
from .gof import BasisModel, _gof_plan
from .grids import DesignGrid, FunctionalSample
from .moments import _centered_curves, _check_covariance, _check_symmetric, _psd_root
from .smoothing import _Plan

__all__ = [
    "PlrtReport",
    "plrt_statistic",
    "plrt_pvalue",
    "ar1_covariance_fit",
    "plrt_test",
]

CovarianceMode = Literal["nonparametric", "parametric-ar1", "known"]


@dataclass(frozen=True)
class PlrtReport:
    statistic: float
    pvalue: float
    covariance_mode: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {"F": self.statistic, "p_value": self.pvalue,
                "covariance_mode": self.covariance_mode, "diagnostics": self.diagnostics}


def _plrt_plan(model: BasisModel, grid: DesignGrid, h, kernel: str) -> _Plan:
    """What a replication needs from the design alone: the ``_gof_plan`` on
    the design itself, whose W is the smoother S at the design points, plus
    the Gram products (I-P)'(I-P) = Q Q' and (I-S)'(I-S)."""
    plan = _gof_plan(model, grid, grid, h, kernel)
    m1 = np.eye(grid.n_points) - plan.w
    return replace(plan, g0=plan.q @ plan.q.T, g1=m1.T @ m1)


def plrt_statistic(
    sample: FunctionalSample, model: BasisModel, h, kernel: str = "epanechnikov",
    _plan: _Plan | None = None,
) -> tuple[float, np.ndarray, dict]:
    """F = RSS_0/RSS_1 - 1 and the quadratic-form matrix A for its p-value.

    A = (I-P)'(I-P) - (1+F)(I-S)'(I-S); valid because the local linear
    smoother reproduces the null span exactly for linear null models, so the
    form is free of the regression function under the null.  ``_plan`` is
    the ``_plrt_plan`` of model, the sample's grid, h and kernel, built here
    when not given.
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    _check_type("model", model, BasisModel)
    plan = (_plan or _plrt_plan(model, sample.grid, h, kernel)).check(
        sample.grid, sample.grid, h, kernel, model)
    ybar = sample.column_means()
    res0 = plan.g0 @ ybar
    res1 = ybar - plan.w @ ybar
    with np.errstate(over="ignore", invalid="ignore"):
        rss0 = float(res0 @ res0)
        rss1 = float(res1 @ res1)
        if not (isfinite(rss0) and isfinite(rss1)):
            j = int(np.argmax(np.maximum(np.abs(res0), np.abs(res1))))
            raise SampleValidationError(f"non-finite residual sum of squares (largest residual "
                                        f"at point index {j})")
    # scale-relative zero test: an exactly reproduced mean leaves only roundoff
    if rss1 <= 1e-24 * max(float(ybar @ ybar), 1e-300):
        raise DegenerateVarianceError("perfect smooth fit: RSS_1 = 0")
    f_stat = rss0 / rss1 - 1.0
    a_mat = plan.g0 - (1.0 + f_stat) * plan.g1
    a_mat = 0.5 * (a_mat + a_mat.T)
    return f_stat, a_mat, {"rss0": rss0, "rss1": rss1}


# Gauss-Kronrod G7/K15 pair on [-1, 1]: the 15 Kronrod nodes in ascending
# order; the 7 Gauss nodes are every other one, starting from the second.
_GK_HALF = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                     0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                     0.207784955007898467600689403773245, 0.0])
_K15_HALF = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                      0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                      0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                      0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_G7_HALF = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_GK_HALF[:-1], _GK_HALF[::-1]])
_K15_WEIGHTS = np.concatenate([_K15_HALF[:-1], _K15_HALF[::-1]])
# columns: the K15 rule, and K15 minus G7 as weights on the 15 Kronrod nodes
_GK_RULES = np.column_stack([_K15_WEIGHTS, _K15_WEIGHTS])
_GK_RULES[1::2, 1] -= np.concatenate([_G7_HALF[:-1], _G7_HALF[::-1]])

_IMHOF_TOL = 1e-13       # absolute error allowed on the p-value
_IMHOF_PANELS = 16       # equal starting panels on (0, 1]
_IMHOF_ROUNDS = 60       # spectra at the 1e-12 eigenvalue filter take about 36
_IMHOF_MAX_PANELS = 1000


def _gk_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The G7/K15 nodes of the panels [lo, hi], panel by panel, and each panel's half width."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _GK_NODES).ravel(), half


# the first round's panels and nodes, the same for every spectrum
_IMHOF_EDGES = np.linspace(0.0, 1.0, _IMHOF_PANELS + 1)
_IMHOF_NODES, _IMHOF_HALF = _gk_nodes(_IMHOF_EDGES[:-1], _IMHOF_EDGES[1:])


def _imhof_integrand(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Imhof's integrand at u = (1-t)/t, times the Jacobian 1/t^2.  Large u
    lies near t = 0, where doubles are dense, so the integrand's last feature
    at u ~ 1/min|lambda_i| stays resolved down to min|lambda_i| ~ 1e-17."""
    x = ((1.0 - t) / t)[:, None] * lam[None, :]
    theta = 0.5 * np.arctan(x).sum(axis=1)
    log_rho = 0.25 * np.log1p(np.square(x, out=x), out=x).sum(axis=1)
    return np.sin(theta) * np.exp(-log_rho) / (t * (1.0 - t))


def _imhof_positive_tail(lambdas: np.ndarray) -> tuple[float, float]:
    """Exact P(sum_i lambda_i W_i > 0) for independent W_i ~ chi2_1, and the
    absolute error estimate of that probability.

    Imhof's characteristic-function inversion at the point 0:
    P = 1/2 + (1/pi) * integral_0^inf sin(theta(u)) / (u * rho(u)) du with
    theta(u) = (1/2) sum arctan(lambda_i u) and
    rho(u) = prod (1 + lambda_i^2 u^2)^(1/4).

    The integral is taken over t = 1/(1+u) in (0, 1] by adaptive G7/K15
    Gauss-Kronrod quadrature.  The first round takes 16 equal panels, whose
    nodes are fixed.  Each round evaluates the rule on every new panel at
    once, as one (panels*15) x k array, and estimates each panel's error by
    |K15 - G7|.  While the summed error is above tolerance, the panels with
    the largest errors are bisected, as many as it takes for the others to
    sum to at most half the tolerance.  Raises IntegrationError if the
    tolerance is not met within the refinement budget of rounds and panels.
    """
    lam = np.asarray(lambdas, dtype=float)
    lam = lam / np.abs(lam).max()            # {Q > 0} is scale-invariant: to max 1, which
    lam = lam / np.sqrt(np.mean(lam * lam))  # cannot overflow, then to RMS 1 (fewer rounds)
    lo, hi = _IMHOF_EDGES[:-1], _IMHOF_EDGES[1:]  # every panel: the kept ones, then the new
    nodes, half = _IMHOF_NODES, _IMHOF_HALF       # the new panels' nodes and half widths
    for rounds in range(1, _IMHOF_ROUNDS + 1):
        f = _imhof_integrand(nodes, lam).reshape(-1, _GK_NODES.size)
        rules = half[:, None] * (f @ _GK_RULES) / np.pi  # in units of the p-value
        if rounds == 1:
            val, err = rules[:, 0], np.abs(rules[:, 1])
        else:
            val = np.concatenate([val, rules[:, 0]])
            err = np.concatenate([err, np.abs(rules[:, 1])])
        abserr = err.sum()
        if abserr <= _IMHOF_TOL:
            return float(min(max(0.5 + val.sum(), 0.0), 1.0)), float(abserr)
        order = np.argsort(err)
        split = np.zeros(err.size, dtype=bool)
        split[order[np.cumsum(err[order]) > 0.5 * _IMHOF_TOL]] = True
        if err.size + split.sum() > _IMHOF_MAX_PANELS:
            break
        a, b = lo[split], hi[split]
        new_lo, new_hi = np.concatenate([a, 0.5 * (a + b)]), np.concatenate([0.5 * (a + b), b])
        nodes, half = _gk_nodes(new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = val[keep], err[keep]
    raise IntegrationError(
        f"Imhof p-value error estimate {abserr:.2e} is above the tolerance "
        f"{_IMHOF_TOL:.0e} after {rounds} refinement rounds on {lo.size} panels")


def plrt_pvalue(a_mat: np.ndarray, sigma_over_n: np.ndarray,
                diagnostics: dict | None = None) -> float:
    """Exact P(z' A z > 0) for z ~ N(0, Sigma/n) by Imhof inversion.

    The form is sum_i lambda_i W_i, W_i ~ chi2_1, with lambda_i the
    eigenvalues of F' A F for a factor Sigma/n = F F': the Cholesky factor,
    or the symmetric root of ``moments._psd_root`` when Cholesky fails.  If
    ``diagnostics`` is a dict, the p-value's absolute error estimate is
    stored under ``imhof_abserr`` (0 when every lambda_i has the same sign).
    Raises FuncbandError when A or Sigma/n is not a finite symmetric table,
    when Sigma/n has a negative diagonal entry, when their sizes differ, or
    when every lambda_i is zero (a degenerate form).
    """
    if diagnostics is not None:
        _check_type("diagnostics", diagnostics, dict)
    a_mat = _check_symmetric(a_mat, "quadratic form")
    sigma_over_n = _check_covariance(sigma_over_n, what="Sigma/n")
    if a_mat.shape != sigma_over_n.shape:
        raise FuncbandError(f"the quadratic form is {a_mat.shape[0]} x {a_mat.shape[0]} but "
                            f"Sigma/n is {sigma_over_n.shape[0]} x {sigma_over_n.shape[0]}")
    return _factor_pvalue(a_mat, _sigma_factor(sigma_over_n), diagnostics)


def _sigma_factor(sigma_over_n: np.ndarray) -> np.ndarray:
    """F with F F' = a checked Sigma/n: Cholesky, or ``moments._psd_root`` if it fails."""
    try:
        return np.linalg.cholesky(sigma_over_n)
    except np.linalg.LinAlgError:
        return _psd_root(sigma_over_n)[0]


def _factor_pvalue(a_mat: np.ndarray, factor: np.ndarray, diagnostics: dict | None) -> float:
    """``plrt_pvalue`` for Sigma/n = factor factor', with factor (p, k)."""
    lam = np.linalg.eigvalsh(factor.T @ np.asarray(a_mat, dtype=float) @ factor)
    scale = np.abs(lam).max()
    if scale == 0.0:
        raise FuncbandError("the quadratic form is degenerate: every eigenvalue is zero")
    lam = lam[np.abs(lam) > 1e-12 * scale]
    if lam.min() >= 0.0 or lam.max() <= 0.0:
        p, abserr = float(lam.min() >= 0.0), 0.0
    else:
        p, abserr = _imhof_positive_tail(lam)
    if diagnostics is not None:
        diagnostics["imhof_abserr"] = abserr
    return p


def ar1_covariance_fit(sample: FunctionalSample) -> tuple[float, float, np.ndarray]:
    """AR(1) covariance fit across design points: sigma2 * rho^|j-k|.

    sigma2 averages the per-point sample variances; rho is the pooled lag-1
    autocorrelation of the residual rows, clipped to (-1, 1).
    """
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    y = sample.values
    n, p = y.shape
    if n < 2 or p < 2:
        raise DegenerateVarianceError("AR(1) fit needs n >= 2 and p >= 2")
    resid = y - y.mean(axis=0)[None, :]
    var = (resid * resid).sum(axis=0) / (n - 1)
    sigma2 = float(var.mean())
    if sigma2 <= 0:
        raise DegenerateVarianceError("zero variance in AR(1) covariance fit")
    num = float((resid[:, :-1] * resid[:, 1:]).sum())
    den = float((resid * resid).sum())
    rho = (num / den) * p / (p - 1) if den > 0 else 0.0
    rho = min(max(rho, -0.999), 0.999)
    lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    return sigma2, rho, sigma2 * (rho ** np.arange(p))[lags]


def plrt_test(
    sample: FunctionalSample,
    model: BasisModel,
    h,
    kernel: str = "epanechnikov",
    covariance_mode: CovarianceMode = "nonparametric",
    known_covariance: np.ndarray | None = None,
    _plan: _Plan | None = None,
) -> PlrtReport:
    """Full PLRT: statistic, covariance estimate per the chosen mode, p-value.
    ``known_covariance``, if given, is checked in every mode and read in known
    mode.  ``_plan`` goes to ``plrt_statistic``; its ``known`` factor, if any,
    stands for ``known_covariance``."""
    _check_choice("covariance_mode", covariance_mode, get_args(CovarianceMode))
    f_stat, a_mat, info = plrt_statistic(sample, model, h, kernel, _plan)
    n = sample.n_curves
    if known_covariance is not None:
        table = _check_covariance(_as_float_array("known_covariance", known_covariance),
                                  sample.n_points, "known_covariance")
    if covariance_mode == "known":
        factor = getattr(_plan, "known", None)
        if factor is None:
            if known_covariance is None:
                raise FuncbandError("covariance_mode='known' requires known_covariance")
            factor = _sigma_factor(table / n)
        p = _factor_pvalue(a_mat, factor, info)
    elif covariance_mode == "parametric-ar1":
        info["ar1_sigma2"], info["ar1_rho"], cov = ar1_covariance_fit(sample)
        p = _factor_pvalue(a_mat, _sigma_factor(cov / n), info)
    else:
        # X~'/sqrt(n(n-1)) factors Sigma_hat/n, whose rank <= n-1 defeats Cholesky
        p = _factor_pvalue(a_mat, _centered_curves(sample).T / sqrt(n * (n - 1)), info)
    return PlrtReport(statistic=f_stat, pvalue=p, covariance_mode=covariance_mode,
                      diagnostics=info)
