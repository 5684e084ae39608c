"""Synthetic data generators and the replication engine for coverage,
size, and power studies.

Three generators are provided: a smooth polynomial trend with Gaussian
exponentially-correlated curves (m1), an adverse rapidly-varying trend with
strongly non-Gaussian curves plus white noise (m2), and a linear trend with
an optional scaled local bump for power studies (m3).
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import log, sqrt

import numpy as np

from .bands import band_covers, bootstrap_scb, normal_scb
from .errors import (FuncbandError, GridError, _as_float_array, _check_choice, _check_int,
                     _check_type)
from .gof import BasisModel, _gof_plan, polynomial_basis, scb_gof_test
from .grids import DesignGrid, EvalGrid, FunctionalSample, make_eval_grid, uniform_design_grid
from .moments import _psd_root, correlation_from_covariance
from .plrt import _plrt_plan, _sigma_factor, plrt_test
from .smoothing import _KERNELS, _bandwidth, _Plan
from .supnorm import (SupQuantileRequest, _check_draws, _check_level, default_path_count,
                      sup_quantile)

__all__ = [
    "ModelSpec",
    "ExperimentRow",
    "ExperimentTable",
    "gen_model1",
    "gen_model2",
    "gen_model3",
    "bump_function",
    "true_mean",
    "analytic_covariance",
    "run_experiment",
    "known_R_threshold",
    "METHODS",
]

METHODS = ("normal-scb", "bootstrap-scb", "gof-scb", "plrt-np", "plrt-ar1", "plrt-known")
_PLRT_MODES = {"plrt-np": "nonparametric", "plrt-ar1": "parametric-ar1", "plrt-known": "known"}

_OU_RATE = 20.0 * log(0.9)  # exponent slope of the exponential correlation
_OU_SD = 0.25


def m1_mean(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 10.0 * x**3 - 15.0 * x**4 + 6.0 * x**5


def m2_mean(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.sin(8.0 * np.pi * x) * np.exp(-3.0 * x)


def ou_covariance(x, xp) -> np.ndarray:
    return _OU_SD**2 * np.exp(_OU_RATE * np.abs(np.asarray(x) - np.asarray(xp)))


def m2_covariance(x, xp) -> np.ndarray:
    """Two-factor covariance: var(chi2_1) = 2 and var(Exp(1)) = 1."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    # each product of an x and an x' factor is formed first, so R(x,x') = R(x',x) exactly
    return (2.0 * (sqrt(2.0) / 6.0) ** 2 * (np.sin(np.pi * x) * np.sin(np.pi * xp))
            + (2.0 / 3.0) ** 2 * ((x - 0.5) * (xp - 0.5)))


def _hump(x):
    x = np.asarray(x, dtype=float)
    return 0.2 * np.exp(-((x - 0.5) ** 2))


def _hump_d1(x):
    return -2.0 * (x - 0.5) * _hump(x)


def _hump_d2(x):
    return (-2.0 + 4.0 * (x - 0.5) ** 2) * _hump(x)


@lru_cache(maxsize=1)
def _connector_coefs():
    """Quintic two-point Hermite connectors joining 0 to the bump in C^2."""
    def hermite(x0, vals0, x1, vals1):
        rows = []
        rhs = []
        for x, vals in ((x0, vals0), (x1, vals1)):
            powers = np.arange(6, dtype=float)
            rows.append(x**powers)
            rhs.append(vals[0])
            rows.append(np.concatenate([[0.0], powers[1:] * x ** (powers[1:] - 1)]))
            rhs.append(vals[1])
            d2 = np.zeros(6)
            for k in range(2, 6):
                d2[k] = k * (k - 1) * x ** (k - 2)
            rows.append(d2)
            rhs.append(vals[2])
        return np.linalg.solve(np.array(rows), np.array(rhs))

    left = hermite(0.4, (0.0, 0.0, 0.0),
                   0.45, (float(_hump(0.45)), float(_hump_d1(0.45)), float(_hump_d2(0.45))))
    right = hermite(0.55, (float(_hump(0.55)), float(_hump_d1(0.55)), float(_hump_d2(0.55))),
                    0.6, (0.0, 0.0, 0.0))
    return left, right


def bump_function(x) -> np.ndarray:
    """The C^2 bump: zero outside [0.4, 0.6], Gaussian hump on (0.45, 0.55],
    quintic Hermite connectors in between."""
    x = _as_float_array("x", x)
    left, right = _connector_coefs()
    out = np.zeros_like(x)
    powers = x[..., None] ** np.arange(6, dtype=float)
    mask = (x > 0.4) & (x <= 0.45)
    out[mask] = powers[mask] @ left
    mask = (x > 0.45) & (x <= 0.55)
    out[mask] = _hump(x[mask])
    mask = (x > 0.55) & (x < 0.6)
    out[mask] = powers[mask] @ right
    return out


def m3_mean(x, n: int) -> np.ndarray:
    """The linear trend plus the bump scaled by log(n)/sqrt(n): model 3 under hn."""
    x = np.asarray(x, dtype=float)
    return x + log(n) / sqrt(n) * bump_function(x)


@lru_cache(maxsize=32)
def _uniform_grid(p: int) -> DesignGrid:
    """The uniform design grid of size p, shared by every generated sample."""
    return uniform_design_grid(p)


@lru_cache(maxsize=32)
def _ou_sqrt(p: int) -> np.ndarray:
    """Symmetric square root of the exponential covariance on the uniform
    design grid of size p (exact Gaussian draws, no time discretization).
    The covariance is positive definite, so no eigenvalue is clipped."""
    x = _uniform_grid(p).points
    return _psd_root(ou_covariance(x[:, None], x[None, :]))[0]


@lru_cache(maxsize=32)
def _design_mean(model: str, n: int, p: int) -> np.ndarray:
    """The mean of ``model`` on the uniform design grid of size p, read-only."""
    mean = true_mean(model, _uniform_grid(p).points, n)
    mean.setflags(write=False)
    return mean


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    _check_int("seed", seed_or_rng)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_or_rng)))


def _ou_curves(n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, p)) @ _ou_sqrt(p)


def _rng_and_grid(n: int, p: int, seed_or_rng) -> tuple:
    """A generator's rng and its uniform design grid of size p, after
    checking the curve count n and the grid size p."""
    _check_int("n", n, 1)
    _check_int("p", p, 2)
    return _as_rng(seed_or_rng), _uniform_grid(p)


def gen_model1(n: int, p: int, seed_or_rng=0) -> FunctionalSample:
    """Polynomial trend plus Gaussian exponentially-correlated curves, no noise."""
    rng, grid = _rng_and_grid(n, p, seed_or_rng)
    values = _design_mean("m1", n, p)[None, :] + _ou_curves(n, p, rng)
    return FunctionalSample(grid=grid, values=values)


def gen_model2(n: int, p: int, seed_or_rng=0) -> FunctionalSample:
    """Oscillating trend, two-factor non-Gaussian curves, N(0, 0.1^2) noise."""
    rng, grid = _rng_and_grid(n, p, seed_or_rng)
    x = grid.points
    eta1 = rng.chisquare(1, size=n)
    eta2 = rng.exponential(1.0, size=n)
    z = (sqrt(2.0) / 6.0 * (eta1 - 1.0)[:, None] * np.sin(np.pi * x)[None, :]
         + 2.0 / 3.0 * (eta2 - 1.0)[:, None] * (x - 0.5)[None, :])
    noise = 0.1 * rng.standard_normal((n, p))
    values = _design_mean("m2", n, p)[None, :] + z + noise
    return FunctionalSample(grid=grid, values=values)


def gen_model3(n: int, p: int, seed_or_rng=0, hypothesis: str = "h0") -> FunctionalSample:
    """Linear trend (optionally plus the scaled bump) with the same Gaussian
    curve process as model 1."""
    _check_choice("hypothesis", hypothesis, ("h0", "hn"))
    rng, grid = _rng_and_grid(n, p, seed_or_rng)
    values = _design_mean(f"m3-{hypothesis}", n, p)[None, :] + _ou_curves(n, p, rng)
    return FunctionalSample(grid=grid, values=values)


# model name -> (generator(n, p, rng), mean(x, n), covariance(x, x')); the
# lambdas look the generators up at call time, so a wrapped generator runs.
_MODELS = {
    "m1": (lambda n, p, rng: gen_model1(n, p, rng), lambda x, n: m1_mean(x), ou_covariance),
    "m2": (lambda n, p, rng: gen_model2(n, p, rng), lambda x, n: m2_mean(x), m2_covariance),
    "m3-h0": (lambda n, p, rng: gen_model3(n, p, rng, "h0"),
              lambda x, n: np.array(x, dtype=float), ou_covariance),
    "m3-hn": (lambda n, p, rng: gen_model3(n, p, rng, "hn"), m3_mean, ou_covariance),
}


def _model(name: str) -> tuple:
    _check_choice("model", name, _MODELS)
    return _MODELS[name]


def true_mean(model: str, x: np.ndarray, n: int) -> np.ndarray:
    return _model(model)[1](x, n)


def analytic_covariance(model: str):
    """Closed-form covariance of the curve process (measurement noise excluded)."""
    return _model(model)[2]


def generate(model: str, n: int, p: int, seed_or_rng=0) -> FunctionalSample:
    return _model(model)[0](n, p, seed_or_rng)


@dataclass(frozen=True)
class ModelSpec:
    model: str              # m1 | m2 | m3-h0 | m3-hn
    n: int
    p: int
    h: float
    kernel: str = "epanechnikov"
    level: float = 0.05     # gamma for bands, alpha for tests
    reps: int = 2000
    seed: int = 0
    grid_size: int = 100
    paths: int | None = None
    bootstraps: int = 2500

    def __post_init__(self):
        _model(self.model)
        _check_choice("kernel", self.kernel, _KERNELS)
        _check_level(self.level)
        _bandwidth(self.h)
        for name, low in (("seed", 0), ("n", 2), ("p", 2), ("reps", 0), ("grid_size", 1)):
            _check_int(name, getattr(self, name), low)
        _check_draws("paths", self.paths if self.paths is not None else default_path_count(self.p),
                     self.grid_size, 100)
        _check_draws("bootstraps", self.bootstraps, self.n)


@dataclass(frozen=True)
class ExperimentRow:
    model: str
    method: str
    n: int
    p: int
    h: float
    level: float
    reps: int
    seed: int
    rate: float             # coverage (bands) or rejection rate (tests)
    median_threshold: float
    stderr: float
    failures: int
    flagged: bool
    wall_time: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ExperimentTable:
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps([r.to_dict() for r in self.rows])

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = list(ExperimentRow.__dataclass_fields__)
        writer = csv.DictWriter(buf, fieldnames=names)
        writer.writeheader()
        for r in self.rows:
            writer.writerow(r.to_dict())
        return buf.getvalue()


# The design-only pieces of an experiment, each built at most once per process
# and configuration: a plan by (kind, p, grid_size, the _bandwidth tuple of h,
# kernel), the known factor by (model, p, n) and the true mean by (model,
# grid_size, n).  A plan holds m x p or p x p tables, so each cache keeps only
# a few configurations.  Three is enough for what the package runs: the
# sim-gauss and sim-boot-plrt method lists read two plans each, and a Table 3
# or 4 sweep (bandwidths outer, the four tests inner) two at a time
# (tests/test_simlab.py counts the builds).  A piece that raises is not
# cached, so each replication that needs it fails again.
_PLAN_CONFIGS = 3


@lru_cache(maxsize=1)
def _line() -> BasisModel:
    """The straight-line null model of the gof and PLRT methods."""
    return polynomial_basis(1)


@lru_cache(maxsize=_PLAN_CONFIGS)
def _eval_grid(grid_size: int) -> EvalGrid:
    return make_eval_grid(grid_size)


@lru_cache(maxsize=_PLAN_CONFIGS)
def _eval_mean(model: str, grid_size: int, n: int) -> np.ndarray:
    """The mean of ``model`` on the evaluation grid of size grid_size, read-only."""
    mean = true_mean(model, _eval_grid(grid_size).points, n)
    mean.setflags(write=False)
    return mean


@lru_cache(maxsize=_PLAN_CONFIGS)
def _cached_plan(kind: str, p: int, grid_size: int, h: tuple, kernel: str) -> _Plan:
    """The ``kind`` of plan (band, gof or plrt) on the uniform design of size p,
    with the line as the null model of gof and PLRT."""
    design, eval = _uniform_grid(p), _eval_grid(grid_size)
    if kind == "band":
        return _Plan.of(design, eval, h, kernel)
    if kind == "gof":
        return _gof_plan(_line(), design, eval, h, kernel)
    return _plrt_plan(_line(), design, h, kernel)


@lru_cache(maxsize=_PLAN_CONFIGS)
def _known_factor(model: str, p: int, n: int) -> np.ndarray:
    """The factor of the model's covariance over n on the uniform design of size p."""
    x = _uniform_grid(p).points
    return _sigma_factor(analytic_covariance(model)(x[:, None], x[None, :]) / n)


def _experiment_plan(spec: ModelSpec, method: str) -> _Plan:
    """The cached plan of what ``method`` reads from the design alone."""
    kind = "plrt" if method in _PLRT_MODES else "gof" if method == "gof-scb" else "band"
    plan = _cached_plan(kind, spec.p, spec.grid_size, _bandwidth(spec.h), spec.kernel)
    if method == "plrt-known":
        plan = replace(plan, known=_known_factor(spec.model, spec.p, spec.n))
    return plan


def _rep_rngs(seed: int, reps: int):
    for child in np.random.SeedSequence(seed).spawn(reps):
        data_ss, sup_ss = child.spawn(2)
        rng = np.random.Generator(np.random.Philox(data_ss))
        sup_seed = int(sup_ss.generate_state(1, np.uint64)[0])
        yield rng, sup_seed


def run_experiment(spec: ModelSpec, method: str) -> ExperimentRow:
    """Replication loop producing one coverage/size/power table row."""
    _check_type("spec", spec, ModelSpec)
    _check_choice("method", method, METHODS)
    paths = spec.paths if spec.paths is not None else default_path_count(spec.p)
    start = time.perf_counter()
    hits = 0
    failures = 0
    thresholds = []
    eval, truth = _eval_grid(spec.grid_size), _eval_mean(spec.model, spec.grid_size, spec.n)
    plan = None     # built by replication 1, again while it raises

    for rng, sup_seed in _rep_rngs(spec.seed, spec.reps):
        sample = generate(spec.model, spec.n, spec.p, rng)
        try:
            plan = plan or _experiment_plan(spec, method)
            if method == "normal-scb":
                band = normal_scb(sample, eval, spec.h, spec.kernel, spec.level, paths, sup_seed,
                                  _plan=plan)
                hits += band_covers(band, truth)
                thresholds.append(band.threshold)
            elif method == "bootstrap-scb":
                band = bootstrap_scb(sample, eval, spec.h, spec.kernel, spec.level,
                                     spec.bootstraps, sup_seed, _plan=plan)
                hits += band_covers(band, truth)
                thresholds.append(band.threshold)
            elif method == "gof-scb":
                report = scb_gof_test(sample, _line(), eval, spec.h, spec.kernel, spec.level,
                                      paths, sup_seed, _plan=plan)
                hits += report.reject
                thresholds.append(report.threshold)
            else:
                report = plrt_test(sample, _line(), spec.h, spec.kernel, _PLRT_MODES[method],
                                   _plan=plan)
                hits += report.pvalue < spec.level
                thresholds.append(float("nan"))
        except FuncbandError:
            failures += 1
    wall = time.perf_counter() - start
    done = spec.reps - failures
    if done == 0:
        rate, med, se = float("nan"), float("nan"), float("nan")
    else:
        rate = hits / done
        finite = [t for t in thresholds if np.isfinite(t)]
        med = float(np.median(finite)) if finite else float("nan")
        se = sqrt(rate * (1.0 - rate) / done)
    flagged = failures > 0.01 * spec.reps
    return ExperimentRow(
        model=spec.model, method=method, n=spec.n, p=spec.p, h=spec.h,
        level=spec.level, reps=spec.reps, seed=spec.seed, rate=rate,
        median_threshold=med, stderr=se, failures=failures, flagged=flagged,
        wall_time=wall,
    )


def known_R_threshold(
    model: str, grid_size: int = 100, gamma: float = 0.05,
    paths: int = 50000, seed: int = 0,
    p: int | None = None, h: float | None = None,
) -> float:
    """Sup-norm threshold from the model's closed-form covariance.

    Without smoothing arguments the correlation of the raw process is used.
    When ``p`` and ``h`` are given the threshold is calibrated to the local
    linear estimator itself: the covariance is pushed through the smoother,
    W R W', before taking its correlation, which is what the estimator's
    Gaussian limit on a finite design actually exhibits.
    """
    eval = make_eval_grid(grid_size)
    cov_fn = analytic_covariance(model)
    if (p is None) != (h is None):
        raise FuncbandError("p and h must be given together")
    if p is not None:
        _check_int("p", p, 2, GridError)
        w = _cached_plan("band", p, grid_size, _bandwidth(h), "epanechnikov").w
        xd = _uniform_grid(p).points
        r = w @ cov_fn(xd[:, None], xd[None, :]) @ w.T
    else:
        x = eval.points
        r = cov_fn(x[:, None], x[None, :])
    return sup_quantile(SupQuantileRequest(correlation_from_covariance(r), gamma, paths,
                                           seed)).threshold
