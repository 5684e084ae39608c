"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (to the real stdout, bypassing capture)
so the gate's outcome is visible in any runner.
"""

import sys
import time

import numpy as np
import pytest

from conftest import oracle_weights_1d, oracle_weights_2d

from funcband import (
    FunctionalSample,
    IllPosedBandwidthError,
    SupQuantileRequest,
    ls_fit,
    local_linear_weights,
    make_design_grid,
    make_eval_grid,
    normal_scb,
    bootstrap_scb,
    gamma_n_plugin,
    limit_gamma,
    plrt_pvalue,
    plrt_statistic,
    polynomial_basis,
    sup_quantile,
    two_sample_scb,
    uniform_design_grid,
)
from funcband.simlab import (
    ModelSpec,
    gen_model1,
    gen_model3,
    known_R_threshold,
    ou_covariance,
    run_experiment,
)
from funcband.smoothing import weight_matrix

pytestmark = pytest.mark.acceptance


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # the per-criterion PASS/FAIL lines must reach the terminal even under
    # pytest's default output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.stdout, flush=True)
    assert ok, line


@pytest.mark.slow
def test_criterion_1_mean_band_coverage_table():
    targets = {
        (20, 20, 0.1): (0.957, 3.11),
        (50, 50, 0.05): (0.962, 3.01),
        (100, 100, 0.05): (0.961, 2.92),
    }
    start = time.perf_counter()
    details = []
    ok = True
    for i, ((n, p, h), (cov_t, c_t)) in enumerate(targets.items()):
        spec = ModelSpec(model="m1", n=n, p=p, h=h, reps=2000, seed=100 + i)
        row = run_experiment(spec, "normal-scb")
        good = abs(row.rate - cov_t) <= 0.02 and abs(row.median_threshold - c_t) <= 0.15
        ok &= good and row.failures == 0
        details.append(f"({n},{p},{h}): cov {row.rate:.3f} vs {cov_t}, "
                       f"med c {row.median_threshold:.3f} vs {c_t}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1200.0
    _report(1, "mean-band coverage table", ok,
            "; ".join(details) + f"; wall {elapsed:.0f}s < 1200s")


def test_criterion_2_known_covariance_threshold():
    c = known_R_threshold("m1", grid_size=100, gamma=0.05, paths=50000, seed=0,
                          p=50, h=0.05)
    ok = abs(c - 2.73) <= 0.08
    _report(2, "known-covariance threshold", ok, f"c = {c:.3f} vs 2.73 +/- 0.08")


@pytest.mark.slow
def test_criterion_3_bootstrap_vs_normal_small_n():
    spec = ModelSpec(model="m2", n=10, p=50, h=0.05, reps=500, seed=300,
                     bootstraps=500)
    normal = run_experiment(spec, "normal-scb")
    boot = run_experiment(spec, "bootstrap-scb")
    ok = (abs(normal.rate - 0.713) <= 0.05
          and abs(boot.rate - 0.941) <= 0.05
          and boot.rate - normal.rate >= 0.1)
    _report(3, "bootstrap repairs small-n coverage", ok,
            f"normal {normal.rate:.3f} vs 0.713, bootstrap {boot.rate:.3f} vs 0.941, "
            f"gap {boot.rate - normal.rate:.3f} >= 0.1")


@pytest.mark.slow
def test_criterion_4_lack_of_fit_size():
    spec = ModelSpec(model="m3-h0", n=50, p=50, h=0.035, reps=2000, seed=400)
    scb = run_experiment(spec, "gof-scb")
    known = run_experiment(spec, "plrt-known")
    npar = run_experiment(spec, "plrt-np")
    ok = (abs(scb.rate - 0.053) <= 0.02
          and abs(known.rate - 0.050) <= 0.01
          and abs(npar.rate - 0.049) <= 0.02)
    _report(4, "lack-of-fit type-I rates", ok,
            f"scb {scb.rate:.3f} vs 0.053+/-0.02, plrt-known {known.rate:.3f} vs "
            f"0.050+/-0.01, plrt-np {npar.rate:.3f} vs 0.049+/-0.02")


@pytest.mark.slow
def test_criterion_5_local_alternative_power():
    spec = ModelSpec(model="m3-hn", n=50, p=50, h=0.05, reps=1000, seed=500)
    scb = run_experiment(spec, "gof-scb")
    plrts = {m: run_experiment(spec, m) for m in ("plrt-known", "plrt-np", "plrt-ar1")}
    ok = (scb.rate >= 0.95
          and abs(plrts["plrt-known"].rate - 0.232) <= 0.07
          and all(scb.rate - r.rate >= 0.4 for r in plrts.values()))
    _report(5, "power against the local bump", ok,
            f"scb {scb.rate:.3f} >= 0.95; plrt-known {plrts['plrt-known'].rate:.3f} "
            f"vs 0.232+/-0.07; margins "
            + ", ".join(f"{m} +{scb.rate - r.rate:.3f}" for m, r in plrts.items()))


def test_criterion_6_sup_quantile_closed_forms():
    from scipy.stats import norm
    one = sup_quantile(SupQuantileRequest(np.eye(1), 0.05, 100000, 60))
    ok1 = abs(one.threshold - 1.959964) <= 3 * one.stderr
    target = norm.ppf((1 + 0.95 ** 0.01) / 2)
    ind = sup_quantile(SupQuantileRequest(np.eye(100), 0.05, 50000, 61))
    ok2 = abs(ind.threshold - target) <= 3 * ind.stderr
    _report(6, "closed-form sup-quantiles", ok1 and ok2,
            f"1-pt {one.threshold:.4f} vs 1.9600 (3se {3 * one.stderr:.4f}); "
            f"iid-100 {ind.threshold:.4f} vs {target:.4f} (3se {3 * ind.stderr:.4f})")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(70)
    worst = 0.0
    done_1d = done_2d = 0
    while done_1d < 500:
        p = int(rng.integers(6, 200))
        x, h = float(rng.uniform()), float(rng.uniform(0.05, 0.5))
        try:
            w = local_linear_weights(uniform_design_grid(p), x, h).dense(p)
        except IllPosedBandwidthError:
            continue
        grid_pts = uniform_design_grid(p).points
        worst = max(worst, abs(w.sum() - 1.0), abs(w @ grid_pts - x))
        done_1d += 1
    while done_2d < 500:
        p1, p2 = int(rng.integers(5, 14)), int(rng.integers(5, 14))
        x = rng.uniform(0.1, 0.9, 2)
        h = rng.uniform(0.25, 0.6, 2)
        grid = make_design_grid(("uniform", "uniform"), (p1, p2))
        try:
            w = local_linear_weights(grid, tuple(x), tuple(h)).dense(grid.n_points)
        except Exception:
            continue
        worst = max(worst, abs(w.sum() - 1.0),
                    abs(w @ grid.points[:, 0] - x[0]), abs(w @ grid.points[:, 1] - x[1]))
        done_2d += 1
    ok_weights = worst < 1e-10

    sample = gen_model3(10, 30, seed_or_rng=71)
    fit = ls_fit(sample, polynomial_basis(1))
    refit = ls_fit(FunctionalSample(grid=sample.grid,
                                    values=np.tile(fit.fitted_design, (2, 1))),
                   polynomial_basis(1))
    ok_proj = np.abs(refit.theta - fit.theta).max() < 1e-10

    eval = make_eval_grid(50)
    band = normal_scb(gen_model1(20, 30, seed_or_rng=72), eval, 0.1, seed=72)
    ok_sym = (np.array_equal(band.upper, band.center + band.half_width)
              and np.array_equal(band.lower, band.center - band.half_width))

    s = gen_model1(20, 30, seed_or_rng=73)
    a = normal_scb(s, eval, 0.1, seed=73)
    b = normal_scb(s, eval, 0.1, seed=73)
    ba = bootstrap_scb(s, eval, 0.1, bootstraps=400, seed=73)
    bb = bootstrap_scb(s, eval, 0.1, bootstraps=400, seed=73)
    ok_det = (a.threshold == b.threshold and np.array_equal(a.half_width, b.half_width)
              and ba.threshold == bb.threshold)

    ok = ok_weights and ok_proj and ok_sym and ok_det
    _report(7, "structural invariants", ok,
            f"weights worst dev {worst:.2e} < 1e-10 (500 triples each in d=1,2); "
            f"projection idempotent {ok_proj}; band symmetric {ok_sym}; "
            f"seed-deterministic {ok_det}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(80)
    worst_w = 0.0
    done = 0
    while done < 100:
        p = int(rng.integers(6, 150))
        x, h = float(rng.uniform()), float(rng.uniform(0.05, 0.5))
        grid = uniform_design_grid(p)
        try:
            w = local_linear_weights(grid, x, h).dense(p)
        except IllPosedBandwidthError:
            continue
        worst_w = max(worst_w, np.abs(w - oracle_weights_1d(grid.points, x, h)).max())
        done += 1
    done = 0
    while done < 30:
        grid = make_design_grid(("uniform", "uniform"),
                                (int(rng.integers(5, 12)), int(rng.integers(5, 12))))
        x = rng.uniform(0.15, 0.85, 2)
        h = rng.uniform(0.3, 0.6, 2)
        try:
            w = local_linear_weights(grid, tuple(x), tuple(h)).dense(grid.n_points)
        except Exception:
            continue
        worst_w = max(worst_w, np.abs(w - oracle_weights_2d(grid.points, x, tuple(h))).max())
        done += 1
    ok_w = worst_w < 1e-9

    # PLRT p-value vs 1e6-draw Monte Carlo on random 5x5 quadratic forms
    worst_p = 0.0
    for trial in range(5):
        m = rng.standard_normal((5, 5))
        a_mat = 0.5 * (m + m.T)
        root = rng.standard_normal((5, 5)) / np.sqrt(5.0)
        sigma = root @ root.T
        p_exact = plrt_pvalue(a_mat, sigma)
        z = rng.standard_normal((1000000, 5)) @ root.T
        mc = float(np.mean(np.einsum("ij,jk,ik->i", z, a_mat, z) > 0))
        worst_p = max(worst_p, abs(p_exact - mc))
    ok_p = worst_p < 0.01

    # limit-covariance quadrature vs 5000-curve plug-in, both seen through the
    # same h=0.02 smoother on the p=200 design
    model = polynomial_basis(1)
    eval = make_eval_grid(50)
    grid = uniform_design_grid(200)
    lim = limit_gamma(ou_covariance, model, grid)
    w = weight_matrix(grid, eval, 0.02)
    lim_diag = np.diag(w @ lim @ w.T)
    plug, _ = gamma_n_plugin(gen_model3(5000, 200, seed_or_rng=81), model, eval,
                             0.02, shrinkage=False)
    rel = np.abs(np.diag(plug) - lim_diag) / lim_diag
    ok_g = rel.max() < 0.10

    _report(8, "oracle equivalence", ok_w and ok_p and ok_g,
            f"weights vs formula oracle {worst_w:.2e} < 1e-9 (130 configs); "
            f"plrt p vs 1e6-draw MC {worst_p:.4f} < 0.01 (5 instances); "
            f"limit-Gamma diag rel dev {rel.max():.3f} < 0.10")


@pytest.mark.slow
def test_criterion_9_two_sample_comparison():
    eval = make_eval_grid(100)
    ok_same = True
    ok_shift = True
    for rep in range(20):
        a = gen_model1(50, 50, seed_or_rng=9000 + rep)
        res = two_sample_scb(a, a, eval, 0.05, 0.05, seed=90)
        ok_same &= not res.reject
        b = gen_model1(50, 50, seed_or_rng=9500 + rep)
        shifted = FunctionalSample(grid=b.grid, values=b.values + 1.0)
        res = two_sample_scb(a, shifted, eval, 0.05, 0.05, seed=91)
        ok_shift &= res.reject
    rejects = 0
    for rep in range(500):
        a = gen_model1(50, 50, seed_or_rng=20000 + 2 * rep)
        b = gen_model1(50, 50, seed_or_rng=20001 + 2 * rep)
        rejects += two_sample_scb(a, b, eval, 0.05, 0.05, seed=92).reject
    rate = rejects / 500
    ok_rate = abs(rate - 0.05) <= 0.03
    _report(9, "two-sample comparison", ok_same and ok_shift and ok_rate,
            f"same-sample rejects 0/20; unit-shift rejects 20/20 "
            f"({ok_same}/{ok_shift}); equal-mean rate {rate:.3f} vs 0.05+/-0.03")
