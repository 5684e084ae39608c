"""Pseudo-likelihood-ratio lack-of-fit benchmark: statistic, Imhof p-value
calibration, AR(1) covariance fit, and null-distribution sanity."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import funcband.plrt as plrt_module
from funcband import simlab
from funcband import (
    DegenerateVarianceError,
    FuncbandError,
    FunctionalSample,
    IntegrationError,
    SampleValidationError,
    ar1_covariance_fit,
    plrt_pvalue,
    plrt_statistic,
    plrt_test,
    polynomial_basis,
    uniform_design_grid,
)
from funcband.grids import DesignGrid
from funcband.moments import empirical_data_covariance
from funcband.simlab import ModelSpec, gen_model3, m2_covariance, ou_covariance


def _eigh_pvalue(a_mat, sigma_over_n):
    """The p-value through the clipped eigendecomposition of Sigma/n."""
    vals, vecs = np.linalg.eigh(sigma_over_n)
    return plrt_module._factor_pvalue(a_mat, vecs * np.sqrt(np.clip(vals, 0.0, None)), None)


class TestPvalueCalibration:
    def test_matches_monte_carlo(self):
        # [DERIVED] P(z'Az > 0) by direct simulation for quadratic forms of
        # the shape the test actually produces (A from real 5-point fits)
        rng = np.random.default_rng(1)
        grid = uniform_design_grid(5)
        sigma = ou_covariance(grid.points[:, None], grid.points[None, :]) / 20.0
        root = np.linalg.cholesky(sigma)
        for trial in range(3):
            sample = gen_model3(20, 5, seed_or_rng=900 + trial)
            _f, a_mat, _ = plrt_statistic(sample, polynomial_basis(1), 0.45)
            p = plrt_pvalue(a_mat, sigma)
            z = rng.standard_normal((400000, 5)) @ root.T
            mc = float(np.mean(np.einsum("ij,jk,ik->i", z, a_mat, z) > 0))
            assert abs(p - mc) < 0.012

    def test_negative_definite_gives_zero(self):
        p = plrt_pvalue(-np.eye(4), np.eye(4))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_form_errors(self):
        # Sigma/n lies in the null space of A: every eigenvalue of F'AF is 0
        a_mat = np.diag([0.0, 0.0, 1.0])
        sigma = np.diag([1.0, 2.0, 0.0])
        with pytest.raises(FuncbandError, match="degenerate"):
            plrt_pvalue(a_mat, sigma)

    @pytest.mark.parametrize("case, named", [
        ("nan in A", "non-finite"), ("nan in Sigma/n", "non-finite"),
        ("asymmetric Sigma/n", "Sigma/n table is not symmetric"), ("sizes", "3 x 3 but")])
    def test_tables_checked(self, case, named):
        a_mat, sigma = np.diag([1.0, -1.0, 0.5]), np.eye(3)
        if case == "nan in A":
            a_mat[0, 1] = a_mat[1, 0] = np.nan
        elif case == "nan in Sigma/n":
            sigma[2, 2] = np.nan
        elif case == "asymmetric Sigma/n":
            sigma[1, 0] = 0.5
        else:
            sigma = np.eye(4)
        with pytest.raises(FuncbandError, match=named):
            plrt_pvalue(a_mat, sigma)

    def test_singular_sigma_matches_its_factor(self):
        # Sigma/n = F F' of rank 4 on 12 points defeats Cholesky; the root
        # that replaces it gives the p-value of F itself
        rng = np.random.default_rng(16)
        factor = rng.standard_normal((12, 4))
        a = rng.standard_normal((12, 12))
        a_mat = a + a.T
        sigma = factor @ factor.T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        p = plrt_pvalue(a_mat, sigma)
        assert 0.0 < p < 1.0
        assert p == pytest.approx(plrt_module._factor_pvalue(a_mat, factor, None), abs=1e-12)


def _quad_positive_tail(lam):
    """The Imhof p-value by scipy's QUADPACK on the unmapped integral."""
    lam = lam / np.abs(lam).max()

    def integrand(u):
        theta = 0.5 * np.arctan(lam * u).sum()
        return np.sin(theta) * np.exp(-0.25 * np.log1p((lam * u) ** 2).sum()) / u

    val, _ = quad(integrand, 0.0, np.inf, limit=2000, epsabs=1e-13, epsrel=0.0)
    return 0.5 + val / np.pi


def _oracle_integrand(t, lam):
    """The integrand as first written: four (nodes x k) arrays."""
    x = ((1.0 - t) / t)[:, None] * lam[None, :]
    theta = 0.5 * np.arctan(x).sum(axis=1)
    log_rho = 0.25 * np.log1p(x * x).sum(axis=1)
    return np.sin(theta) * np.exp(-log_rho) / (t * (1.0 - t))


def _oracle_positive_tail(lambdas):
    """The adaptive G7/K15 loop as first written, every round's nodes built
    from its panels: the bit-for-bit oracle of ``_imhof_positive_tail``."""
    m = plrt_module
    lam = np.asarray(lambdas, dtype=float)
    lam = lam / np.abs(lam).max()
    lam = lam / np.sqrt(np.mean(lam * lam))
    edges = np.linspace(0.0, 1.0, m._IMHOF_PANELS + 1)
    new_lo, new_hi = edges[:-1], edges[1:]
    lo = hi = val = err = np.empty(0)
    for rounds in range(1, m._IMHOF_ROUNDS + 1):
        mid, half = 0.5 * (new_lo + new_hi), 0.5 * (new_hi - new_lo)
        f = _oracle_integrand((mid[:, None] + half[:, None] * m._GK_NODES).ravel(), lam)
        f = f.reshape(-1, m._GK_NODES.size)
        rules = half[:, None] * (f @ m._GK_RULES) / np.pi
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        val = np.concatenate([val, rules[:, 0]])
        err = np.concatenate([err, np.abs(rules[:, 1])])
        abserr = err.sum()
        if abserr <= m._IMHOF_TOL:
            return float(min(max(0.5 + val.sum(), 0.0), 1.0)), float(abserr), rounds
        order = np.argsort(err)
        split = np.zeros(err.size, dtype=bool)
        split[order[np.cumsum(err[order]) > 0.5 * m._IMHOF_TOL]] = True
        if lo.size + split.sum() > m._IMHOF_MAX_PANELS:
            break
        a, b = lo[split], hi[split]
        new_lo, new_hi = np.concatenate([a, 0.5 * (a + b)]), np.concatenate([0.5 * (a + b), b])
        keep = ~split
        lo, hi, val, err = lo[keep], hi[keep], val[keep], err[keep]
    raise AssertionError("the oracle did not converge")


class TestImhofIntegral:
    def test_matches_quadpack(self):
        # random mixed-sign spectra, magnitudes spread over e^-6
        rng = np.random.default_rng(20)
        for _ in range(120):
            k = int(rng.integers(2, 61))
            lam = np.exp(-rng.uniform(0.0, 6.0, k)) * rng.choice([-1.0, 1.0], k)
            lam[:2] = np.abs(lam[:2]) * (1.0, -1.0)
            p, abserr = plrt_module._imhof_positive_tail(rng.uniform(0.1, 10.0) * lam)
            assert p == pytest.approx(_quad_positive_tail(lam), abs=1e-11)
            assert 0.0 <= abserr <= 1e-12

    @pytest.mark.parametrize("ratio", [1.0, 1e-3, 1e-7, 1e-11, 1e-15])
    def test_two_term_closed_form(self, ratio):
        # [DERIVED] W1/W2 ~ F(1,1): P(W1 - r W2 > 0) = 1 - (2/pi) arctan(sqrt(r));
        # the small ratios put the integrand's last feature near u = 1/r
        exact = 1.0 - 2.0 / np.pi * np.arctan(np.sqrt(ratio))
        p, _ = plrt_module._imhof_positive_tail(np.array([1.0, -ratio]))
        assert p == pytest.approx(exact, abs=1e-11)
        q, _ = plrt_module._imhof_positive_tail(np.array([-1.0, ratio]))
        assert q == pytest.approx(1.0 - exact, abs=1e-11)

    def test_equals_the_oracle_loop(self, monkeypatch):
        # the spectra of m3-hn samples in all three covariance modes, and two
        # two-term spectra whose far feature at u = 1/r needs refinement
        spectra = [np.array([1.0, -1e-6]), np.array([-1.0, 1e-11])]
        imhof = plrt_module._imhof_positive_tail

        def record(lam):
            spectra.append(lam.copy())
            return imhof(lam)

        monkeypatch.setattr(plrt_module, "_imhof_positive_tail", record)
        for seed in range(20):
            sample = gen_model3(50, 50, seed_or_rng=seed, hypothesis="hn")
            x = sample.grid.points
            for mode in ("known", "nonparametric", "parametric-ar1"):
                plrt_test(sample, polynomial_basis(1), 0.05, "epanechnikov", mode,
                          ou_covariance(x[:, None], x[None, :]))
        assert len(spectra) == 62
        rounds = []
        for lam in spectra:
            p, abserr, n_rounds = _oracle_positive_tail(lam)
            assert imhof(lam) == (p, abserr)
            rounds.append(n_rounds)
        assert rounds[0] > 1 and rounds[1] > 1

    def test_refinement_budget_exhausted_errors(self, monkeypatch):
        monkeypatch.setattr(plrt_module, "_IMHOF_ROUNDS", 1)
        with pytest.raises(IntegrationError, match=r"error estimate .* above the tolerance"):
            plrt_module._imhof_positive_tail(np.array([1.0, -1e-6]))

    @pytest.mark.parametrize("mode", ["known", "nonparametric", "parametric-ar1"])
    def test_test_spectra_need_no_refinement(self, mode, monkeypatch):
        # scaled to unit RMS, the spectra of m3-hn samples converge on the
        # starting panels; scaled by their largest |lambda| most need a second round
        monkeypatch.setattr(plrt_module, "_IMHOF_ROUNDS", 1)
        for seed in range(3):
            sample = gen_model3(50, 50, seed_or_rng=seed, hypothesis="hn")
            x = sample.grid.points
            report = plrt_test(sample, polynomial_basis(1), 0.05, "epanechnikov", mode,
                               ou_covariance(x[:, None], x[None, :]))
            assert 0.0 <= report.pvalue <= 1.0

    def test_report_carries_error_estimate(self):
        sample = gen_model3(50, 50, seed_or_rng=3)
        report = plrt_test(sample, polynomial_basis(1), 0.05)
        assert 0.0 < report.pvalue < 1.0
        assert 0.0 < report.diagnostics["imhof_abserr"] <= 1e-12
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["diagnostics"]["imhof_abserr"] == report.diagnostics["imhof_abserr"]

    def test_same_sign_spectrum_is_exact(self):
        info = {}
        p = plrt_pvalue(-np.eye(4), np.eye(4), info)
        assert p == 0.0 and info["imhof_abserr"] == 0.0
        # [DERIVED] A = Sigma/n = I_3: z'z > 0 almost surely
        assert plrt_pvalue(np.eye(3), np.eye(3)) == 1.0

    @pytest.mark.parametrize("bad", ["x", [1], np.zeros(3), 0, ()])
    def test_diagnostics_must_be_a_dict(self, bad):
        # a string or list raised TypeError, an array IndexError
        with pytest.raises(FuncbandError, match="diagnostics"):
            plrt_pvalue(-np.eye(4), np.eye(4), diagnostics=bad)


def test_runs_without_scipy():
    # PLRT and the truncated-Gaussian kernel use numpy and the standard
    # library only; scipy is a test dependency
    code = (
        "import sys\n"
        "from funcband import fit_mean, make_eval_grid, plrt_test, polynomial_basis\n"
        "from funcband.simlab import gen_model3\n"
        "s = gen_model3(20, 30, seed_or_rng=1)\n"
        "r = plrt_test(s, polynomial_basis(1), 0.1)\n"
        "fit_mean(s, make_eval_grid(40), 0.1, 'gauss')\n"
        "assert 0.0 <= r.pvalue <= 1.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(plrt_module.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestStatistic:
    def test_linear_mean_is_degenerate(self):
        # smoother reproduces lines exactly, so RSS_1 = 0
        grid = uniform_design_grid(40)
        line = 0.2 + 1.3 * grid.points
        sample = FunctionalSample(grid=grid, values=np.tile(line, (3, 1)))
        with pytest.raises(DegenerateVarianceError):
            plrt_statistic(sample, polynomial_basis(1), 0.1)

    def test_perfect_null_fit_accepts(self):
        # [DERIVED] quadratic mean under a quadratic null: RSS_0 = 0, F = -1,
        # A is positive semidefinite, p-value 1
        grid = uniform_design_grid(40)
        quad = 1.0 + grid.points - 2.0 * grid.points**2
        sample = FunctionalSample(grid=grid, values=np.tile(quad, (3, 1)))
        f_stat, a_mat, _ = plrt_statistic(sample, polynomial_basis(2), 0.1)
        assert f_stat == pytest.approx(-1.0, abs=1e-9)
        report = plrt_test(sample, polynomial_basis(2), 0.1,
                           covariance_mode="known", known_covariance=np.eye(40))
        assert report.pvalue == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_null_span_shift(self):
        sample = gen_model3(20, 40, seed_or_rng=2)
        shifted = FunctionalSample(grid=sample.grid,
                                   values=sample.values + (1.5 - 0.7 * sample.grid.points))
        f0, _, _ = plrt_statistic(sample, polynomial_basis(1), 0.08)
        f1, _, _ = plrt_statistic(shifted, polynomial_basis(1), 0.08)
        assert f1 == pytest.approx(f0, rel=1e-9)

    def test_statistic_above_minus_one(self):
        for rep in range(5):
            sample = gen_model3(10, 30, seed_or_rng=100 + rep)
            f_stat, _, _ = plrt_statistic(sample, polynomial_basis(1), 0.1)
            assert f_stat >= -1.0


class TestFactorRoutes:
    # every factor of Sigma/n gives the p-value of the eigendecomposition route
    def test_cholesky_route(self):
        sample = gen_model3(30, 40, seed_or_rng=31, hypothesis="hn")
        x = sample.grid.points
        sigma = ou_covariance(x[:, None], x[None, :]) / 30
        np.linalg.cholesky(sigma)  # positive definite: no fallback
        for h in (0.05, 0.08, 0.15):
            _f, a_mat, _ = plrt_statistic(sample, polynomial_basis(1), h)
            assert plrt_pvalue(a_mat, sigma) == pytest.approx(_eigh_pvalue(a_mat, sigma),
                                                              abs=1e-12)

    @pytest.mark.parametrize("rank", [2, 20])
    def test_eigh_fallback_route(self, rank):
        # rank 2: m2's curve covariance; rank 20: the exponential covariance
        # cut to its top eigenpairs.  Cholesky fails on both.
        sample = gen_model3(30, 40, seed_or_rng=32)
        x = sample.grid.points
        if rank == 2:
            sigma = m2_covariance(x[:, None], x[None, :]) / 30
        else:
            vals, vecs = np.linalg.eigh(ou_covariance(x[:, None], x[None, :]) / 30)
            sigma = (vecs[:, -rank:] * vals[-rank:]) @ vecs[:, -rank:].T
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sigma)
        for h in (0.05, 0.08, 0.15):
            _f, a_mat, _ = plrt_statistic(sample, polynomial_basis(1), h)
            p = plrt_pvalue(a_mat, sigma)
            assert p == pytest.approx(_eigh_pvalue(a_mat, sigma), abs=1e-12)
            assert rank == 2 or 0.0 < p < 1.0

    @pytest.mark.parametrize("n", [8, 20])
    def test_data_factor_route(self, n):
        # n < p: the sample covariance has rank n - 1 < p
        for seed in range(3):
            sample = gen_model3(n, 40, seed_or_rng=33 + seed, hypothesis="hn")
            report = plrt_test(sample, polynomial_basis(1), 0.08)
            _f, a_mat, _ = plrt_statistic(sample, polynomial_basis(1), 0.08)
            sigma = empirical_data_covariance(sample, False)[0] / n
            assert report.pvalue == pytest.approx(_eigh_pvalue(a_mat, sigma), abs=1e-12)


class TestDesignPlan:
    @pytest.mark.parametrize("method", ["plrt-known", "plrt-np", "plrt-ar1"])
    def test_experiment_matches_plain_loop(self, method, monkeypatch, cold_caches):
        spec = ModelSpec(model="m3-hn", n=30, p=40, h=0.06, reps=25, seed=71, level=0.2)
        builds = []
        plan = simlab._plrt_plan
        monkeypatch.setattr(simlab, "_plrt_plan", lambda *a: builds.append(a) or plan(*a))
        row = simlab.run_experiment(spec, method)
        assert len(builds) == 1 and row.failures == 0
        # the plan is cached per configuration: another PLRT method on the spec builds none
        other = next(m for m in simlab._PLRT_MODES if m != method)
        assert simlab.run_experiment(spec, other).failures == 0 and len(builds) == 1
        mode = simlab._PLRT_MODES[method]
        x = uniform_design_grid(spec.p).points
        known = ou_covariance(x[:, None], x[None, :]) if mode == "known" else None
        basis = polynomial_basis(1)
        hits = 0
        for rng, _ in simlab._rep_rngs(spec.seed, spec.reps):
            sample = gen_model3(spec.n, spec.p, rng, "hn")
            report = plrt_test(sample, basis, spec.h, "epanechnikov", mode, known)
            _f, a_mat, _ = plrt_statistic(sample, basis, spec.h)
            sigma = {"known": known, "parametric-ar1": ar1_covariance_fit(sample)[2],
                     "nonparametric": empirical_data_covariance(sample, False)[0]}[mode]
            assert report.pvalue == pytest.approx(_eigh_pvalue(a_mat, sigma / spec.n), abs=1e-12)
            hits += report.pvalue < spec.level
        assert 0 < hits < spec.reps and row.rate == hits / spec.reps

    @pytest.mark.parametrize("mode", ["known", "nonparametric", "parametric-ar1"])
    def test_plan_is_bit_identical(self, mode):
        # in known mode the plan's factor stands for the covariance
        basis = polynomial_basis(1)
        for seed in range(3):
            sample = gen_model3(50, 50, seed_or_rng=75 + seed, hypothesis="hn")
            x = sample.grid.points
            known = ou_covariance(x[:, None], x[None, :])
            factor = plrt_module._sigma_factor(known / 50) if mode == "known" else None
            plan = replace(plrt_module._plrt_plan(basis, sample.grid, 0.05, "epanechnikov"),
                           known=factor)
            planned = plrt_test(sample, basis, 0.05, "epanechnikov", mode, _plan=plan)
            plain = plrt_test(sample, basis, 0.05, "epanechnikov", mode, known)
            assert (planned.statistic, planned.pvalue) == (plain.statistic, plain.pvalue)
            if mode != "nonparametric":
                _f, a_mat, _ = plrt_statistic(sample, basis, 0.05)
                sigma = known if mode == "known" else ar1_covariance_fit(sample)[2]
                assert plain.pvalue == plrt_pvalue(a_mat, sigma / 50)

    @pytest.mark.parametrize("points", [uniform_design_grid(30).points,
                                        np.linspace(0.01, 0.99, 40)])
    def test_plan_on_another_grid_rejected(self, points):
        line = polynomial_basis(1)
        plan = plrt_module._plrt_plan(line, DesignGrid((points,)), 0.1, "epanechnikov")
        sample = gen_model3(20, 40, seed_or_rng=72)
        with pytest.raises(FuncbandError, match="another design grid"):
            plrt_test(sample, line, 0.1, _plan=plan)

    def test_plan_on_an_equal_grid_accepted(self):
        # the plan's model is compared by identity, so both calls take one basis
        sample, line = gen_model3(20, 40, seed_or_rng=73), polynomial_basis(1)
        plan = plrt_module._plrt_plan(line, uniform_design_grid(40), 0.1, "epanechnikov")
        assert plan.design is not sample.grid
        assert plrt_test(sample, line, 0.1, _plan=plan) == plrt_test(sample, line, 0.1)

    @pytest.mark.parametrize("method", ["plrt-known", "plrt-np", "plrt-ar1"])
    def test_ill_posed_bandwidth_fails_every_replication(self, method):
        spec = ModelSpec(model="m3-h0", n=20, p=50, h=0.001, reps=4, seed=74)
        row = simlab.run_experiment(spec, method)
        assert row.failures == spec.reps and row.flagged and np.isnan(row.rate)


class TestAr1Fit:
    def test_iid_rows_rho_near_zero(self):
        rng = np.random.default_rng(3)
        grid = uniform_design_grid(50)
        sample = FunctionalSample(grid=grid, values=rng.standard_normal((200, 50)))
        s2, rho, cov = ar1_covariance_fit(sample)
        assert abs(rho) < 0.05
        assert s2 == pytest.approx(1.0, abs=0.1)
        np.testing.assert_allclose(np.diag(cov), s2, atol=1e-12)

    def test_recovers_exponential_decay(self):
        # [DERIVED] lag-1 autocorrelation of the curve process on a p-point
        # grid is 0.9^(20/p)
        sample = gen_model3(400, 50, seed_or_rng=4)
        _s2, rho, _ = ar1_covariance_fit(sample)
        assert abs(rho - 0.9 ** (20.0 / 50.0)) < 0.02

    @pytest.mark.parametrize("p", [2, 50, 201])
    @pytest.mark.parametrize("target", [-0.999, -0.3, 0.0, 0.5, 0.999])
    def test_table_is_the_power_of_each_lag(self, target, p):
        # residual rows +-target^j fit rho near target; rows of +-1 and of
        # +-(-1)^j fit +-1, clipped to +-0.999, and rows +-e_0 fit exactly 0
        base = (np.sign(target) if abs(target) == 0.999 else target) ** np.arange(p)
        sample = FunctionalSample(grid=uniform_design_grid(p), values=np.vstack([base, -base]))
        s2, rho, cov = ar1_covariance_fit(sample)
        if target in (-0.999, 0.0, 0.999):
            assert rho == target
        lags = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.array_equal(cov, s2 * rho**lags)

    def test_constant_rows_error(self):
        grid = uniform_design_grid(10)
        sample = FunctionalSample(grid=grid, values=np.ones((5, 10)))
        with pytest.raises(DegenerateVarianceError):
            ar1_covariance_fit(sample)


def test_interpolating_model_rejected():
    # L = p basis functions leave no residual: RSS_0 = 0, so F = -1 carries nothing
    grid = uniform_design_grid(4)
    sample = FunctionalSample(grid=grid, values=np.random.default_rng(0).normal(size=(10, 4)))
    with pytest.warns(UserWarning, match="not orthogonal"):
        model = polynomial_basis(3)
    with pytest.raises(DegenerateVarianceError, match="L=4 .* p=4"):
        plrt_test(sample, model, 0.6)


def test_nan_sample_rejected():
    sample = gen_model3(20, 30, seed_or_rng=5)
    values = sample.values.copy()
    values[2, 11] = np.nan
    with pytest.raises(SampleValidationError, match=r"curve 2.*point 11"):
        plrt_test(FunctionalSample(grid=sample.grid, values=values),
                  polynomial_basis(1), 0.1)


@pytest.mark.parametrize("case", ["nan", "wrong-size"])
def test_known_covariance_validated(case):
    sample = gen_model3(20, 30, seed_or_rng=0)
    x = sample.grid.points
    sigma = ou_covariance(x[:, None], x[None, :])
    if case == "nan":
        sigma[3, 3] = np.nan
    else:
        sigma = sigma[:29, :29]
    with pytest.raises(FuncbandError, match="non-finite" if case == "nan" else "size"):
        plrt_test(sample, polynomial_basis(1), 0.1, covariance_mode="known",
                  known_covariance=sigma)


@pytest.fixture(scope="module")
def null_pvalues():
    """p-values under the null with the true covariance supplied."""
    grid = uniform_design_grid(50)
    sigma = ou_covariance(grid.points[:, None], grid.points[None, :])
    model = polynomial_basis(1)
    pvals = []
    for rep in range(2000):
        sample = gen_model3(50, 50, seed_or_rng=50000 + rep)
        report = plrt_test(sample, model, 0.035,
                           covariance_mode="known", known_covariance=sigma)
        pvals.append(report.pvalue)
    return np.asarray(pvals)


class TestNullDistribution:
    @pytest.mark.slow
    def test_global_uniformity(self, null_pvalues):
        # with the exact CF-inversion p-value the null law is uniform up to
        # Monte Carlo noise
        assert kstest(null_pvalues, "uniform").statistic < 0.03

    @pytest.mark.slow
    def test_uniform_in_the_rejection_region(self, null_pvalues):
        # the fit is accurate where decisions are made: the left tail
        for alpha in (0.01, 0.05, 0.10):
            rate = float(np.mean(null_pvalues <= alpha))
            assert abs(rate - alpha) <= 0.02, (alpha, rate)
