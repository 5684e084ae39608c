"""Basis models, least-squares fit, residual process, plug-in and limit
covariances, and the sup-norm lack-of-fit test."""

import numpy as np
import pytest

from funcband import (
    DegenerateVarianceError,
    FunctionalSample,
    SupQuantileRequest,
    RankDeficiencyError,
    basis_model,
    gamma_n_plugin,
    limit_gamma,
    ls_fit,
    make_eval_grid,
    polynomial_basis,
    residual_process,
    scb_gof_test,
    sup_quantile,
    uniform_design_grid,
)
from funcband import bands, supnorm
from funcband.grids import EvalGrid
from funcband.moments import correlation_from_covariance
from funcband.simlab import bump_function, gen_model3
from funcband.smoothing import weight_matrix


class TestBasisModel:
    def test_polynomial_basis_is_orthonormal(self):
        model = polynomial_basis(3)
        x = np.linspace(0, 1, 4001)
        phi = model.matrix(x)
        gram = np.array([[np.trapezoid(phi[:, a] * phi[:, b], x) for b in range(4)]
                         for a in range(4)])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-5)

    def test_non_orthogonal_input_is_orthogonalized_with_warning(self):
        with pytest.warns(UserWarning, match="orthogonal"):
            model = basis_model([lambda x: np.ones_like(x), lambda x: x])
        x = np.linspace(0, 1, 4001)
        phi = model.matrix(x)
        gram = np.array([[np.trapezoid(phi[:, a] * phi[:, b], x) for b in range(2)]
                         for a in range(2)])
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-4)

    def test_projection_is_basis_invariant(self):
        sample = gen_model3(5, 30, seed_or_rng=0)
        with pytest.warns(UserWarning):
            raw = basis_model([lambda x: np.ones_like(x), lambda x: x])
        ortho = polynomial_basis(1)
        eval = make_eval_grid(40)
        r_raw = residual_process(sample, raw, eval, 0.1)
        r_ortho = residual_process(sample, ortho, eval, 0.1)
        np.testing.assert_allclose(r_raw, r_ortho, atol=1e-9)

    def test_degenerate_basis_rejected(self):
        f = lambda x: 1.0 + x * 0.0
        with pytest.warns(UserWarning), pytest.raises(RankDeficiencyError):
            basis_model([f, f])


class TestLsFit:
    def test_data_in_span_has_zero_residuals(self):
        grid = uniform_design_grid(25)
        model = polynomial_basis(2)
        truth = 1.0 + 2.0 * grid.points - 3.0 * grid.points**2
        sample = FunctionalSample(grid=grid, values=np.tile(truth, (3, 1)))
        fit = ls_fit(sample, model)
        np.testing.assert_allclose(fit.fitted_design, truth, atol=1e-9)

    def test_intercept_only_is_the_mean(self):
        sample = gen_model3(6, 20, seed_or_rng=1)
        fit = ls_fit(sample, polynomial_basis(0))
        assert fit.theta[0] == pytest.approx(sample.column_means().mean(), abs=1e-12)

    def test_projection_idempotence(self):
        sample = gen_model3(6, 20, seed_or_rng=2)
        model = polynomial_basis(1)
        fit = ls_fit(sample, model)
        refit = ls_fit(
            FunctionalSample(grid=sample.grid, values=np.tile(fit.fitted_design, (2, 1))),
            model,
        )
        np.testing.assert_allclose(refit.theta, fit.theta, atol=1e-10)

    def test_recovers_linear_trend(self):
        # [DERIVED] y = x in the orthonormal shifted-Legendre basis:
        # theta = (1/2, 1/(2 sqrt(3)))
        model = polynomial_basis(1)
        thetas = []
        for rep in range(100):
            fit = ls_fit(gen_model3(50, 50, seed_or_rng=3000 + rep), model)
            thetas.append(fit.theta)
        mean_theta = np.mean(thetas, axis=0)
        np.testing.assert_allclose(mean_theta, [0.5, 0.5 / np.sqrt(3)], atol=0.05)


class TestResidualProcess:
    def test_data_in_span_gives_zero(self):
        grid = uniform_design_grid(30)
        truth = 0.7 - 0.4 * grid.points
        sample = FunctionalSample(grid=grid, values=np.tile(truth, (3, 1)))
        r = residual_process(sample, polynomial_basis(1), make_eval_grid(40), 0.1)
        np.testing.assert_allclose(r, 0.0, atol=1e-9)

    def test_linearity_in_the_data(self):
        grid = uniform_design_grid(30)
        rng = np.random.default_rng(4)
        y1, y2 = rng.standard_normal((2, 30))
        model = polynomial_basis(1)
        eval = make_eval_grid(40)

        def r_of(row):
            sample = FunctionalSample(grid=grid, values=np.tile(row, (2, 1)))
            return residual_process(sample, model, eval, 0.1)

        np.testing.assert_allclose(r_of(y1 + y2), r_of(y1) + r_of(y2), atol=1e-12)

    def test_noiseless_bump_matches_direct_projection(self):
        # [DERIVED] Ybar = x + g: r approximates g - (L2 projection of g)
        grid = uniform_design_grid(200)
        model = polynomial_basis(1)
        eval = make_eval_grid(100)
        truth = grid.points + bump_function(grid.points)
        sample = FunctionalSample(grid=grid, values=np.tile(truth, (2, 1)))
        r = residual_process(sample, model, eval, 0.02)
        # continuous projection of g by fine quadrature
        u = np.linspace(0, 1, 4001)
        phi_u = model.matrix(u)
        coefs = np.array([np.trapezoid(bump_function(u) * phi_u[:, l], u)
                          for l in range(2)])
        direct = bump_function(eval.points) - model.matrix(eval.points) @ coefs
        assert np.abs(r - direct).max() < 0.02

    def test_invariant_under_span_shift(self):
        sample = gen_model3(6, 40, seed_or_rng=5)
        model = polynomial_basis(1)
        eval = make_eval_grid(50)
        r0 = residual_process(sample, model, eval, 0.08)
        shifted = FunctionalSample(grid=sample.grid,
                                   values=sample.values + (2.0 - 3.0 * sample.grid.points))
        r1 = residual_process(shifted, model, eval, 0.08)
        np.testing.assert_allclose(r0, r1, atol=1e-9)


class TestGammaPlugin:
    def test_hand_linear_algebra_oracle_p3(self):
        # [DERIVED] empirical data covariance 2 v v' (two curves mu +/- v),
        # basis values orthogonal to v at the design points:
        # Gamma(x,x') = W(x)'(I-P) S (I-P) W(x')' reduces to 2 (Wv)(Wv)'.
        grid = uniform_design_grid(3)
        v = np.array([1.0, -2.0, 1.0])
        w_basis = np.array([1.0, 1.0, 1.0])  # constant basis; v is orthogonal to it
        assert abs(v @ w_basis) < 1e-12
        mu = np.array([0.5, 1.0, 1.5])
        sample = FunctionalSample(grid=grid, values=np.vstack([mu + v, mu - v]))
        model = polynomial_basis(0)
        eval = EvalGrid((np.array([0.2, 0.8]),))
        gamma, lam = gamma_n_plugin(sample, model, eval, 0.9, shrinkage=False)
        w = weight_matrix(grid, eval, 0.9)
        wv = w @ v
        np.testing.assert_allclose(gamma, 2.0 * np.outer(wv, wv), atol=1e-10)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(6)
        eval = make_eval_grid(30)
        for rep in range(10):
            sample = gen_model3(8, 30, seed_or_rng=600 + rep)
            gamma, _ = gamma_n_plugin(sample, polynomial_basis(1), eval, 0.12)
            np.testing.assert_allclose(gamma, gamma.T, atol=1e-12)
            vals = np.linalg.eigvalsh(gamma)
            assert vals.min() >= -1e-8 * max(vals.max(), 1e-30)


class TestLimitGamma:
    def test_flat_covariance_cancels(self):
        # [DERIVED] R = sigma^2 constant and an intercept basis: all four terms
        # cancel (sigma^2 + sigma^2 - sigma^2 - sigma^2)
        model = polynomial_basis(0)
        eval = make_eval_grid(20)
        gamma = limit_gamma(lambda x, y: 2.5 * np.ones(np.broadcast(x, y).shape),
                            model, eval)
        np.testing.assert_allclose(gamma, 0.0, atol=1e-8)

    def test_basis_orthogonal_to_covariance_range(self):
        # R(u,v) = sin(2 pi u) sin(2 pi v) has range orthogonal to constants
        model = polynomial_basis(0)
        eval = make_eval_grid(15)
        cov = lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.ones(
            np.broadcast(x, y).shape)
        gamma = limit_gamma(cov, model, eval)
        expected = cov(eval.points[:, None], eval.points[None, :])
        np.testing.assert_allclose(gamma, expected, atol=1e-6)


class TestScbGofTest:
    def test_in_span_mean_gives_zero_statistic(self):
        grid = uniform_design_grid(40)
        line = 0.3 + 0.9 * grid.points
        delta = np.sin(2 * np.pi * grid.points)
        sample = FunctionalSample(grid=grid, values=np.vstack([line + delta, line - delta]))
        report = scb_gof_test(sample, polynomial_basis(1), make_eval_grid(50), 0.1, seed=7)
        assert report.statistic == pytest.approx(0.0, abs=1e-9)
        assert not report.reject

    def test_scale_invariance_of_statistic(self):
        sample = gen_model3(10, 40, seed_or_rng=8)
        eval = make_eval_grid(50)
        a = scb_gof_test(sample, polynomial_basis(1), eval, 0.08, seed=9)
        scaled = FunctionalSample(grid=sample.grid, values=4.0 * sample.values)
        b = scb_gof_test(scaled, polynomial_basis(1), eval, 0.08, seed=9)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9)
        assert b.reject == a.reject

    def test_threshold_monotone_in_alpha(self):
        sample = gen_model3(10, 40, seed_or_rng=10)
        eval = make_eval_grid(50)
        r05 = scb_gof_test(sample, polynomial_basis(1), eval, 0.08, alpha=0.05, seed=11)
        r01 = scb_gof_test(sample, polynomial_basis(1), eval, 0.08, alpha=0.01, seed=11)
        assert r01.threshold >= r05.threshold
        if r01.reject:
            assert r05.reject  # rejection monotone on the same sup sample

    def test_report_json_shape(self):
        import json
        sample = gen_model3(10, 40, seed_or_rng=12)
        report = scb_gof_test(sample, polynomial_basis(1), make_eval_grid(30), 0.1, seed=13)
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) >= {"T", "c_alpha", "alpha", "reject", "band", "diagnostics"}
        assert set(payload["diagnostics"]) >= {"lambda", "clipped_mass"}

    def test_band_details_match_normal_scb(self):
        # the residual band carries the same provenance and sup-quantile
        # diagnostics as normal_scb: normalised h, kernel name, seed
        sample = gen_model3(10, 40, seed_or_rng=14)
        report = scb_gof_test(sample, polynomial_basis(1), make_eval_grid(30), 0.1,
                              kernel="gauss", paths=2000, seed=15)
        details = report.band.details
        assert details["h"] == (0.1,)
        assert details["kernel"] == "gauss"
        assert details["seed"] == 15 and details["paths"] == 2000
        assert details["clipped_mass"] == report.diagnostics["clipped_mass"]
        assert details["shrinkage_lambda"] == report.diagnostics["lambda"]
        assert 0.0 < details["threshold_stderr"] < report.threshold

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_threshold_stable_under_rounding_perturbation(self, seed):
        # Gamma_n has rank at most p - L; its rounding-level eigenvalues are
        # zeroed before the square root, so a 1e-15 symmetric change of the
        # correlation moves the threshold only by rounding (about 1e-8 without)
        sample = gen_model3(50, 50, seed_or_rng=seed, hypothesis="hn")
        gamma_hat, _ = gamma_n_plugin(sample, polynomial_basis(1), make_eval_grid(100), 0.035)
        corr = correlation_from_covariance(gamma_hat)
        noise = np.random.default_rng(seed).standard_normal(corr.shape)
        noise = 0.5e-15 * (noise + noise.T)
        np.fill_diagonal(noise, 0.0)
        a = sup_quantile(SupQuantileRequest(corr, 0.05, 13000, seed)).threshold
        b = sup_quantile(SupQuantileRequest(corr + noise, 0.05, 13000, seed)).threshold
        assert abs(b - a) <= 1e-12 * a

    @pytest.mark.parametrize("degree", [9, 12])
    def test_basis_as_wide_as_the_design_is_degenerate(self, degree):
        # L = 10 or 13 >= p = 10: I - P is zero, so no residual is left to test
        sample = gen_model3(20, 10, seed_or_rng=1)
        with pytest.warns(UserWarning, match="orthogonal"):
            model = polynomial_basis(degree)
        with pytest.raises(DegenerateVarianceError, match=f"L={degree + 1} .* p=10"):
            scb_gof_test(sample, model, make_eval_grid(20), 0.3)


def _record_draws(monkeypatch):
    """Widths of the normal buffers ``simulate_sup_norms`` fills, and the
    sup-norm requests the bands make, appended as they happen."""
    widths, requests = [], []
    chunks, simulate = supnorm.map_philox_chunks, bands.simulate_sup_norms

    class Rng:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            widths.append(out.shape[1])
            return self.rng.standard_normal(out=out)

    def recorded(draw):
        return lambda rng, k, start: draw(Rng(rng), k, start)

    monkeypatch.setattr(supnorm, "map_philox_chunks", lambda total, chunk, seed, *draws: chunks(
        total, chunk, seed, *map(recorded, draws)))
    monkeypatch.setattr(bands, "simulate_sup_norms",
                        lambda *r: requests.extend(r) or simulate(*r))
    return widths, requests


def _refuse_dense_root(table, correlation=False):
    raise AssertionError("dense square root taken")


class TestLowRankFactor:
    """Gamma_hat has rank at most p - L, so the test draws its Gaussian paths
    through a (p - L) x m factor of the correlation where p - L < m."""

    MODEL = polynomial_basis(1)

    def test_factor_is_a_root_of_the_plugin_correlation(self, monkeypatch):
        sample = gen_model3(50, 50, seed_or_rng=20, hypothesis="h0")
        eval = make_eval_grid(100)
        _, requests = _record_draws(monkeypatch)
        scb_gof_test(sample, self.MODEL, eval, 0.035, paths=500, seed=1)
        factor, mass = requests[0].root.factor, requests[0].root.mass
        assert factor.shape == (48, 100) and mass == 0.0
        rho = correlation_from_covariance(gamma_n_plugin(sample, self.MODEL, eval, 0.035)[0])
        np.testing.assert_allclose(factor.T @ factor, rho, rtol=0, atol=1e-12)

    def test_draws_p_minus_L_normals_per_path(self, monkeypatch):
        sample = gen_model3(50, 50, seed_or_rng=21, hypothesis="h0")
        widths, _ = _record_draws(monkeypatch)
        monkeypatch.setattr(supnorm, "_psd_root", _refuse_dense_root)
        monkeypatch.setattr(supnorm, "_cpus", lambda: 1)      # one block per chunk
        report = scb_gof_test(sample, self.MODEL, make_eval_grid(100), 0.035, seed=2)
        assert widths == [48] * 7       # 13000 paths in chunks of 2048
        assert report.diagnostics["clipped_mass"] == 0.0

    @pytest.mark.parametrize("seed, p", [pytest.param(0, 50, id="0"), pytest.param(1, 50, id="1"),
                                         pytest.param(2, 50, id="2"),
                                         # p - L = 148 > m: drawn through the QR's R
                                         pytest.param(0, 150, id="0-p150")])
    def test_threshold_agrees_with_dense_root(self, seed, p):
        # same Gaussian law, other draws: the thresholds differ by Monte-Carlo noise
        sample = gen_model3(50, p, seed_or_rng=30 + seed, hypothesis="h0")
        eval = make_eval_grid(100)
        report = scb_gof_test(sample, self.MODEL, eval, 0.035, seed=seed)
        rho = correlation_from_covariance(gamma_n_plugin(sample, self.MODEL, eval, 0.035)[0])
        dense = sup_quantile(SupQuantileRequest(rho, 0.05, 13000, seed))
        se = np.hypot(report.diagnostics["threshold_stderr"], dense.stderr)
        assert abs(report.threshold - dense.threshold) <= 4 * se

    def test_singular_gram_keeps_its_rank(self, monkeypatch):
        # no shrinkage and n - 1 = 9 < p - L = 48: S_hat projects to a singular
        # 48 x 48 matrix; its rank-9 root is used, and the share of the dropped
        # rounding-level eigenvalues is reported as clipped
        sample = gen_model3(10, 50, seed_or_rng=22, hypothesis="h0")
        widths, _ = _record_draws(monkeypatch)
        report = scb_gof_test(sample, self.MODEL, make_eval_grid(100), 0.035, seed=3,
                              shrinkage=False)
        assert set(widths) == {9}
        assert 0.0 < report.diagnostics["clipped_mass"] < 1e-12
        assert report.band.details["clipped_mass"] == report.diagnostics["clipped_mass"]
        assert np.isfinite(report.threshold) and np.isfinite(report.statistic)
        assert np.all(np.isfinite(report.band.half_width))

    def test_dense_root_on_a_short_grid(self, monkeypatch):
        # p - L = 48 > m = 20: drawn through the 20 x 20 R of the factor's QR
        sample = gen_model3(50, 50, seed_or_rng=23, hypothesis="h0")
        widths, requests = _record_draws(monkeypatch)
        monkeypatch.setattr(supnorm, "_psd_root", _refuse_dense_root)
        scb_gof_test(sample, self.MODEL, make_eval_grid(20), 0.1, paths=500, seed=4)
        assert requests[0].root.factor.shape == (20, 20) and widths == [20]
