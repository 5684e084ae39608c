"""Variance/correlation estimation, shrinkage, data covariance, PSD repair."""

import numpy as np
import pytest

from funcband import (
    DegenerateVarianceError,
    FuncbandError,
    FunctionalSample,
    SupQuantileRequest,
    empirical_correlation,
    empirical_data_covariance,
    empirical_variance,
    limit_gamma,
    make_eval_grid,
    plrt_pvalue,
    plrt_test,
    polynomial_basis,
    psd_repair,
    schafer_strimmer_lambda,
    shrink_correlation,
    uniform_design_grid,
)
from funcband import moments
from funcband.moments import _psd_root, correlation_from_covariance
from funcband.simlab import gen_model1, gen_model3, ou_covariance
from funcband.smoothing import fit_mean


class TestEmpiricalVariance:
    def test_identical_curves_zero(self):
        curves = np.tile(np.arange(5.0), (4, 1))
        np.testing.assert_array_equal(empirical_variance(curves), 0.0)

    def test_two_curve_identity(self):
        curves = np.array([[1.0, 4.0], [3.0, 0.0]])
        expected = (curves[0] - curves[1]) ** 2 / 2.0
        np.testing.assert_allclose(empirical_variance(curves), expected, atol=1e-14)

    def test_needs_two_curves(self):
        with pytest.raises(DegenerateVarianceError):
            empirical_variance(np.ones((1, 3)))

    def test_matches_covariance_diagonal(self):
        rng = np.random.default_rng(1)
        curves = rng.standard_normal((9, 6))
        var = empirical_variance(curves)
        cov = np.cov(curves, rowvar=False, ddof=1)
        np.testing.assert_allclose(var, np.diag(cov), atol=1e-10)

    def test_unbiased_for_finite_sample_variance(self):
        # [DERIVED] E sigma^2(x) = n var(mu_hat(x)): MC check at x = 0.5
        eval = make_eval_grid(3)
        n = 100
        vars_hat, means = [], []
        for rep in range(500):
            fit = fit_mean(gen_model1(n, 50, seed_or_rng=7000 + rep), eval, 0.05)
            vars_hat.append(empirical_variance(fit.curves, fit.mean)[1])
            means.append(fit.mean[1])
        lhs = float(np.mean(vars_hat))
        rhs = n * float(np.var(means, ddof=1))
        assert abs(lhs - rhs) <= 0.10 * rhs


class TestEmpiricalCorrelation:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        curves = rng.standard_normal((6, 8))
        corr = empirical_correlation(curves)
        np.testing.assert_array_equal(np.diag(corr), 1.0)
        assert np.abs(corr).max() <= 1.0

    def test_two_curves_rank_one(self):
        rng = np.random.default_rng(3)
        curves = rng.standard_normal((2, 10))
        corr = empirical_correlation(curves)
        np.testing.assert_allclose(np.abs(corr), 1.0, atol=1e-10)

    def test_degenerate_variance_reported(self):
        curves = np.ones((4, 3))
        curves[:, 1] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(DegenerateVarianceError):
            empirical_correlation(curves)

    def test_ou_correlation_monte_carlo(self):
        # [DERIVED] raw model-1 data: corr at lag 0.05 is exp(20 log(0.9) 0.05) = 0.9
        sample = gen_model1(200, 40, seed_or_rng=11)
        corr = empirical_correlation(sample.values)
        i, j = 12, 14  # x = 0.3125 and 0.3625, lag exactly 0.05
        assert abs(sample.grid.points[j] - sample.grid.points[i] - 0.05) < 1e-12
        assert abs(corr[i, j] - 0.9) < 0.05


class TestShrinkage:
    def test_lambda_zero_is_identity_map(self, monkeypatch):
        rng = np.random.default_rng(4)
        curves = rng.standard_normal((6, 5))
        raw = empirical_correlation(curves)
        monkeypatch.setattr(moments, "schafer_strimmer_lambda", lambda x: 0.0)
        out, lam = shrink_correlation(raw, curves)
        assert lam == 0.0
        np.testing.assert_array_equal(out, raw)

    def test_lambda_one_is_identity_correlation(self, monkeypatch):
        rng = np.random.default_rng(5)
        curves = rng.standard_normal((6, 5))
        raw = empirical_correlation(curves)
        monkeypatch.setattr(moments, "schafer_strimmer_lambda", lambda x: 1.0)
        out, lam = shrink_correlation(raw, curves)
        np.testing.assert_array_equal(out, np.eye(5))

    def test_analytic_lambda_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lam = schafer_strimmer_lambda(rng.standard_normal((8, 12)))
            assert 0.0 <= lam <= 1.0

    @staticmethod
    def _lambda_oracle(x):
        """The unclipped Schafer-Strimmer lambda, summed over the m x m table."""
        n, m = x.shape
        xs = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        w, w2 = xs.T @ xs, (xs * xs).T @ (xs * xs)
        var_r = n / (n - 1.0) ** 3 * (w2 - w * w / n)
        off = ~np.eye(m, dtype=bool)
        return var_r[off].sum() / ((w / (n - 1.0))[off] ** 2).sum()

    @pytest.mark.parametrize("n, m", [(5, 40), (40, 625), (12, 12), (60, 9), (3, 20), (3, 3)])
    def test_lambda_matches_table_formula(self, n, m):
        rng = np.random.default_rng(n * m)
        for x in (rng.standard_normal((n, m)).cumsum(axis=1) + 3.0,    # correlated
                  rng.standard_normal((n, m)) * rng.uniform(0.5, 2.0, m)):
            raw = self._lambda_oracle(x)
            assert raw >= 0.0
            assert schafer_strimmer_lambda(x) == pytest.approx(min(raw, 1.0), rel=1e-13, abs=0)

    def test_lambda_clips_to_one(self):
        # independent columns; this draw's unclipped lambda is about 1.19
        x = np.random.default_rng(3).standard_normal((10, 10))
        assert self._lambda_oracle(x) > 1.0
        assert schafer_strimmer_lambda(x) == 1.0

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_lambda_clips_to_zero(self, n):
        # every column an affine image of one balanced +-1 pattern: each product of
        # standardized values is constant across curves, so every var_hat(r_ab)
        # and lambda are zero; computed, they are zero up to a few ulps of 1
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        x = np.outer(signs, np.linspace(1.0, 3.0, 15)) + np.arange(15.0)
        assert abs(self._lambda_oracle(x)) < 1e-15
        assert 0.0 <= schafer_strimmer_lambda(x) < 1e-15

    def test_shrunk_output_is_psd(self):
        # [DERIVED] 5 curves on 50 points: shrunk correlation PSD every trial
        rng = np.random.default_rng(7)
        for _ in range(100):
            curves = rng.standard_normal((5, 50)) @ np.diag(rng.uniform(0.5, 2, 50))
            raw = empirical_correlation(curves)
            out, _lam = shrink_correlation(raw, curves)
            vals = np.linalg.eigvalsh(out)
            assert vals.min() >= -1e-8 * vals.max()

    def test_preserves_symmetry_and_diagonal(self):
        rng = np.random.default_rng(8)
        curves = rng.standard_normal((10, 7))
        raw = empirical_correlation(curves)
        out, _ = shrink_correlation(raw, curves)
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_array_equal(np.diag(out), 1.0)


class TestEmpiricalDataCovariance:
    def _sample(self, values):
        return FunctionalSample(grid=uniform_design_grid(values.shape[1]),
                                values=np.asarray(values, dtype=float))

    def test_identical_rows_zero(self):
        cov, lam = empirical_data_covariance(self._sample(np.tile(np.arange(4.0), (3, 1))))
        np.testing.assert_array_equal(cov, 0.0)

    def test_localized_spread(self):
        values = np.zeros((2, 4))
        values[1, 0] = 2.0
        cov, _ = empirical_data_covariance(self._sample(values))
        expected = np.zeros((4, 4))
        expected[0, 0] = 2.0  # var of {0, 2} with divisor n-1
        np.testing.assert_allclose(cov, expected, atol=1e-14)

    def test_monte_carlo_matches_ou(self):
        # [DERIVED] 1000 model-1 draws, no shrinkage: entrywise within 0.01 of R
        sample = gen_model1(1000, 20, seed_or_rng=9)
        cov, lam = empirical_data_covariance(sample, False)
        assert lam == 0.0
        x = sample.grid.points
        r = ou_covariance(x[:, None], x[None, :])
        assert np.abs(cov - r).max() < 0.01

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal((7, 5))
        cov_a, _ = empirical_data_covariance(self._sample(values))
        cov_b, _ = empirical_data_covariance(self._sample(values[::-1]))
        np.testing.assert_allclose(cov_a, cov_b, atol=1e-12)

    def test_shrinkage_preserves_variances(self):
        rng = np.random.default_rng(11)
        sample = self._sample(rng.standard_normal((6, 5)) * np.array([1, 2, 3, 4, 5.0]))
        raw, _ = empirical_data_covariance(sample, False)
        shrunk, lam = empirical_data_covariance(sample, True)
        assert lam > 0.0
        np.testing.assert_allclose(np.diag(shrunk), np.diag(raw), atol=1e-12)


class TestPsdRepair:
    @pytest.mark.parametrize("bad", [np.array([True, False]), "yes", 1, None])
    def test_correlation_must_be_a_bool(self, bad):
        # an array raised numpy's ambiguous-truth ValueError; "yes" read as true
        with pytest.raises(FuncbandError, match="correlation"):
            psd_repair(np.eye(2), correlation=bad)

    def test_hand_example_2x2(self):
        # [DERIVED] eigenvalues of [[1, 1.2], [1.2, 1]] are 2.2 and -0.2;
        # clipping the negative one gives the constant matrix 1.1.
        repaired, mass = psd_repair(np.array([[1.0, 1.2], [1.2, 1.0]]))
        np.testing.assert_allclose(repaired, [[1.1, 1.1], [1.1, 1.1]], atol=1e-12)
        assert mass > 0.0
        as_corr, _ = psd_repair(np.array([[1.0, 1.2], [1.2, 1.0]]), correlation=True)
        np.testing.assert_allclose(np.diag(as_corr), 1.0, atol=1e-12)

    def test_identity_on_psd_input(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        table = a @ a.T
        repaired, mass = psd_repair(table)
        np.testing.assert_allclose(repaired, table, atol=1e-12 * np.abs(table).max())
        assert mass == 0.0

    def test_output_is_psd(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            pert = rng.standard_normal((8, 8)) * 0.3
            table = np.eye(8) + 0.5 * (pert + pert.T)
            repaired, _ = psd_repair(table)
            assert np.linalg.eigvalsh(repaired).min() >= -1e-10

    def test_idempotent(self):
        table = np.array([[1.0, 1.2], [1.2, 1.0]])
        once, _ = psd_repair(table)
        twice, mass2 = psd_repair(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert mass2 <= 1e-12


class TestPsdRoot:
    @pytest.mark.parametrize("correlation", [False, True])
    def test_positive_definite_root_is_the_plain_eigen_root(self, correlation):
        x = make_eval_grid(30).points
        table = ou_covariance(x[:, None], x[None, :])
        if correlation:
            table = table / table[0, 0]
        root, mass = _psd_root(table, correlation)
        vals, vecs = np.linalg.eigh(0.5 * (table + table.T))
        assert vals.min() > 1e-12 * vals.max() and mass == 0.0
        np.testing.assert_array_equal(root, (vecs * np.sqrt(vals)[None, :]) @ vecs.T)

    def test_negative_eigenvalues_dropped_to_a_unit_diagonal(self):
        rng = np.random.default_rng(14)
        pert = rng.standard_normal((8, 8))
        table = np.clip(0.5 * (pert + pert.T), -0.95, 0.95)   # entries of a correlation
        np.fill_diagonal(table, 1.0)
        vals = np.linalg.eigvalsh(table)
        assert vals.min() < 0.0
        root, mass = _psd_root(table, correlation=True)
        np.testing.assert_allclose(np.diag(root.T @ root), 1.0, rtol=0, atol=1e-14)
        assert np.linalg.eigvalsh(root.T @ root).min() >= -1e-14
        dropped = np.abs(vals[vals <= 1e-12 * vals.max()]).sum() / np.abs(vals).sum()
        assert mass == pytest.approx(dropped, rel=1e-12)

    def test_rank_deficient_covariance_keeps_its_scale(self):
        # rank 3 on 10 points: the rounding-level eigenvalues are dropped, and
        # a covariance, unlike a correlation, is not rescaled
        f = np.random.default_rng(15).standard_normal((10, 3)) * np.arange(1.0, 11.0)[:, None]
        table = f @ f.T
        root, mass = _psd_root(table)
        assert 0.0 < mass < 1e-12
        np.testing.assert_allclose(root.T @ root, table, rtol=0, atol=1e-12 * table.max())
        unit, _ = _psd_root(table / np.sqrt(np.outer(np.diag(table), np.diag(table))), True)
        np.testing.assert_allclose(np.diag(unit.T @ unit), 1.0, rtol=0, atol=1e-14)


def _exp_table(p):
    """exp(-5 |j - k| / p): a valid p x p covariance and correlation table."""
    return np.exp(-5.0 * np.abs(np.subtract.outer(np.arange(p), np.arange(p))) / p)


def _with(table, index, value):
    table = table.copy()
    table[index] = value
    return table


_DEFECTS = {
    "nan": lambda t: _with(t, (3, 3), np.nan),
    "asymmetric": lambda t: _with(t, (0, 1), t[0, 1] + 0.5),
    "wrong-size": lambda t: t[:-1],
    "negative-diagonal": lambda t: _with(t, (2, 2), -1.0),
}

# each boundary where a caller's covariance or correlation table enters, fed
# ``defect`` of a valid table
_BOUNDARIES = {
    "plrt_test known": lambda defect: plrt_test(
        gen_model3(20, 30, seed_or_rng=0), polynomial_basis(1), 0.1,
        covariance_mode="known", known_covariance=defect(_exp_table(30))),
    "limit_gamma": lambda defect: limit_gamma(
        lambda x, y: defect(np.exp(-5.0 * np.abs(x - y))), polynomial_basis(1), make_eval_grid(5)),
    "plrt_pvalue": lambda defect: plrt_pvalue(np.diag(np.linspace(-1.0, 1.0, 30)),
                                              defect(_exp_table(30))),
    "correlation_from_covariance": lambda defect: correlation_from_covariance(
        defect(_exp_table(30))),
    "shrink_correlation": lambda defect: shrink_correlation(
        defect(_exp_table(30)), np.random.default_rng(0).standard_normal((5, 30))),
    "SupQuantileRequest": lambda defect: SupQuantileRequest(defect(_exp_table(30)), 0.05, 1000, 0),
}


@pytest.mark.parametrize("defect", _DEFECTS)
@pytest.mark.parametrize("boundary", _BOUNDARIES)
def test_caller_table_checked_where_it_enters(boundary, defect):
    _BOUNDARIES[boundary](lambda t: t)     # the valid table passes
    with pytest.raises(FuncbandError):
        _BOUNDARIES[boundary](_DEFECTS[defect])
