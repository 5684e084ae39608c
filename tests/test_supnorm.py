"""Gaussian sup-norm simulation and order-statistic quantiles."""

import numpy as np
import pytest
from scipy.stats import kstest, norm

from funcband import (
    FactorizationError,
    FuncbandError,
    ShrinkageSpec,
    SupQuantileRequest,
    default_path_count,
    empirical_correlation,
    gamma_n_plugin,
    make_eval_grid,
    polynomial_basis,
    scb_gof_test,
    shrink_correlation,
    simulate_sup_norms,
    sup_quantile,
)
from funcband import bands
from funcband.bands import _curve_root
from funcband.moments import _psd_root, correlation_from_covariance
from funcband.simlab import gen_model3
from funcband.supnorm import _MatrixRoot, _ThinRoot, _quantile_stderr, order_statistic_quantile


def _request(table, gamma=0.05, paths=20000, seed=0):
    return SupQuantileRequest(np.asarray(table, dtype=float), gamma, paths, seed)


class TestRequestValidation:
    def test_level_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(FuncbandError):
                _request([[1.0]], gamma=bad)

    def test_minimum_paths(self):
        with pytest.raises(FuncbandError):
            _request([[1.0]], paths=50)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed(self, seed):
        with pytest.raises(FuncbandError, match="seed"):
            _request([[1.0]], seed=seed)

    def test_numpy_integer_seed(self):
        assert _request([[1.0]], seed=np.int64(3)).seed == 3

    def test_draw_limit(self):
        # 1e8 normals in all: 1e6 paths on 100 points is the most
        for paths in (10**6 + 1, 10**23):
            with pytest.raises(FuncbandError, match=f"paths={paths}"):
                _request(np.eye(100), paths=paths)


class TestSimulateSupNorms:
    def test_single_point_is_absolute_normal(self):
        # [TRIVIAL] 1x1 correlation: sup values are |N(0,1)| draws
        values, mass = simulate_sup_norms(_request([[1.0]], paths=50000))
        assert mass == 0.0
        # KS against the exact |N(0,1)| law
        stat = kstest(values, lambda t: 2 * norm.cdf(t) - 1).statistic
        assert stat < 0.01

    def test_all_ones_correlation_is_rank_one(self):
        # perfect dependence: every grid point of a path has the same |value|
        table = np.ones((7, 7))
        factor_paths, _ = simulate_sup_norms(_request(table, paths=1000))
        res_multi = sup_quantile(_request(table, paths=20000, seed=3))
        res_single = sup_quantile(_request([[1.0]], paths=20000, seed=3))
        # same distribution; with the same seed the chunking matches for m=1 vs m=7
        assert abs(res_multi.threshold - res_single.threshold) < 0.05

    def test_sign_flip_symmetry(self):
        # halves of the same run are exchangeable: two-sample KS at 1%
        from scipy.stats import ks_2samp
        values, _ = simulate_sup_norms(_request(np.eye(10), paths=40000, seed=4))
        stat, p = ks_2samp(values[::2], values[1::2])
        assert p > 0.01

    def test_determinism_for_same_seed(self):
        table = np.exp(-5.0 * np.abs(np.subtract.outer(np.arange(30), np.arange(30))) / 30)
        a, _ = simulate_sup_norms(_request(table, paths=9000, seed=5))
        b, _ = simulate_sup_norms(_request(table, paths=9000, seed=5))
        np.testing.assert_array_equal(a, b)


def _curves(n, m, seed):
    """n random-walk curves on m points."""
    return np.random.default_rng(seed).standard_normal((n, m)).cumsum(axis=1)


class TestThinRoot:
    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("lam", [1e-6, 0.05, 0.5, 1.0])
    def test_matches_dense_root(self, n, lam):
        m = 40
        curves = _curves(n, m, seed=n)
        mean = curves.mean(axis=0)
        sd = curves.std(axis=0, ddof=1)
        raw = empirical_correlation(curves, make_eval_grid(m), mean, sd**2)
        table = shrink_correlation(raw, ShrinkageSpec(intensity=lam))[0].table
        thin = np.empty((m, m))
        _ThinRoot(curves, mean, sd, lam)(np.eye(m), thin)     # I L = L
        dense, mass = _psd_root(table, correlation=True)
        assert mass == 0.0
        np.testing.assert_allclose(thin @ thin, table, rtol=0, atol=1e-12)
        # A root of the float table is uncertain by its rounding (about m eps)
        # over 2 sqrt(lam); at lam = 1e-6 that exceeds 1e-12, for both roots.
        eps = np.finfo(float).eps
        tol = max(1e-12, 8 * eps * m / (2 * np.sqrt(lam)))
        np.testing.assert_allclose(thin, dense, rtol=0, atol=tol)

    @pytest.mark.parametrize("n", [2, 8])
    def test_table_built_from_the_root(self, n):
        m, lam = 40, 0.3
        curves = _curves(n, m, seed=n + 10)
        mean, sd = curves.mean(axis=0), curves.std(axis=0, ddof=1)
        raw = empirical_correlation(curves, make_eval_grid(m), mean, sd**2)
        dense = shrink_correlation(raw, ShrinkageSpec(intensity=lam))[0].table
        request = SupQuantileRequest(_ThinRoot(curves, mean, sd, lam), 0.05, 1000, 0)
        np.testing.assert_allclose(request.table(), dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("where", ["curve", "sigma", "lambda"])
    def test_non_finite_input_raises(self, where):
        curves = _curves(5, 40, seed=4)
        mean, sd, lam = curves.mean(axis=0), curves.std(axis=0, ddof=1), 0.2
        if where == "curve":
            curves[2, 7] = np.nan
        elif where == "sigma":
            sd[3] = np.inf
        else:
            lam = np.nan
        # NaN curves fail in the SVD, an infinite sigma or NaN lambda after it
        with pytest.raises(FactorizationError, match="thin square root"):
            _ThinRoot(curves, mean, sd, lam)

    def test_request_needs_a_table_or_thin_root(self):
        with pytest.raises(FuncbandError, match="correlation table"):
            SupQuantileRequest(None, 0.05, 1000, 0)

    @pytest.mark.parametrize("n, lam", [(20, 0.5), (30, 0.5), (5, 0.0), (5, 9e-7)])
    def test_dense_root_where_thin_does_not_apply(self, n, lam):
        # 2n >= m, or lambda below 1e-6
        curves = _curves(n, 40, seed=3)
        root = _curve_root(curves, curves.mean(axis=0), curves.std(axis=0, ddof=1), lam)
        assert type(root) is _MatrixRoot and root.factor.shape == (40, 40)


def _shrunk_request(n, m, lam, seed, paths, thin=True):
    """A request for the shrunk correlation of n random-walk curves, drawn
    through the thin root when ``thin`` and the dense root otherwise."""
    curves = _curves(n, m, seed=seed + 100)
    mean = curves.mean(axis=0)
    sd = curves.std(axis=0, ddof=1)
    raw = empirical_correlation(curves, make_eval_grid(m), mean, sd**2)
    table = shrink_correlation(raw, ShrinkageSpec(intensity=lam))[0]
    return SupQuantileRequest(_ThinRoot(curves, mean, sd, lam) if thin else table, 0.05, paths,
                              seed)


class TestSharedDraw:
    """Requests that share seed, paths and m are simulated from one draw."""

    # 2048 k + r paths: two full chunks and a partial one
    PATHS = 2 * 2048 + 37

    @pytest.mark.parametrize("kinds", [("dense", "thin"), ("thin", "dense"), ("thin", "thin"),
                                       ("dense", "thin", "thin", "dense")])
    def test_matches_separate_calls(self, kinds):
        requests = [_shrunk_request(5, 40, 0.1 + 0.2 * i, 3, self.PATHS, thin=kind == "thin")
                    for i, kind in enumerate(kinds)]
        shared = simulate_sup_norms(*requests)
        assert len(shared) == len(requests)
        for request, (values, mass) in zip(requests, shared):
            alone, alone_mass = simulate_sup_norms(request)
            assert values.shape == (self.PATHS,)
            assert np.array_equal(values, alone) and mass == alone_mass

    @pytest.mark.parametrize("change", [dict(seed=4), dict(paths=PATHS + 1), dict(m=41)])
    def test_requests_must_share_seed_paths_and_grid(self, change):
        base = dict(seed=3, paths=self.PATHS, m=40)
        first = _shrunk_request(5, 40, 0.3, 3, self.PATHS)
        other = {**base, **change}
        second = _shrunk_request(5, other["m"], 0.3, other["seed"], other["paths"])
        with pytest.raises(FuncbandError, match="must share seed, paths and width"):
            simulate_sup_norms(first, second)


def _factor_request(r, m, seed, paths, mass=0.0):
    """A request for a random rank-r correlation on m points, drawn through
    its r x m factor, which claims ``mass`` clipped."""
    x = np.random.default_rng(seed + 200).standard_normal((m, r))
    factor = (x / np.linalg.norm(x, axis=1)[:, None]).T
    return SupQuantileRequest(_MatrixRoot(factor, mass), 0.05, paths, seed)


class TestFactorRoot:
    PATHS = 2048 + 37

    def test_draws_r_normals_per_path(self):
        # the oracle redraws each chunk's (k, r) normals from its own substream
        request = _factor_request(7, 30, 5, self.PATHS, mass=1e-3)
        values, mass = simulate_sup_norms(request)
        streams = np.random.SeedSequence(5).spawn(2)
        z = np.vstack([np.random.Generator(np.random.Philox(s)).standard_normal((k, 7))
                       for k, s in zip((2048, 37), streams)])
        np.testing.assert_array_equal(values, np.abs(z @ request.root.factor).max(axis=1))
        assert mass == 1e-3

    def test_shares_a_draw_by_width(self):
        # a width-40 factor on 60 points and a dense root on 40 points
        requests = [_factor_request(40, 60, 3, self.PATHS), _shrunk_request(5, 40, 0.3, 3,
                                                                            self.PATHS, False)]
        for request, (values, mass) in zip(requests, simulate_sup_norms(*requests)):
            alone, alone_mass = simulate_sup_norms(request)
            assert np.array_equal(values, alone) and mass == alone_mass
        with pytest.raises(FuncbandError, match="must share seed, paths and width"):
            simulate_sup_norms(_factor_request(39, 60, 3, self.PATHS), requests[1])


def _gof_case(monkeypatch, n, p, shrinkage):
    """The root and clipped mass of ``scb_gof_test`` on m3 under H0 with a
    line model on m = 100 points, and the plug-in correlation it draws from."""
    sample, model = gen_model3(n, p, seed_or_rng=n + p), polynomial_basis(1)
    eval = make_eval_grid(100)
    requests, run = [], bands.sup_quantile
    monkeypatch.setattr(bands, "sup_quantile", lambda r: requests.append(r) or run(r))
    report = scb_gof_test(sample, model, eval, 0.035, paths=500, seed=1, shrinkage=shrinkage)
    cov = gamma_n_plugin(sample, model, eval, 0.035, shrinkage=shrinkage)[0]
    rho = correlation_from_covariance(cov).table
    return requests[0].root, report.diagnostics["clipped_mass"], rho


def _table_case(monkeypatch):
    table = np.exp(-5.0 * np.abs(np.subtract.outer(np.arange(40), np.arange(40))) / 40)
    return SupQuantileRequest(table, 0.05, 1000, 0).root, 0.0, table


def _thin_case(monkeypatch):
    curves = _curves(8, 40, seed=31)
    mean, sd = curves.mean(axis=0), curves.std(axis=0, ddof=1)
    raw = empirical_correlation(curves, make_eval_grid(40), mean, sd**2)
    table = shrink_correlation(raw, ShrinkageSpec(intensity=0.2))[0].table
    return _curve_root(curves, mean, sd, 0.2), 0.0, table


class TestRootProtocol:
    """Every root is a width x size array L, applied as z L, with L'L its
    table(): the given table, the gof factor's correlation or the shrunk
    correlation, each checked against a table built without the root."""

    @pytest.mark.parametrize("make, kind, width, size", [
        (_table_case, _MatrixRoot, 40, 40),
        # no shrinkage and n - 1 = 9 < p - L: a rank-9 factor that drops rounding mass
        (lambda mp: _gof_case(mp, 10, 50, None), _MatrixRoot, 9, 100),
        # p - L = 148 > m: the m x m R of the factor's QR
        (lambda mp: _gof_case(mp, 50, 150, ShrinkageSpec()), _MatrixRoot, 100, 100),
        (_thin_case, _ThinRoot, 40, 40),
    ], ids=["dense table", "gof r < m", "gof r > m", "thin"])
    def test_identity_gives_a_root_of_the_table(self, make, kind, width, size, monkeypatch):
        root, mass, oracle = make(monkeypatch)
        assert type(root) is kind
        assert (root.width, root.size, root.mass) == (width, size, mass)
        assert (mass > 0.0) == (width == 9)
        factor = root(np.eye(width), np.empty((width, size)))      # I L = L
        np.testing.assert_allclose(factor.T @ factor, root.table(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(root.table(), oracle, rtol=0, atol=1e-12)


class TestQuantileStderr:
    def test_ties_widen_the_window(self):
        # 2500 values on 7 atoms: the order statistics next to the 0.95
        # quantile all tie, yet the quantile is not known exactly
        vals = np.repeat(np.arange(7.0), [400, 300, 300, 400, 400, 350, 350])
        assert _quantile_stderr(vals, 0.05) > 0.0
        assert _quantile_stderr(np.full(100, 2.0), 0.05) == 0.0


class TestSupQuantile:
    def test_single_point_95(self):
        # [DERIVED] c_0.05 for one point is the 0.975 normal quantile 1.959964
        res = sup_quantile(_request([[1.0]], paths=100000, seed=6))
        assert abs(res.threshold - 1.959964) <= 3 * res.stderr
        assert res.stderr < 0.03

    def test_independent_100_points(self):
        # [DERIVED] identity correlation m=100: Phi^-1((1 + 0.95^(1/100))/2) = 3.481
        target = norm.ppf((1 + 0.95 ** 0.01) / 2)
        res = sup_quantile(_request(np.eye(100), paths=50000, seed=7))
        assert abs(res.threshold - target) <= 3 * res.stderr

    def test_median_of_absolute_normal(self):
        # [DERIVED] gamma = 0.5 on one point: median of |N(0,1)| = 0.6745
        res = sup_quantile(_request([[1.0]], gamma=0.5, paths=100000, seed=8))
        assert abs(res.threshold - 0.674490) < 0.01

    def test_monotone_in_gamma(self):
        values, _ = simulate_sup_norms(_request(np.eye(20), paths=5000, seed=9))
        qs = [order_statistic_quantile(values, g) for g in (0.01, 0.05, 0.1, 0.5)]
        assert qs == sorted(qs, reverse=True)

    def test_dependence_reduces_threshold(self):
        # OU-style correlation vs independence at the same grid size
        x = np.linspace(0, 1, 50)
        table = 0.9 ** (20.0 * np.abs(x[:, None] - x[None, :]))
        dep = sup_quantile(_request(table, paths=30000, seed=10)).threshold
        ind = sup_quantile(_request(np.eye(50), paths=30000, seed=10)).threshold
        assert dep < ind

    def test_deterministic_given_seed(self):
        table = np.eye(12)
        a = sup_quantile(_request(table, paths=5000, seed=11))
        b = sup_quantile(_request(table, paths=5000, seed=11))
        assert a.threshold == b.threshold

    def test_doubling_paths_is_stable(self):
        table = np.eye(25)
        small = sup_quantile(_request(table, paths=20000, seed=12))
        big = sup_quantile(_request(table, paths=40000, seed=13))
        assert abs(small.threshold - big.threshold) <= 3 * small.stderr


class TestConventions:
    def test_order_statistic_convention(self):
        values = np.arange(1.0, 11.0)  # 1..10
        # ceil(0.95 * 10) = 10th order statistic
        assert order_statistic_quantile(values, 0.05) == 10.0
        # ceil(0.5 * 10) = 5th
        assert order_statistic_quantile(values, 0.5) == 5.0
        # single value: any gamma returns it
        assert order_statistic_quantile(np.array([2.5]), 0.05) == 2.5

    def test_default_path_schedule(self):
        assert default_path_count(10) == 8000
        assert default_path_count(20) == 10000
        assert default_path_count(50) == 13000
        assert default_path_count(100) == 13000
