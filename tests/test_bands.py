"""Normal, bootstrap, two-sample, and prediction bands."""

import json
import re
import warnings
from math import sqrt

import numpy as np
import pytest
from conftest import chunk_normals, oracle_sups
from hypothesis import given, settings
from hypothesis import strategies as st

from funcband import (
    DegenerateVarianceError,
    FuncbandError,
    FunctionalSample,
    GridError,
    SampleValidationError,
    band_covers,
    bootstrap_scb,
    cv_bandwidth,
    make_eval_grid,
    normal_scb,
    plrt_test,
    polynomial_basis,
    prediction_band,
    scb_gof_test,
    split_half_bandwidth,
    two_sample_scb,
    uniform_design_grid,
)
from funcband import bands, moments, supnorm
from funcband.bands import _BOOT_VAR_RTOL, _bootstrap_sup_stats, _resample_z
from funcband.simlab import gen_model1, m1_mean
from funcband.smoothing import fit_mean
from funcband.supnorm import order_statistic_quantile


@pytest.fixture(scope="module")
def sample50():
    return gen_model1(50, 50, seed_or_rng=100)


@pytest.fixture(scope="module")
def eval_grid():
    return make_eval_grid(60)


class TestBandResult:
    def test_symmetry_exact(self, sample50, eval_grid):
        band = normal_scb(sample50, eval_grid, 0.05, seed=1)
        np.testing.assert_array_equal(band.upper, band.center + band.half_width)
        np.testing.assert_array_equal(band.lower, band.center - band.half_width)
        assert np.all(band.half_width >= 0)

    def test_coverage_checker_agrees_with_scan(self, sample50, eval_grid):
        band = normal_scb(sample50, eval_grid, 0.05, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            curve = band.center + rng.uniform(-2, 2) * band.half_width * rng.uniform(0, 1.5)
            direct = all(
                band.lower[i] <= curve[i] <= band.upper[i]
                for i in range(len(curve))
            )
            assert band_covers(band, curve) == direct

    def test_level_monotonicity(self, sample50, eval_grid):
        # same seed => same simulated sup sample => nested bands
        b95 = normal_scb(sample50, eval_grid, 0.05, gamma=0.05, seed=2)
        b99 = normal_scb(sample50, eval_grid, 0.05, gamma=0.01, seed=2)
        assert b99.threshold >= b95.threshold
        assert np.all(b99.half_width >= b95.half_width)

    def test_scaling_equivariance(self, sample50, eval_grid):
        s = 3.7
        scaled = FunctionalSample(grid=sample50.grid, values=s * sample50.values)
        a = normal_scb(sample50, eval_grid, 0.05, seed=3)
        b = normal_scb(scaled, eval_grid, 0.05, seed=3)
        # correlation is scale-free up to roundoff in the shrinkage intensity
        assert b.threshold == pytest.approx(a.threshold, rel=1e-9)
        np.testing.assert_allclose(b.center, s * a.center, atol=1e-10)
        np.testing.assert_allclose(b.half_width, s * a.half_width, atol=1e-9)
        truth = m1_mean(eval_grid.points)
        assert band_covers(a, truth) == band_covers(b, s * truth)

    @pytest.mark.parametrize("shape", [(3,), (2, 60), (60, 1)])
    def test_curve_of_another_shape_rejected(self, sample50, eval_grid, shape):
        band = normal_scb(sample50, eval_grid, 0.05, paths=200, seed=1)
        for check in (lambda v: band_covers(band, v), band.covers):
            with pytest.raises(FuncbandError, match=re.escape(f"{shape}") + r".*\(60,\)"):
                check(np.zeros(shape))


class TestNormalScb:
    def test_one_replication_covers(self, sample50, eval_grid):
        band = normal_scb(sample50, eval_grid, 0.05, seed=4)
        assert band.method == "normal"
        assert band_covers(band, m1_mean(eval_grid.points))

    def test_degenerate_sample_errors(self, eval_grid):
        grid = uniform_design_grid(30)
        row = np.sin(2 * np.pi * grid.points)
        clones = FunctionalSample(grid=grid, values=np.tile(row, (5, 1)))
        with pytest.raises(DegenerateVarianceError):
            normal_scb(clones, eval_grid, 0.15, seed=5)

    def test_json_and_csv_round_trip(self, sample50, eval_grid, tmp_path):
        band = normal_scb(sample50, eval_grid, 0.05, seed=6)
        payload = band.to_dict()
        for key in ("level", "method", "threshold", "grid", "center", "lower", "upper"):
            assert key in payload
        path = tmp_path / "band.csv"
        band.write_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(data["center"], band.center, atol=1e-12)
        np.testing.assert_allclose(data["lower"], band.lower, atol=1e-12)


def test_negative_seed_rejected(eval_grid):
    sample = gen_model1(12, 30, seed_or_rng=210)
    for build in (normal_scb, prediction_band,
                  lambda *a, seed: bootstrap_scb(*a, bootstraps=50, seed=seed)):
        with pytest.raises(FuncbandError, match="seed"):
            build(sample, eval_grid, 0.1, seed=-1)
    with pytest.raises(FuncbandError, match="seed"):
        split_half_bandwidth(sample, [0.1, 0.2], seed=-1)


class TestBootstrapScb:
    def test_single_resample_order_statistic(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=200)
        band = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=1, seed=7)
        assert band.threshold > 0  # the single z* value, by the ceil convention
        assert band.method == "bootstrap"

    def test_deterministic_for_same_seed(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=201)
        a = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=600, seed=8)
        b = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=600, seed=8)
        assert a.threshold == b.threshold
        np.testing.assert_array_equal(a.half_width, b.half_width)

    def test_resample_limit(self, eval_grid):
        # 12 curves: at most 1e8 / 12 resamples; both values are rejected before any draw
        sample = gen_model1(12, 30, seed_or_rng=203)
        for bootstraps in (10**8 // 12 + 1, 10**23):
            with pytest.raises(FuncbandError, match=f"bootstraps={bootstraps}"):
                bootstrap_scb(sample, eval_grid, 0.1, bootstraps=bootstraps, seed=1)

    def test_uses_original_sigma(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=202)
        normal = normal_scb(sample, eval_grid, 0.1, seed=9)
        boot = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=500, seed=9)
        # half widths are proportional: both are c * sigma_hat / sqrt(n)
        ratio = boot.half_width / normal.half_width
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)


    def test_level_outside_unit_interval_errors(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=203)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(FuncbandError, match="level"):
                bootstrap_scb(sample, eval_grid, 0.1, gamma=bad, bootstraps=10, seed=1)

    def test_diagnostics(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=204)
        band = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=800, seed=2)
        assert band.details["redraws"] == 0
        assert 0.0 < band.details["threshold_stderr"] < band.threshold

    def test_threshold_stderr_positive_under_ties(self, eval_grid):
        # at n=3 the 2500 z* values take 7 distinct values, so the order
        # statistics around the quantile tie; that must not read as exact
        sample = gen_model1(3, 30, seed_or_rng=1)
        band = bootstrap_scb(sample, eval_grid, 0.1, seed=1)
        assert 0.0 < band.details["threshold_stderr"] < band.threshold

    def test_two_curves_rejected(self, eval_grid):
        # every resample of two curves that varies everywhere permutes them: z* = 0
        sample = gen_model1(2, 30, seed_or_rng=5)
        with pytest.raises(DegenerateVarianceError, match="n >= 3 curves, got n=2"):
            bootstrap_scb(sample, eval_grid, 0.1, bootstraps=300, seed=1)

    def test_nan_sample_rejected(self, eval_grid):
        sample = gen_model1(12, 30, seed_or_rng=1)
        values = sample.values.copy()
        values[4, 7] = np.nan
        with pytest.raises(SampleValidationError, match=r"curve 4.*point 7"):
            bootstrap_scb(FunctionalSample(grid=sample.grid, values=values),
                          eval_grid, 0.1, bootstraps=300, seed=1)


def _reference_z_star(curves, mean, bootstraps, seed, chunk=512, attempts=100):
    """z* one resample at a time, from the same Philox substreams and index
    draws: each chunk draws all its index rows first, then redraws the
    degenerate ones (some point where every resampled curve is equal) in row
    order, round after round."""
    n = curves.shape[0]
    sizes = [min(chunk, bootstraps - start) for start in range(0, bootstraps, chunk)]
    parts, redraws = [], 0
    for k, stream in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.Generator(np.random.Philox(stream))
        rows = [rng.integers(0, n, size=n) for _ in range(k)]
        z = np.full(k, np.nan)
        pending = range(k)
        for attempt in range(attempts):
            if attempt:
                redraws += len(pending)
                for b in pending:
                    rows[b] = rng.integers(0, n, size=n)
            retry = []
            for b in pending:
                boot = curves[rows[b]]
                if np.any(np.all(boot == boot[0], axis=0)):
                    retry.append(b)
                    continue
                mu_star = boot.mean(axis=0)
                var_star = boot.var(axis=0, ddof=1)
                z[b] = sqrt(n) * np.max(np.abs(mu_star - mean) / np.sqrt(var_star))
            pending = retry
            if not pending:
                break
        assert not pending
        parts.append(z)
    return np.concatenate(parts), redraws


class TestBootstrapOracle:
    @pytest.mark.parametrize("n, bootstraps", [(20, 1100), (3, 700)])
    def test_matches_per_resample_reference(self, eval_grid, n, bootstraps):
        sample = gen_model1(n, 30, seed_or_rng=210 + n)
        fit = fit_mean(sample, eval_grid, 0.1)
        z, redraws = _bootstrap_sup_stats(fit.curves, fit.mean, bootstraps, seed=n)
        z_ref, redraws_ref = _reference_z_star(fit.curves, fit.mean, bootstraps, seed=n)
        assert np.all(np.isfinite(z))
        # z* of a resample that is a permutation of the sample is 0; both
        # sides give rounding noise of order 1e-15 there, hence the atol
        np.testing.assert_allclose(z, z_ref, rtol=1e-12, atol=1e-12)
        assert redraws == redraws_ref
        if n == 3:
            # all three indices equal with probability 1/9
            assert redraws > bootstraps / 20
        band = bootstrap_scb(sample, eval_grid, 0.1, bootstraps=bootstraps, seed=n)
        assert band.threshold == pytest.approx(
            order_statistic_quantile(z_ref, 0.05), rel=1e-12)
        assert band.details["redraws"] == redraws

    def test_persistent_degeneracy_errors(self, eval_grid):
        # identical curves: every resample is constant at every point
        curves = np.tile(np.sin(2 * np.pi * eval_grid.points), (2, 1))
        with pytest.raises(DegenerateVarianceError, match="100 times"):
            _bootstrap_sup_stats(curves, curves[0], 50, seed=3)


def _direct_z(curves, mean, idx):
    """z* = sqrt(n) max |mu* - mu_hat| / sigma* of each index row, one resample
    at a time, and the mask of rows with a point where every resampled curve
    is equal (their z* is left NaN)."""
    n = curves.shape[0]
    z, degenerate = np.full(len(idx), np.nan), np.zeros(len(idx), dtype=bool)
    for b, row in enumerate(idx):
        boot = curves[row]
        degenerate[b] = np.any(np.all(boot == boot[0], axis=0))
        if not degenerate[b]:
            z[b] = sqrt(n) * np.max(np.abs(boot.mean(axis=0) - mean) / boot.std(axis=0, ddof=1))
    return z, degenerate


def _check_resample_z(curves, mean, idx):
    k, m = idx.shape[0], curves.shape[1]
    powers = np.hstack([curves - mean, (curves - mean) ** 2])
    buffers = (np.empty((k, 2 * m)), np.empty((k, m)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, degenerate = _resample_z(curves, mean, powers, idx, buffers)
    z_ref, degenerate_ref = _direct_z(curves, mean, idx)
    np.testing.assert_array_equal(degenerate, degenerate_ref)
    np.testing.assert_allclose(z[~degenerate], z_ref[~degenerate], rtol=1e-13, atol=0)


class TestResampleZ:
    """The three-pass z* of a chunk against z* taken one resample at a time."""

    # integer-valued curves and centres keep S1 and S2 exact, so a resample
    # whose mean equals the centre has S1 = 0 exactly on both sides
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(1, 5), st.data())
    def test_matches_direct_z(self, n, m, data):
        values = st.integers(-3, 3).map(float)
        curves = np.array(data.draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                             min_size=n, max_size=n)))
        mean = np.array(data.draw(st.lists(values, min_size=m, max_size=m)))
        idx = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                                   max_size=n), min_size=1, max_size=12)))
        _check_resample_z(curves, mean, idx)

    def test_zero_mean_shift_and_constant_point(self):
        curves = np.random.default_rng(7).normal(size=(4, 6))
        curves[:, 0] = (1.0, -1.0, -1.0, 1.0)   # row [0, 0, 1, 2]: S1 = 0, S2 = 4
        curves[:, 1] = (0.0, 1.0, -1.0, 0.0)    # row [0, 3, 0, 3]: S1 = S2 = 0
        idx = np.array([[0, 0, 1, 2], [0, 3, 0, 3]])
        assert _direct_z(curves, np.zeros(6), idx)[1].tolist() == [False, True]
        _check_resample_z(curves, np.zeros(6), idx)

    @pytest.mark.parametrize("side", [0.999, 1.001])
    def test_rows_either_side_of_the_flag(self, side):
        # row [0, 0, 0, 1] at deviations (1, 1, 1, b): (n-1) var* / S2 is
        # 3 (1 - b)^2 / (4 (3 + b^2)); b puts it at side * rtol
        rho = side * _BOOT_VAR_RTOL
        b = 1.0 + (8 * rho + np.sqrt(64 * rho * rho + 64 * rho * (3 - 4 * rho))) / (6 - 8 * rho)
        curves = np.array([[1.0, 4.0], [b, -4.0], [5.0, 0.0], [-5.0, 0.0]])
        boot = curves[[0, 0, 0, 1], 0]
        ss = ((boot - boot.mean()) ** 2).sum()
        assert (ss <= _BOOT_VAR_RTOL * (boot * boot).sum()) == (side < 1)
        _check_resample_z(curves, np.zeros(2), np.array([[0, 0, 0, 1]]))


class TestTwoSampleScb:
    def test_diagnostics(self, sample50, eval_grid):
        other = gen_model1(50, 50, seed_or_rng=13)
        res = two_sample_scb(sample50, other, eval_grid, 0.05, 0.05, seed=10)
        lams = res.band.details["shrinkage_lambda"]
        assert len(lams) == 2 and all(0.0 <= lam <= 1.0 for lam in lams)
        assert 0.0 < res.band.details["threshold_stderr"] < res.band.threshold

    def test_self_comparison_never_rejects(self, sample50, eval_grid):
        res = two_sample_scb(sample50, sample50, eval_grid, 0.05, 0.05, seed=10)
        np.testing.assert_allclose(res.band.center, 0.0, atol=1e-10)
        assert not res.reject

    def test_unit_shift_rejects(self, eval_grid):
        for rep in range(5):
            a = gen_model1(50, 50, seed_or_rng=300 + rep)
            b = gen_model1(50, 50, seed_or_rng=400 + rep)
            shifted = FunctionalSample(grid=b.grid, values=b.values + 1.0)
            res = two_sample_scb(a, shifted, eval_grid, 0.05, 0.05, seed=11)
            assert res.reject

    def test_grid_mismatch_errors(self, sample50, eval_grid):
        other = gen_model1(10, 40, seed_or_rng=12)
        with pytest.raises((GridError, ValueError)):
            two_sample_scb(sample50, other, eval_grid, 0.05, 0.05, seed=12)


class TestPredictionBand:
    def test_no_root_n_factor(self, sample50, eval_grid):
        normal = normal_scb(sample50, eval_grid, 0.05, seed=13)
        pred = prediction_band(sample50, eval_grid, 0.05, seed=13)
        assert pred.threshold == normal.threshold  # same correlation, same seed
        np.testing.assert_allclose(
            pred.half_width, normal.half_width * np.sqrt(sample50.n_curves), atol=1e-10
        )

    def test_degenerate_training_errors(self, eval_grid):
        grid = uniform_design_grid(30)
        row = np.cos(2 * np.pi * grid.points)
        clones = FunctionalSample(grid=grid, values=np.tile(row, (6, 1)))
        with pytest.raises(DegenerateVarianceError):
            prediction_band(clones, eval_grid, 0.15, seed=14)

    def test_bands_on_two_grids_share_one_draw(self, sample50, monkeypatch):
        # the 100-point band is its own prediction_band; the 50-point band's
        # root reads the first 50 columns of the same normals
        eval, paths = make_eval_grid(100), 2 * 2048 + 37
        calls, run = [], bands.simulate_sup_norms
        monkeypatch.setattr(bands, "simulate_sup_norms", lambda *r: calls.append(r) or run(*r))
        wide, narrow = bands._prediction_bands(sample50, [eval, sample50.grid], 0.05,
                                               "epanechnikov", 0.1, paths, 7)
        assert [[r.root.width for r in requests] for requests in calls] == [[100, 50]]
        alone = prediction_band(sample50, eval, 0.05, "epanechnikov", 0.1, paths, 7)
        for name in ("center", "half_width", "lower", "upper"):
            np.testing.assert_array_equal(getattr(wide, name), getattr(alone, name))
        assert (wide.threshold, wide.details) == (alone.threshold, alone.details)
        sups = oracle_sups(calls[0][1].root, chunk_normals(7, paths, 100))
        assert (narrow.threshold, narrow.details["threshold_stderr"]) == \
            supnorm._sorted_quantile(sups, 0.1)
        assert narrow.grid is sample50.grid and narrow.method == "prediction"


def _refuse_dense_root(table, correlation=False):
    raise AssertionError("dense square root taken")


def _refuse_table(*args, **kwargs):
    raise AssertionError("m x m correlation built")


class TestSquareRootChoice:
    """Mean and prediction bands of n < m/2 curves draw through the thin root
    of the shrunk correlation, and the goodness-of-fit band through its
    factor (or that factor's QR when p - L > m); other mean and prediction
    bands take the same root as a dense matrix, from the same thin SVD, and
    the two-sample band the dense root of its table from ``_psd_root``."""

    def test_thin_root_for_few_curves(self, monkeypatch):
        grid = uniform_design_grid(15, 15)
        rng = np.random.default_rng(17)
        values = np.sin(2 * np.pi * grid.points[:, 0]) + rng.standard_normal((40, 225))
        calls = [
            lambda: normal_scb(FunctionalSample(grid=grid, values=values),
                               make_eval_grid(25, dim=2), (0.2, 0.2), seed=3),
            lambda: prediction_band(gen_model1(10, 30, seed_or_rng=18), make_eval_grid(100),
                                    0.1, seed=4),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(supnorm, "_psd_root", _refuse_dense_root)
            thin = [call() for call in calls]
        monkeypatch.setattr(bands, "_THIN_MIN_LAMBDA", np.inf)     # always the dense root
        for band, dense in zip(thin, (call() for call in calls)):
            assert band.details["clipped_mass"] == 0.0
            assert band.threshold == pytest.approx(dense.threshold, rel=1e-12, abs=0)
            np.testing.assert_allclose(band.half_width, dense.half_width, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(band.center, dense.center)

    def test_thin_path_builds_no_table(self, monkeypatch):
        # 2n < m: the draw needs lambda and the thin root, not the m x m
        # correlation; the request still gives its table when asked
        grid = uniform_design_grid(15, 15)
        rng = np.random.default_rng(23)
        values = np.sin(2 * np.pi * grid.points[:, 0]) + rng.standard_normal((40, 225))
        cases = [(FunctionalSample(grid=grid, values=values), make_eval_grid(25, dim=2),
                  (0.2, 0.2), normal_scb),
                 (gen_model1(10, 30, seed_or_rng=24), make_eval_grid(100), 0.1,
                  prediction_band)]
        requests, run = [], bands.simulate_sup_norms
        with monkeypatch.context() as patch:
            patch.setattr(moments, "_unit_correlation", _refuse_table)
            patch.setattr(bands, "_unit_correlation", _refuse_table)
            patch.setattr(bands, "_shrunk_table", _refuse_table)
            patch.setattr(supnorm, "_shrunk_table", _refuse_table)
            patch.setattr(bands, "simulate_sup_norms", lambda *r: requests.extend(r) or run(*r))
            built = [build(sample, eval, h, seed=5) for sample, eval, h, build in cases]
        for (sample, eval, h, _), band, request in zip(cases, built, requests):
            fit = fit_mean(sample, eval, h)
            raw = moments.empirical_correlation(fit.curves)
            lam = band.details["shrinkage_lambda"]
            dense = (1.0 - lam) * raw + lam * np.eye(len(raw))
            assert isinstance(request.root, supnorm._ThinRoot)
            assert request.correlation is request.root and dense.shape == (eval.n_points,) * 2
            np.testing.assert_allclose(request.table(), dense, rtol=0, atol=1e-14)

    def test_overflowing_thin_input_raises(self):
        # sigma_hat^2 overflows to inf; the dense path raised on its NaN table
        grid = uniform_design_grid(15, 15)
        values = 1e160 * np.random.default_rng(25).standard_normal((40, 225))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FuncbandError, match="non-finite"):
            normal_scb(FunctionalSample(grid=grid, values=values), make_eval_grid(25, dim=2),
                       (0.2, 0.2), seed=1)

    @pytest.mark.parametrize("entry", ["normal_scb", "prediction_band", "bootstrap_scb",
                                       "two_sample_scb", "scb_gof_test", "plrt_test"])
    def test_overflowing_curves_named_without_numpy_warnings(self, entry):
        # curves near 1e160 overflow sigma_hat^2, the data covariance or the RSS
        small = gen_model1(50, 50, seed_or_rng=26)
        big = FunctionalSample(grid=small.grid, values=1e160 * small.values)
        eval, line = make_eval_grid(100), polynomial_basis(1)
        call = {
            "normal_scb": lambda: normal_scb(big, eval, 0.05, paths=500),
            "prediction_band": lambda: prediction_band(big, eval, 0.05, paths=500),
            "bootstrap_scb": lambda: bootstrap_scb(big, eval, 0.05, bootstraps=200),
            "two_sample_scb": lambda: two_sample_scb(small, big, eval, 0.05, paths=500),
            "scb_gof_test": lambda: scb_gof_test(big, line, eval, 0.05, paths=500),
            "plrt_test": lambda: plrt_test(big, line, 0.05),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SampleValidationError, match="non-finite .* point index"):
                call()

    @pytest.mark.parametrize("case", ["lambda 0", "2n >= m", "two-sample", "gof"])
    def test_dense_root_kept(self, case, monkeypatch):
        few = gen_model1(10, 30, seed_or_rng=19)
        grid = make_eval_grid(100)
        build = {
            "lambda 0": lambda: normal_scb(few, grid, 0.1, paths=500, seed=1),
            "2n >= m": lambda: normal_scb(gen_model1(50, 30, seed_or_rng=20), grid, 0.1,
                                          paths=500, seed=1),
            "two-sample": lambda: two_sample_scb(few, gen_model1(10, 30, seed_or_rng=21), grid,
                                                 0.1, paths=500, seed=1),
            # p - L = 108 > m: drawn through the m x m R of its factor's QR, not _psd_root
            "gof": lambda: scb_gof_test(gen_model1(10, 110, seed_or_rng=22), polynomial_basis(1),
                                        grid, 0.1, paths=500, seed=1),
        }[case]
        if case == "lambda 0":
            monkeypatch.setattr(bands, "schafer_strimmer_lambda", lambda curves: 0.0)
        taken, requests, run = [], [], bands.simulate_sup_norms
        dense_root = supnorm._psd_root
        monkeypatch.setattr(supnorm, "_psd_root", lambda table, correlation=False:
                            taken.append(table.shape) or dense_root(table, correlation))
        monkeypatch.setattr(bands, "simulate_sup_norms", lambda *r: requests.extend(r) or run(*r))
        build()
        assert taken == ([(100, 100)] if case == "two-sample" else [])
        assert [(r.root.width, r.root.size) for r in requests] == [(100, 100)]
        assert all(type(r.root) is supnorm._MatrixRoot for r in requests)


def test_gaussian_bands_share_details_keys(sample50, eval_grid):
    other = gen_model1(50, 50, seed_or_rng=13)
    bands = [normal_scb(sample50, eval_grid, 0.05, seed=1),
             prediction_band(sample50, eval_grid, 0.05, seed=1),
             two_sample_scb(sample50, other, eval_grid, 0.05, seed=1).band,
             scb_gof_test(sample50, polynomial_basis(1), eval_grid, 0.05, seed=1).band]
    keys = {"h", "kernel", "seed", "paths", "shrinkage_lambda", "clipped_mass",
            "threshold_stderr"}
    assert [set(b.details) for b in bands] == [keys] * 4


@pytest.mark.parametrize("build", [normal_scb, bootstrap_scb])
def test_bandwidth_object_gives_the_tuple_band(build):
    # a 2-d bandwidth object once failed in the band's provenance, after the band was built
    grid = uniform_design_grid(8, 8)
    values = grid.points[:, 0] + np.random.default_rng(27).standard_normal((15, 64))
    sample, eval = FunctionalSample(grid=grid, values=values), make_eval_grid(10, 2)
    kwargs = {"paths": 500} if build is normal_scb else {"bootstraps": 200}
    a = build(sample, eval, np.array([0.3, 0.3]), seed=1, **kwargs)
    b = build(sample, eval, (0.3, 0.3), seed=1, **kwargs)
    assert a.threshold == b.threshold and a.details["h"] == b.details["h"] == (0.3, 0.3)
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.half_width, b.half_width)


def test_cv_bandwidth_result_passed_back_as_h(sample50, eval_grid):
    best, _ = cv_bandwidth(sample50, [0.05, 0.1])
    band = normal_scb(sample50, eval_grid, best, paths=500, seed=1)
    scalar = normal_scb(sample50, eval_grid, best[0], paths=500, seed=1)
    assert band.details["h"] == scalar.details["h"] == best
    np.testing.assert_array_equal(band.half_width, scalar.half_width)


def test_details_are_json_ready(sample50, eval_grid):
    # details["h"] is one float per axis whatever form h takes, one such tuple
    # per sample for the two-sample band, and details["kernel"] is the name
    best, _ = cv_bandwidth(sample50, [0.05, 0.1])
    for h in (0.05, (0.05,), [0.05], np.array([0.05]), best):
        band = normal_scb(sample50, eval_grid, h, "gauss", paths=200, seed=1)
        assert json.loads(json.dumps(band.details))["h"] == [band.details["h"][0]]
        assert type(band.details["h"][0]) is float and band.details["kernel"] == "gauss"
    other = gen_model1(50, 50, seed_or_rng=13)
    bands_ = [bootstrap_scb(sample50, eval_grid, np.array([0.05]), bootstraps=100, seed=1),
              prediction_band(sample50, eval_grid, [0.05], paths=200, seed=1),
              scb_gof_test(sample50, polynomial_basis(1), eval_grid, np.float64(0.05),
                           paths=200, seed=1).band]
    for band in bands_:
        json.dumps(band.details)
        assert band.details["h"] == (0.05,) and band.details["kernel"] == "epanechnikov"
    pair = two_sample_scb(sample50, other, eval_grid, np.array([0.05]), [0.1], paths=200,
                          seed=1).band
    json.dumps(pair.details)
    assert pair.details["h"] == ((0.05,), (0.1,))
    assert len(pair.details["shrinkage_lambda"]) == 2


def _recording(fn, draws):
    """``fn``, recording a copy of the draw it returns before the band sorts it."""
    def call(*args):
        out = fn(*args)
        draws.append(out[0].copy())
        return out
    return call


@pytest.mark.parametrize("kind", ["normal", "bootstrap"])
def test_threshold_is_the_quantile_of_its_draw(kind, sample50, eval_grid, monkeypatch):
    # the band's c and its standard error come from the very sup-norm draw made for it
    draws = []
    if kind == "normal":
        monkeypatch.setattr(bands, "simulate_sup_norms",
                            _recording(bands.simulate_sup_norms, draws))
        band = normal_scb(sample50, eval_grid, 0.05, paths=3000, seed=2)
    else:
        monkeypatch.setattr(bands, "_bootstrap_sup_stats",
                            _recording(bands._bootstrap_sup_stats, draws))
        band = bootstrap_scb(sample50, eval_grid, 0.05, bootstraps=700, seed=2)
    assert len(draws) == 1
    c, se = supnorm._sorted_quantile(draws[0], 0.05)
    assert (band.threshold, band.details["threshold_stderr"]) == (c, se)
    assert c == order_statistic_quantile(draws[0], 0.05) and se > 0


class TestSplitHalfBandwidth:
    def test_single_candidate(self):
        sample = gen_model1(12, 30, seed_or_rng=500)
        best, _ = split_half_bandwidth(sample, [0.2], seed=15)
        assert best == (0.2,)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(paths=5), "paths=5"), (dict(gamma=1.5), "gamma=1.5"), (dict(gamma=0.0), "gamma=0.0")])
    def test_bad_argument_named(self, kwargs, named):
        sample = gen_model1(12, 30, seed_or_rng=502)
        with pytest.raises(FuncbandError, match=named):
            split_half_bandwidth(sample, [0.1, 0.2], seed=17, **kwargs)

    def test_ill_posed_candidate_skipped(self):
        sample = gen_model1(12, 30, seed_or_rng=501)
        best, _ = split_half_bandwidth(sample, [0.01, 0.25], seed=16)
        assert best == (0.25,)

    def test_duplicate_candidates_searched_once(self, monkeypatch):
        sample = gen_model1(12, 30, seed_or_rng=503)
        once = split_half_bandwidth(sample, [0.2, 0.1], seed=18)
        built = []
        part = bands._curve_part
        monkeypatch.setattr(bands, "_curve_part",
                            lambda *args: built.append(args[2]) or part(*args))
        assert split_half_bandwidth(sample, [0.1, 0.2, 0.1, 0.2], seed=18) == once
        assert built == [(0.1,), (0.2,)]


def _split_half_by_loop(sample, candidates, seed, paths=None, gamma=0.05):
    """split_half_bandwidth's choice and coverages, one prediction band per
    candidate on the first half, each drawn on its own."""
    half = sample.n_curves // 2
    build = FunctionalSample(grid=sample.grid, values=sample.values[:half])
    best, best_gap, coverages = None, None, {}
    for h in sorted(set(candidates)):
        try:
            band = prediction_band(build, sample.grid, h, "epanechnikov", gamma, paths, seed)
        except FuncbandError:
            continue
        cov = float(np.mean([band.covers(row) for row in sample.values[half:]]))
        coverages[(h,)] = cov
        if best is None or abs(cov - (1 - gamma)) < best_gap:
            best, best_gap = (h,), abs(cov - (1 - gamma))
    return best, coverages


class TestOneBlasThread:
    """A Gaussian band holds OpenBLAS at one thread from its first product to
    the end of its draw, and then sets back the caller's count."""

    @pytest.mark.parametrize("band", [
        lambda s, e: normal_scb(s, e, 0.1, paths=500),
        lambda s, e: prediction_band(s, e, 0.1, paths=500),
        lambda s, e: split_half_bandwidth(s, [0.1, 0.2], paths=500),
    ], ids=["normal", "prediction", "split-half"])
    def test_products_run_on_one_thread(self, band, monkeypatch):
        setter = supnorm._openblas_setter()
        if setter is None:
            pytest.skip("OpenBLAS's openblas_set_num_threads_local was not found")
        counts, fit = [], bands.fit_mean

        def counted(*args):
            counts.append(setter(1))        # the count held at the smoother's product
            return fit(*args)

        monkeypatch.setattr(bands, "fit_mean", counted)
        saved = setter(2)
        try:
            band(gen_model1(20, 20, seed_or_rng=5), make_eval_grid(50))
            assert counts and set(counts) == {1}
            assert setter(2) == 2
        finally:
            setter(saved)


class TestSplitHalfSharedDraw:
    """The candidates share one draw of the Gaussian paths, and the search
    equals a loop of separately drawn prediction bands."""

    @pytest.mark.parametrize("n, p, candidates, paths", [
        (50, 50, [0.04, 0.08, 0.16, 0.32, 0.48], None),         # dense roots
        (12, 30, [0.1, 0.15, 0.2, 0.3], 2 * 2048 + 37),        # thin roots
        (12, 30, [0.005, 0.01, 0.2, 0.25], 1000),              # ill-posed candidates
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_separate_bands(self, n, p, candidates, paths, seed):
        sample = gen_model1(n, p, seed_or_rng=600 + seed)
        best, coverages = split_half_bandwidth(sample, candidates, seed=seed, paths=paths)
        assert (best, coverages) == _split_half_by_loop(sample, candidates, seed, paths)
        assert len(coverages) >= 2

    def test_shared_draw_leaves_the_normals_unwritten(self, monkeypatch):
        # thin roots that share the normals only read them: every block's
        # normals are unchanged by each root's sups, and each root gets the
        # values it gets drawn alone.  One worker draws each of the 3 chunks
        # in one block of 2048 rows, each of 2 workers in blocks of 1024
        sample = gen_model1(12, 30, seed_or_rng=602)
        run, sups = bands.simulate_sup_norms, supnorm._ThinRoot.sups
        workers = [1, 2] if supnorm._openblas_setter() else [1]     # else one worker
        for count, blocks in zip(workers, [3, 5]):
            monkeypatch.setattr(supnorm, "_cpus", lambda: count)
            requests, drawn, unchanged = [], [], []

            def record(*r):
                requests.extend(r)
                pairs = run(*r)
                drawn.extend((values.copy(), mass) for values, mass in pairs)   # bands sort them
                return pairs

            def read_only(root, z, y, out):
                before = z.copy()
                sups(root, z, y, out)
                unchanged.append(np.array_equal(z, before))

            monkeypatch.setattr(bands, "simulate_sup_norms", record)
            monkeypatch.setattr(supnorm._ThinRoot, "sups", read_only)
            split_half_bandwidth(sample, [0.1, 0.15, 0.2, 0.3], seed=3, paths=2 * 2048 + 37)
            assert len(requests) == 4 and all(type(r.root) is supnorm._ThinRoot for r in requests)
            assert len(unchanged) == 4 * blocks and all(unchanged)
            for request, (values, mass) in zip(requests, drawn):
                alone, alone_mass = run(request)
                assert np.array_equal(values, alone) and mass == alone_mass

    def test_one_chunk_loop_for_all_candidates(self, monkeypatch):
        loops = []
        chunks = supnorm.map_philox_chunks
        monkeypatch.setattr(supnorm, "map_philox_chunks",
                            lambda *args: loops.append(args[:3]) or chunks(*args))
        _, coverages = split_half_bandwidth(gen_model1(20, 30, seed_or_rng=604),
                                            [0.1, 0.15, 0.2, 0.3], paths=5000, seed=5)
        assert len(coverages) == 4
        assert loops == [(5000, 2048, 5)]
