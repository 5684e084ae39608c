"""Normal, bootstrap, two-sample, and prediction bands."""

import re
import warnings
from math import sqrt

import numpy as np
import pytest

from funcband import (
    DegenerateVarianceError,
    FuncbandError,
    FunctionalSample,
    GridError,
    SampleValidationError,
    ShrinkageSpec,
    band_covers,
    bootstrap_scb,
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
from funcband.bands import _bootstrap_sup_stats
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


def _refuse_dense_root(table, correlation=False):
    raise AssertionError("dense square root taken")


def _refuse_table(*args, **kwargs):
    raise AssertionError("m x m correlation built")


class TestSquareRootChoice:
    """Mean and prediction bands of n < m/2 curves draw through the thin root
    of the shrunk correlation, and the goodness-of-fit band through its
    factor (or that factor's QR when p - L > m); every other Gaussian band
    takes the dense root."""

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
        requests, run = [], bands.sup_quantile
        with monkeypatch.context() as patch:
            patch.setattr(moments, "CorrelationField", _refuse_table)
            patch.setattr(bands, "_shrunk_table", _refuse_table)
            patch.setattr(supnorm, "_shrunk_table", _refuse_table)
            patch.setattr(bands, "sup_quantile", lambda r: requests.append(r) or run(r))
            built = [build(sample, eval, h, seed=5) for sample, eval, h, build in cases]
        for (sample, eval, h, _), band, request in zip(cases, built, requests):
            fit = fit_mean(sample, eval, h)
            raw = moments.empirical_correlation(fit.curves, eval)
            lam = band.details["shrinkage_lambda"]
            dense = moments.shrink_correlation(raw, ShrinkageSpec(lam))[0].table
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
            "lambda 0": lambda: normal_scb(few, grid, 0.1, paths=500, seed=1,
                                           shrinkage=ShrinkageSpec(intensity=0.0)),
            "2n >= m": lambda: normal_scb(gen_model1(50, 30, seed_or_rng=20), grid, 0.1,
                                          paths=500, seed=1),
            "two-sample": lambda: two_sample_scb(few, gen_model1(10, 30, seed_or_rng=21), grid,
                                                 0.1, paths=500, seed=1),
            # p - L = 108 > m: drawn through the m x m R of its factor's QR, not _psd_root
            "gof": lambda: scb_gof_test(gen_model1(10, 110, seed_or_rng=22), polynomial_basis(1),
                                        grid, 0.1, paths=500, seed=1),
        }[case]
        taken, requests, run = [], [], bands.sup_quantile
        dense_root = supnorm._psd_root
        monkeypatch.setattr(supnorm, "_psd_root", lambda table, correlation=False:
                            taken.append(table.shape) or dense_root(table, correlation))
        monkeypatch.setattr(bands, "sup_quantile", lambda r: requests.append(r) or run(r))
        build()
        assert taken == ([] if case == "gof" else [(100, 100)])
        assert [(r.root.width, r.root.size) for r in requests] == [(100, 100)]


def test_gaussian_bands_share_details_keys(sample50, eval_grid):
    other = gen_model1(50, 50, seed_or_rng=13)
    bands = [normal_scb(sample50, eval_grid, 0.05, seed=1),
             prediction_band(sample50, eval_grid, 0.05, seed=1),
             two_sample_scb(sample50, other, eval_grid, 0.05, seed=1).band,
             scb_gof_test(sample50, polynomial_basis(1), eval_grid, 0.05, seed=1).band]
    keys = {"h", "kernel", "seed", "paths", "shrinkage_lambda", "clipped_mass",
            "threshold_stderr"}
    assert [set(b.details) for b in bands] == [keys] * 4


class TestSplitHalfBandwidth:
    def test_single_candidate(self):
        sample = gen_model1(12, 30, seed_or_rng=500)
        best, _ = split_half_bandwidth(sample, [0.2], seed=15)
        assert best.values[0] == 0.2

    @pytest.mark.parametrize("kwargs, named", [
        (dict(paths=5), "paths=5"), (dict(gamma=1.5), "gamma=1.5"), (dict(gamma=0.0), "gamma=0.0")])
    def test_bad_argument_named(self, kwargs, named):
        sample = gen_model1(12, 30, seed_or_rng=502)
        with pytest.raises(FuncbandError, match=named):
            split_half_bandwidth(sample, [0.1, 0.2], seed=17, **kwargs)

    def test_ill_posed_candidate_skipped(self):
        sample = gen_model1(12, 30, seed_or_rng=501)
        best, _ = split_half_bandwidth(sample, [0.01, 0.25], seed=16)
        assert best.values[0] == 0.25

    def test_duplicate_candidates_searched_once(self, monkeypatch):
        sample = gen_model1(12, 30, seed_or_rng=503)
        once = split_half_bandwidth(sample, [0.2, 0.1], seed=18)
        built = []
        parts = bands._curve_parts
        monkeypatch.setattr(bands, "_curve_parts",
                            lambda *args: built.append(args[4]) or parts(*args))
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
            band = prediction_band(build, sample.grid.as_eval(), h, None, gamma, paths, seed)
        except FuncbandError:
            continue
        cov = float(np.mean([band.covers(row) for row in sample.values[half:]]))
        coverages[(h,)] = cov
        if best is None or abs(cov - (1 - gamma)) < best_gap:
            best, best_gap = (h,), abs(cov - (1 - gamma))
    return best, coverages


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
        assert (best.values, coverages) == _split_half_by_loop(sample, candidates, seed, paths)
        assert len(coverages) >= 2

    def test_one_chunk_loop_for_all_candidates(self, monkeypatch):
        loops = []
        chunks = supnorm.map_philox_chunks
        monkeypatch.setattr(supnorm, "map_philox_chunks",
                            lambda *args: loops.append(args[:3]) or chunks(*args))
        _, coverages = split_half_bandwidth(gen_model1(20, 30, seed_or_rng=604),
                                            [0.1, 0.15, 0.2, 0.3], paths=5000, seed=5)
        assert len(coverages) == 4
        assert loops == [(5000, 2048, 5)]
