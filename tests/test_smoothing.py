"""Kernels, local linear weights (d=1, d=2), curve smoothing, and CV bandwidth."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_weights_1d, oracle_weights_2d

from funcband import (
    BandResult,
    ar1_covariance_fit,
    FuncbandError,
    FunctionalSample,
    GridError,
    IllPosedBandwidthError,
    SingularDesignError,
    SupQuantileRequest,
    basis_model,
    bootstrap_scb,
    cv_bandwidth,
    default_path_count,
    empirical_correlation,
    empirical_data_covariance,
    empirical_variance,
    fit_mean,
    gamma_n_plugin,
    limit_gamma,
    local_linear_weights,
    ls_fit,
    make_design_grid,
    make_eval_grid,
    normal_scb,
    plrt_pvalue,
    plrt_statistic,
    plrt_test,
    polynomial_basis,
    prediction_band,
    psd_repair,
    read_curves_csv,
    residual_process,
    schafer_strimmer_lambda,
    band_covers,
    scb_gof_test,
    shrink_correlation,
    simulate_sup_norms,
    split_half_bandwidth,
    sup_quantile,
    two_sample_scb,
    uniform_design_grid,
    weight_matrix,
    write_curves_csv,
)
from funcband import smoothing
from funcband.grids import DesignGrid, EvalGrid
from funcband.simlab import (ModelSpec, bump_function, gen_model1, gen_model3, known_R_threshold,
                             run_experiment)
from funcband.supnorm import order_statistic_quantile


def _centre_weights(kernel):
    """The local linear weights at x = 0.5 of the design j/8, h = 0.25: the
    offsets u = (x_j - x)/h are -2, -1.5, ..., 2, exactly, and on a design
    symmetric about x the weights are the kernel weights K(u_j) normalized."""
    return weight_matrix(DesignGrid((np.arange(9) / 8,)), EvalGrid(([0.5],)), 0.25, kernel)[0]


class TestKernels:
    def test_epanechnikov_values(self):
        assert smoothing._KERNELS["epanechnikov"](np.array([0.0])) == 0.75
        # K = 0.75 (1 - u^2) on |u| < 1, zero at |u| = 1, 1.5 and 2
        expected = np.array([0, 0, 0, 0.5625, 0.75, 0.5625, 0, 0, 0]) / 1.875
        np.testing.assert_allclose(_centre_weights("epanechnikov"), expected, rtol=1e-14)

    def test_truncated_gaussian_support_and_positivity(self):
        w = _centre_weights("gauss")
        assert np.all(w[3:6] > 0) and not np.any(w[[0, 1, 2, 6, 7, 8]])
        assert w[3] / w[4] == pytest.approx(math.exp(-0.125), rel=1e-14)
        # renormalized: integrates to ~1 over [-1, 1]
        u = np.linspace(-1, 1, 20001)
        assert abs(np.trapezoid(smoothing._KERNELS["gauss"](u), u) - 1.0) < 1e-4

    def test_kernel_by_name(self):
        # a kernel is one of two names, spelled exactly
        assert sorted(smoothing._KERNELS) == ["epanechnikov", "gauss"]
        for name in ("boxcar", "epa", "gaussian", "truncated-gaussian", "Gauss"):
            with pytest.raises(GridError, match=f"kernel={name!r}"):
                _centre_weights(name)


class TestWeights1d:
    def test_matches_formula_oracle_p5(self):
        # [DERIVED] uniform grid p=5, x=0.5, h=0.3, Epanechnikov
        grid = uniform_design_grid(5)
        wv = local_linear_weights(grid, 0.5, 0.3)
        expected = oracle_weights_1d(grid.points, 0.5, 0.3)
        np.testing.assert_allclose(wv.dense(5), expected, atol=1e-12)

    @given(st.integers(6, 120), st.floats(0.0, 1.0), st.floats(0.05, 0.6))
    def test_normalization_and_linear_reproduction(self, p, x, h):
        grid = uniform_design_grid(p)
        try:
            wv = local_linear_weights(grid, x, h)
        except IllPosedBandwidthError:
            return
        w = wv.dense(p)
        assert abs(w.sum() - 1.0) < 1e-10
        assert abs(w @ grid.points - x) < 1e-10

    def test_support(self):
        grid = uniform_design_grid(50)
        wv = local_linear_weights(grid, 0.5, 0.1)
        outside = np.abs(grid.points - 0.5) >= 0.1
        np.testing.assert_array_equal(wv.dense(50)[outside], 0.0)

    def test_too_few_active_points_is_error(self):
        grid = uniform_design_grid(10)
        with pytest.raises(IllPosedBandwidthError):
            local_linear_weights(grid, 0.5, 0.01)

    @pytest.mark.parametrize("h", [1e-300, 1e-320])
    @pytest.mark.parametrize("kernel", ["epanechnikov", "gauss"], ids=["kernel0", "kernel1"])
    def test_tiny_bandwidth_is_error_without_warnings(self, h, kernel):
        # offsets / h reach 1e300 or overflow to inf; no numpy warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllPosedBandwidthError):
                weight_matrix(uniform_design_grid(10), make_eval_grid(5), h, kernel)

    def test_weight_bound_does_not_grow_with_p(self):
        # max_j |W_j(x)| = O(1/(p h)): doubling p at fixed h must not grow p*h*max|W|
        h = 0.1
        consts = []
        for p in (100, 200, 400):
            w = weight_matrix(uniform_design_grid(p), make_eval_grid(50), h)
            consts.append(p * h * np.abs(w).max())
        assert consts[1] <= consts[0] * 1.05
        assert consts[2] <= consts[1] * 1.05

    def test_weight_increment_bound(self):
        # |W_j(x) - W_j(x')| <= C (p h)^-1 min(|x - x'|/h, 1) on a grid sweep
        p, h = 200, 0.1
        grid = uniform_design_grid(p)
        xs = np.linspace(0.0, 1.0, 101)
        w = weight_matrix(grid, EvalGrid((xs,)), h)
        # calibrate C on coarse pairs, check it holds for fine pairs
        def ratio(i, j):
            inc = np.abs(w[i] - w[j]).max()
            scale = min(abs(xs[i] - xs[j]) / h, 1.0) / (p * h)
            return inc / scale
        c_ref = max(ratio(i, i + 10) for i in range(0, 90, 10))
        for i in range(0, 100):
            assert ratio(i, i + 1) <= 3.0 * max(c_ref, 1.0)


class TestWeights2d:
    @given(st.integers(4, 12), st.integers(4, 12),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.floats(0.25, 0.8), st.floats(0.25, 0.8))
    def test_matches_normal_equations_oracle(self, p1, p2, x1, x2, h1, h2):
        grid = make_design_grid(("uniform", "uniform"), (p1, p2))
        try:
            wv = local_linear_weights(grid, (x1, x2), (h1, h2))
        except (IllPosedBandwidthError, SingularDesignError):
            return
        expected = oracle_weights_2d(grid.points, np.array([x1, x2]), (h1, h2))
        np.testing.assert_allclose(wv.dense(grid.n_points), expected, atol=1e-9)

    def test_collinear_active_points_are_singular(self):
        # at x1 = 0.125 with h1 = 0.2 only the grid column x1 = 0.125 is active
        grid = make_design_grid(("uniform", "uniform"), (4, 4))
        with pytest.raises(SingularDesignError):
            local_linear_weights(grid, (0.125, 0.5), (0.2, 0.9))

    def test_normalization_and_planar_reproduction(self):
        grid = make_design_grid(("uniform", "uniform"), (9, 7))
        w = weight_matrix(grid, make_eval_grid(5, dim=2), (0.4, 0.45))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-10)
        eval_pts = make_eval_grid(5, dim=2).points
        np.testing.assert_allclose(w @ grid.points[:, 0], eval_pts[:, 0], atol=1e-10)
        np.testing.assert_allclose(w @ grid.points[:, 1], eval_pts[:, 1], atol=1e-10)


def _smooth_one(row, grid, eval, h):
    """The local linear smooth of one curve: fit_mean on a one-curve sample."""
    fit = fit_mean(FunctionalSample(grid=grid, values=np.asarray(row)[None, :]), eval, h)
    np.testing.assert_array_equal(fit.curves[0], fit.mean)
    return fit.mean


class TestSmoothCurve:
    def test_constant_row(self):
        grid = uniform_design_grid(20)
        out = _smooth_one(np.full(20, 3.25), grid, make_eval_grid(15), 0.2)
        np.testing.assert_allclose(out, 3.25, atol=1e-12)

    def test_linear_row_exact(self):
        grid = uniform_design_grid(20)
        eval = make_eval_grid(15)
        out = _smooth_one(2.0 - 3.0 * grid.points, grid, eval, 0.2)
        np.testing.assert_allclose(out, 2.0 - 3.0 * eval.points, atol=1e-10)

    def test_matches_extended_precision_oracle(self):
        # [DERIVED] fsum-based re-evaluation of the weight/dot-product pipeline
        rng = np.random.default_rng(5)
        p = 50
        grid = uniform_design_grid(p)
        row = rng.standard_normal(p)
        eval = make_eval_grid(11)
        out = _smooth_one(row, grid, eval, 0.08)
        for i, x in enumerate(eval.points):
            d = grid.points - x
            k = np.where(np.abs(d / 0.08) < 1, 0.75 * (1 - (d / 0.08) ** 2), 0.0)
            s1 = math.fsum(d * k) / (p * 0.08)
            s2 = math.fsum(d * d * k) / (p * 0.08)
            w = (s2 - d * s1) * k / (p * 0.08)
            val = math.fsum(w * row) / math.fsum(w)
            assert abs(out[i] - val) < 1e-8


class TestFitMean:
    def test_identical_curves(self):
        grid = uniform_design_grid(30)
        eval = make_eval_grid(20)
        row = np.sin(2 * np.pi * grid.points)
        sample = FunctionalSample(grid=grid, values=np.tile(row, (4, 1)))
        fit = fit_mean(sample, eval, 0.15)
        single = _smooth_one(row, grid, eval, 0.15)
        np.testing.assert_allclose(fit.mean, single, atol=1e-12)

    def test_mean_of_smooths_equals_smooth_of_mean(self):
        sample = gen_model1(8, 40, seed_or_rng=3)
        fit = fit_mean(sample, make_eval_grid(25), 0.1)
        np.testing.assert_allclose(fit.curves.mean(axis=0), fit.mean, atol=1e-12)

    def test_mean_sup_error_desk_scale(self):
        # [DERIVED] model-1 style data, n=p=50, h=0.05: mean sup-error < 0.12
        from funcband.simlab import m1_mean
        eval = make_eval_grid(100)
        errs = []
        for rep in range(50):
            sample = gen_model1(50, 50, seed_or_rng=1000 + rep)
            fit = fit_mean(sample, eval, 0.05)
            errs.append(np.abs(fit.mean - m1_mean(eval.points)).max())
        assert np.mean(errs) < 0.12


class TestCvBandwidth:
    def test_zero_noise_prefers_smallest(self):
        grid = uniform_design_grid(25)
        row = np.sin(2 * np.pi * grid.points)
        sample = FunctionalSample(grid=grid, values=np.tile(row, (5, 1)))
        best, scores = cv_bandwidth(sample, [0.1, 0.2, 0.4])
        assert best == (0.1,)

    def test_ill_posed_candidate_filtered_with_warning(self):
        sample = gen_model1(5, 10, seed_or_rng=0)
        with pytest.warns(UserWarning):
            best, _ = cv_bandwidth(sample, [0.01, 0.3])
        assert best == (0.3,)

    def test_empty_candidates(self):
        sample = gen_model1(5, 10, seed_or_rng=0)
        with pytest.raises(GridError):
            cv_bandwidth(sample, [])

    def test_duplicate_candidates_scored_once(self, monkeypatch):
        sample = gen_model1(10, 20, seed_or_rng=3)
        once = cv_bandwidth(sample, [0.3, 0.15])
        scored = []
        score = smoothing.cv_score
        monkeypatch.setattr(smoothing, "cv_score",
                            lambda s, h, k: scored.append(h) or score(s, h, k))
        assert cv_bandwidth(sample, [0.15, 0.3, 0.15, (0.3,)]) == once
        assert scored == [(0.15,), (0.3,)]

    def test_selected_h_in_plausible_range(self):
        # [DERIVED] model-1 style n=p=20: selected h in [0.05, 0.3] >= 90/100
        cands = [0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.45]
        hits = 0
        for rep in range(100):
            sample = gen_model1(20, 20, seed_or_rng=2000 + rep)
            best, _ = cv_bandwidth(sample, cands)
            hits += 0.05 <= best[0] <= 0.3
        assert hits >= 90


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan, (0.2, math.inf)])
def test_bandwidth_must_be_finite_and_positive(h):
    # h = inf once gave every design point the same kernel weight, so the
    # "local linear" band was one global straight line
    sample = gen_model1(10, 20, seed_or_rng=4)
    with pytest.raises(GridError, match="finite and positive"):
        smoothing._bandwidth(h, 1 if np.isscalar(h) else 2)
    if np.isscalar(h):
        with pytest.raises(GridError, match=r"h=\("):
            normal_scb(sample, make_eval_grid(20), h, paths=200)


_SPEC = dict(model="m1", n=5, p=10, h=0.2, reps=1)


@pytest.mark.parametrize("call, named", [
    (lambda: make_design_grid(5, (4,)), "densities"),
    (lambda: make_eval_grid(2.5), "size=2.5"),
    (lambda: polynomial_basis(1.5), "degree=1.5"),
    (lambda: weight_matrix(uniform_design_grid(20), make_eval_grid(20), "a"), "h='a'"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, paths=1000.5),
     "paths=1000.5"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, paths="1000"),
     "paths='1000'"),
    (lambda: SupQuantileRequest(np.eye(3), 0.05, 1000.5, 0), "paths=1000.5"),
    (lambda: bootstrap_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, bootstraps=100.5),
     "bootstraps=100.5"),
    (lambda: ModelSpec(**{**_SPEC, "n": 20.5}), "n=20.5"),
    (lambda: ModelSpec(**{**_SPEC, "reps": 1.5}), "reps=1.5"),
    (lambda: make_design_grid("uniform", 4), "sizes=4"),
    (lambda: make_design_grid("uniform", (4.5,)), "sizes[0]=4.5"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, kernel=3), "kernel=3"),
    (lambda: bootstrap_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, kernel=3), "kernel=3"),
    (lambda: fit_mean(gen_model1(10, 20), make_eval_grid(20), 0.2, 3), "kernel=3"),
    (lambda: weight_matrix(uniform_design_grid(20), make_eval_grid(20), 0.2, 3), "kernel=3"),
    (lambda: cv_bandwidth(gen_model1(10, 20), [0.2], 3), "kernel=3"),
    (lambda: plrt_test(gen_model1(10, 20), polynomial_basis(1), 0.2, 3), "kernel=3"),
    (lambda: order_statistic_quantile(np.arange(5.0), math.nan), "gamma=nan"),
    (lambda: order_statistic_quantile([], 0.05), "values"),
    (lambda: order_statistic_quantile(np.arange(5.0), 1.5), "gamma=1.5"),
    (lambda: default_path_count("x"), "p='x'"),
    (lambda: schafer_strimmer_lambda(np.full((5, 4), math.nan)), "non-finite curves"),
    (lambda: empirical_variance(np.arange(5.0)), "curves must be"),
    (lambda: scb_gof_test(gen_model1(10, 20), polynomial_basis(1), make_eval_grid(20), 0.2,
                          shrinkage=0.5), "shrinkage=0.5"),
    (lambda: empirical_data_covariance(gen_model1(10, 20), 0.5), "shrinkage=0.5"),
    (lambda: gamma_n_plugin(gen_model1(10, 20), polynomial_basis(1), make_eval_grid(20), 0.2,
                            shrinkage=None), "shrinkage=None"),
    (lambda: limit_gamma(1.0, polynomial_basis(1), make_eval_grid(5)), "covariance=1.0"),
    (lambda: basis_model([np.sin], density=1.0), "density=1.0"),
    (lambda: FunctionalSample(grid="g", values=np.ones((3, 5))), "grid='g'"),
    (lambda: order_statistic_quantile(["a"], 0.05), "values must be real numbers"),
    (lambda: normal_scb(gen_model1(10, 20), "grid", 0.2), "eval='grid'"),
    (lambda: prediction_band(gen_model1(10, 20), None, 0.2), "eval=None"),
    (lambda: bootstrap_scb("s", make_eval_grid(20), 0.2), "sample='s'"),
    (lambda: two_sample_scb(gen_model1(10, 20), None, make_eval_grid(20), 0.2), "sample_b=None"),
    (lambda: scb_gof_test(gen_model1(10, 20), "poly", make_eval_grid(20), 0.2), "model='poly'"),
    (lambda: plrt_test(gen_model1(10, 20), "poly", 0.2), "model='poly'"),
    (lambda: fit_mean("s", make_eval_grid(20), 0.2), "sample='s'"),
    (lambda: band_covers("b", np.zeros(20)), "band='b'"),
    (lambda: cv_bandwidth(gen_model1(10, 20), 0.1), "candidates=0.1"),
    (lambda: split_half_bandwidth(gen_model1(10, 20), 0.1), "candidates=0.1"),
    (lambda: scb_gof_test("s", polynomial_basis(1), make_eval_grid(20), 0.2), "sample='s'"),
    (lambda: plrt_test("s", polynomial_basis(1), 0.2), "sample='s'"),
    (lambda: plrt_statistic("s", polynomial_basis(1), 0.2), "sample='s'"),
    (lambda: ls_fit("s", polynomial_basis(1)), "sample='s'"),
    (lambda: split_half_bandwidth("s", [0.1]), "sample='s'"),
    (lambda: empirical_data_covariance("s"), "sample='s'"),
    (lambda: write_curves_csv(io.StringIO(), "s"), "sample='s'"),
    (lambda: limit_gamma(np.minimum.outer, "poly", make_eval_grid(5)), "model='poly'"),
    (lambda: limit_gamma(np.minimum.outer, polynomial_basis(1), "g"), "eval='g'"),
    (lambda: local_linear_weights("g", 0.5, 0.2), "grid='g'"),
    (lambda: gamma_n_plugin("s", polynomial_basis(1), make_eval_grid(20), 0.2), "sample='s'"),
    (lambda: residual_process("s", polynomial_basis(1), make_eval_grid(20), 0.2), "sample='s'"),
    (lambda: smoothing.cv_score("s", 0.2), "sample='s'"),
    (lambda: ar1_covariance_fit("s"), "sample='s'"),
    (lambda: FunctionalSample(grid=uniform_design_grid(5), values="abc"), "values='abc'"),
    (lambda: FunctionalSample(grid=uniform_design_grid(2), values=[[1, "a"]]),
     "values=[[1, 'a']]"),
    (lambda: EvalGrid(("abc",)), "evaluation axes[0]='abc'"),
    (lambda: local_linear_weights(uniform_design_grid(20), "a", 0.2), "x='a'"),
    (lambda: band_covers(normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, paths=200),
                         "abc"), "values='abc'"),
    (lambda: plrt_test(gen_model1(10, 20), polynomial_basis(1), 0.2, covariance_mode="known",
                       known_covariance="x"), "known_covariance='x'"),
    (lambda: plrt_test(gen_model1(10, 20), polynomial_basis(1), 0.2,
                       covariance_mode="parametric-ar1", known_covariance="garbage"),
     "known_covariance='garbage'"),
    (lambda: SupQuantileRequest("abc", 0.05, 1000, 0), "correlation='abc'"),
    (lambda: empirical_variance("abc"), "curves='abc'"),
    (lambda: psd_repair("abc"), "table='abc'"),
    (lambda: schafer_strimmer_lambda("abc"), "curves='abc'"),
    (lambda: schafer_strimmer_lambda(np.arange(5.0)), "curves must be"),
    (lambda: cv_bandwidth("s", [0.1]), "sample='s'"),
    (lambda: run_experiment("s", "normal-scb"), "spec='s'"),
    (lambda: gen_model1("a", 10), "n='a'"),
    (lambda: read_curves_csv(None), "path_or_file=None"),
    (lambda: write_curves_csv(3.5, gen_model1(10, 20)), "path_or_file=3.5"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, paths=200).write_csv(3.5),
     "path_or_file=3.5"),
    (lambda: empirical_correlation("abc"), "curves='abc'"),
    (lambda: plrt_pvalue("a", "b"), "quadratic form='a'"),
    (lambda: shrink_correlation("a", np.ones((5, 3))), "correlation='a'"),
    (lambda: bump_function("a"), "x='a'"),
    (lambda: limit_gamma(lambda x, y: np.full(np.broadcast(x, y).shape, "a"),
                         polynomial_basis(1), make_eval_grid(5)), "covariance must be an array"),
    (lambda: sup_quantile("x"), "request='x'"),
    (lambda: simulate_sup_norms("x"), "request='x'"),
    (lambda: ModelSpec(**{**_SPEC, "model": np.array(["m1"])}), "model=array"),
    (lambda: known_R_threshold(np.array(["m1", "m2"])), "model=array"),
    (lambda: gen_model3(10, 20, 0, np.array(["h0", "hn"])), "hypothesis=array"),
    (lambda: make_eval_grid(10, np.array([1, 2])), "dim=array"),
    (lambda: plrt_test(gen_model1(10, 20), polynomial_basis(1), 0.2,
                       covariance_mode=np.array(["known", "known"])), "covariance_mode=array"),
    (lambda: run_experiment(ModelSpec(**_SPEC), np.array(["normal-scb", "gof-scb"])),
     "method=array"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2,
                        kernel=np.array(["gauss", "gauss"])), "kernel=array"),
    (lambda: basis_model(3.5), "functions=3.5"),
    (lambda: basis_model(np.array([1.0, 2.0])), "functions=array"),
    (lambda: BandResult(make_eval_grid(3), "x", np.zeros(3), 1.0, 0.95, "normal"), "center='x'"),
    (lambda: BandResult("g", np.zeros(3), np.zeros(3), 1.0, 0.95, "normal"), "grid='g'"),
    (lambda: empirical_variance(np.ones((3, 4)), "abc"), "mean='abc'"),
    (lambda: empirical_variance(np.ones((3, 4)), np.zeros(3)), "mean must have shape (4,)"),
    (lambda: empirical_correlation(np.ones((3, 4)), None, "abc"), "sigma2='abc'"),
], ids=["make_design_grid", "make_eval_grid", "polynomial_basis",
        "weight_matrix h str", "normal_scb paths float", "normal_scb paths str",
        "SupQuantileRequest paths", "bootstrap_scb bootstraps", "ModelSpec n", "ModelSpec reps",
        "make_design_grid scalar sizes", "make_design_grid float size",
        "normal_scb kernel", "bootstrap_scb kernel", "fit_mean kernel", "weight_matrix kernel",
        "cv_bandwidth kernel", "plrt_test kernel", "order_statistic_quantile nan",
        "order_statistic_quantile empty", "order_statistic_quantile 1.5",
        "default_path_count str", "schafer_strimmer_lambda nan", "empirical_variance 1-D",
        "scb_gof_test shrinkage float", "empirical_data_covariance shrinkage float",
        "gamma_n_plugin shrinkage None",
        "limit_gamma covariance float", "basis_model density float",
        "FunctionalSample grid str", "order_statistic_quantile str", "normal_scb eval str",
        "prediction_band eval None", "bootstrap_scb sample str", "two_sample_scb sample None",
        "scb_gof_test model str", "plrt_test model str", "fit_mean sample str",
        "band_covers band str", "cv_bandwidth candidates float",
        "split_half_bandwidth candidates float", "scb_gof_test sample str",
        "plrt_test sample str", "plrt_statistic sample str", "ls_fit sample str",
        "split_half_bandwidth sample str", "empirical_data_covariance sample str",
        "write_curves_csv sample str", "limit_gamma model str", "limit_gamma eval str",
        "local_linear_weights grid str", "gamma_n_plugin sample str",
        "residual_process sample str", "cv_score sample str", "ar1_covariance_fit sample str",
        "FunctionalSample values str", "FunctionalSample values mixed", "EvalGrid axis str",
        "local_linear_weights x str", "band_covers values str", "plrt_test known_covariance str",
        "plrt_test known_covariance outside known mode",
        "SupQuantileRequest correlation str", "empirical_variance str", "psd_repair str",
        "schafer_strimmer_lambda str", "schafer_strimmer_lambda 1-D",
        "cv_bandwidth sample str", "run_experiment spec str", "gen_model1 n str",
        "read_curves_csv None", "write_curves_csv path float",
        "BandResult.write_csv path float", "empirical_correlation str", "plrt_pvalue str",
        "shrink_correlation str", "bump_function str", "limit_gamma covariance str",
        "sup_quantile str", "simulate_sup_norms str", "ModelSpec model array",
        "known_R_threshold model array", "gen_model3 hypothesis array",
        "make_eval_grid dim array", "plrt_test covariance_mode array",
        "run_experiment method array", "normal_scb kernel array", "basis_model functions float",
        "basis_model functions array", "BandResult center str", "BandResult grid str",
        "empirical_variance mean str", "empirical_variance mean length",
        "empirical_correlation sigma2 str"])
def test_mistyped_argument_raises_funcband_error(call, named):
    with pytest.raises(FuncbandError) as err:
        call()
    assert named in str(err.value)


@pytest.mark.parametrize("call, error, named", [
    (lambda: limit_gamma(lambda x, y: np.minimum(x, y), polynomial_basis(1),
                         make_eval_grid(5, dim=2)), GridError, "supports d=1"),
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, gamma="0.05", paths=200),
     FuncbandError, "gamma='0.05'"),
    (lambda: basis_model([1.0]), FuncbandError, "functions[0]=1.0"),
    (lambda: basis_model([np.sin, "cos"]), FuncbandError, "functions[1]='cos'"),
    (lambda: order_statistic_quantile([1.0, math.nan, 2.0], 0.05), FuncbandError,
     "non-finite values at point index 1"),
    (lambda: order_statistic_quantile(2.0, 0.05), FuncbandError, "got shape ()"),
], ids=["limit_gamma 2-d", "normal_scb gamma str",
        "basis_model float", "basis_model str", "order_statistic_quantile nan value",
        "order_statistic_quantile scalar"])
def test_malformed_input_raises_named_error(call, error, named):
    # each once leaked a numpy or Python error, or returned nan
    with pytest.raises(error) as err:
        call()
    assert named in str(err.value)
