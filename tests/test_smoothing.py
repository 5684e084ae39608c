"""Kernels, local linear weights (d=1, d=2), curve smoothing, and CV bandwidth."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_weights_1d, oracle_weights_2d

from funcband import (
    Bandwidth,
    FuncbandError,
    FunctionalSample,
    GridError,
    IllPosedBandwidthError,
    SingularDesignError,
    SupQuantileRequest,
    bootstrap_scb,
    cv_bandwidth,
    default_path_count,
    empirical_variance,
    epanechnikov,
    fit_mean,
    kernel_by_name,
    local_linear_weights,
    make_design_grid,
    make_eval_grid,
    normal_scb,
    plrt_test,
    polynomial_basis,
    schafer_strimmer_lambda,
    truncated_gaussian,
    uniform_design_grid,
    weight_matrix,
)
from funcband import smoothing
from funcband.grids import eval_grid_from_points
from funcband.simlab import ModelSpec, gen_model1
from funcband.supnorm import order_statistic_quantile


class TestKernels:
    def test_epanechnikov_values(self):
        k = epanechnikov()
        assert k(0.0) == 0.75
        np.testing.assert_allclose(k(np.array([-0.5, 0.5])), 0.75 * 0.75)
        assert k(1.0) == 0.0 and k(-1.5) == 0.0

    def test_truncated_gaussian_support_and_positivity(self):
        k = truncated_gaussian()
        assert k(0.0) > 0
        assert k(1.2) == 0.0
        # renormalized: integrates to ~1 over [-1, 1]
        u = np.linspace(-1, 1, 20001)
        assert abs(np.trapezoid(k(u), u) - 1.0) < 1e-4

    def test_kernel_by_name(self):
        assert kernel_by_name("epa").name == "epanechnikov"
        assert kernel_by_name("gaussian").name == "gauss"
        with pytest.raises(GridError):
            kernel_by_name("boxcar")


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
    @pytest.mark.parametrize("kernel", [epanechnikov(), truncated_gaussian()])
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
        w = weight_matrix(grid, eval_grid_from_points(xs), h)
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
        assert best.values[0] == 0.1

    def test_ill_posed_candidate_filtered_with_warning(self):
        sample = gen_model1(5, 10, seed_or_rng=0)
        with pytest.warns(UserWarning):
            best, _ = cv_bandwidth(sample, [0.01, 0.3])
        assert best.values[0] == 0.3

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
            hits += 0.05 <= best.values[0] <= 0.3
        assert hits >= 90


@pytest.mark.parametrize("h", [math.inf, -math.inf, math.nan, (0.2, math.inf)])
def test_bandwidth_must_be_finite_and_positive(h):
    # h = inf once gave every design point the same kernel weight, so the
    # "local linear" band was one global straight line
    sample = gen_model1(10, 20, seed_or_rng=4)
    with pytest.raises(GridError, match="finite and positive"):
        Bandwidth.of(h, 1 if np.isscalar(h) else 2)
    if np.isscalar(h):
        with pytest.raises(GridError, match=r"h=\("):
            normal_scb(sample, make_eval_grid(20), h, paths=200)


_SPEC = dict(model="m1", n=5, p=10, h=0.2, reps=1)


@pytest.mark.parametrize("call, named", [
    (lambda: make_design_grid(5, (4,)), "densities"),
    (lambda: make_eval_grid(2.5), "size=2.5"),
    (lambda: polynomial_basis(1.5), "degree=1.5"),
    (lambda: kernel_by_name(3), "kernel 3"),
    (lambda: Bandwidth.of("a"), "h='a'"),
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
    (lambda: normal_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, kernel="gauss"),
     "kernel='gauss'"),
    (lambda: bootstrap_scb(gen_model1(10, 20), make_eval_grid(20), 0.2, kernel="gauss"),
     "kernel='gauss'"),
    (lambda: fit_mean(gen_model1(10, 20), make_eval_grid(20), 0.2, "gauss"), "kernel='gauss'"),
    (lambda: weight_matrix(uniform_design_grid(20), make_eval_grid(20), 0.2, "gauss"),
     "kernel='gauss'"),
    (lambda: cv_bandwidth(gen_model1(10, 20), [0.2], "gauss"), "kernel='gauss'"),
    (lambda: plrt_test(gen_model1(10, 20), polynomial_basis(1), 0.2, "gauss"), "kernel='gauss'"),
    (lambda: order_statistic_quantile(np.arange(5.0), math.nan), "gamma=nan"),
    (lambda: order_statistic_quantile([], 0.05), "values"),
    (lambda: order_statistic_quantile(np.arange(5.0), 1.5), "gamma=1.5"),
    (lambda: default_path_count("x"), "p='x'"),
    (lambda: schafer_strimmer_lambda(np.full((5, 4), math.nan)), "non-finite curves"),
    (lambda: empirical_variance(np.arange(5.0)), "curves must be"),
], ids=["make_design_grid", "make_eval_grid", "polynomial_basis", "kernel_by_name",
        "Bandwidth.of", "normal_scb paths float", "normal_scb paths str",
        "SupQuantileRequest paths", "bootstrap_scb bootstraps", "ModelSpec n", "ModelSpec reps",
        "make_design_grid scalar sizes", "make_design_grid float size",
        "normal_scb kernel", "bootstrap_scb kernel", "fit_mean kernel", "weight_matrix kernel",
        "cv_bandwidth kernel", "plrt_test kernel", "order_statistic_quantile nan",
        "order_statistic_quantile empty", "order_statistic_quantile 1.5",
        "default_path_count str", "schafer_strimmer_lambda nan", "empirical_variance 1-D"])
def test_mistyped_argument_raises_funcband_error(call, named):
    with pytest.raises(FuncbandError) as err:
        call()
    assert named in str(err.value)

