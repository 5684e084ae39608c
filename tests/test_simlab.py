"""Synthetic data generators, the local bump alternative, and the
replication-loop experiment table."""

import json
import math

import numpy as np
import pytest

import funcband.gof as gof_module
import funcband.plrt as plrt_module
import funcband.smoothing as smoothing_module
from funcband import (FuncbandError, FunctionalSample, bootstrap_scb, make_eval_grid, normal_scb,
                      plrt_test, polynomial_basis, scb_gof_test, simlab, uniform_design_grid,
                      weight_matrix)
from funcband.moments import correlation_from_covariance
from funcband.simlab import (
    METHODS,
    ExperimentRow,
    ExperimentTable,
    ModelSpec,
    _connector_coefs,
    _design_mean,
    _hump,
    _hump_d1,
    _hump_d2,
    bump_function,
    gen_model1,
    gen_model2,
    gen_model3,
    known_R_threshold,
    m1_mean,
    m2_covariance,
    m2_mean,
    ou_covariance,
    run_experiment,
    true_mean,
)
from funcband.supnorm import SupQuantileRequest, sup_quantile


class TestBumpFunction:
    def test_peak_and_support(self):
        assert bump_function(np.array([0.5]))[0] == pytest.approx(0.2, abs=1e-15)
        np.testing.assert_array_equal(bump_function(np.array([0.0, 0.3, 0.4, 0.6, 0.7, 1.0])), 0.0)

    def test_sup_is_peak(self):
        x = np.linspace(0, 1, 100001)
        g = bump_function(x)
        assert g.max() == pytest.approx(0.2, abs=1e-12)
        assert g.min() >= -1e-9  # connectors do not undershoot materially

    def test_c2_continuity_at_junctions(self):
        # [DERIVED] polynomial derivatives of the quintic connectors match the
        # hump (or zero) in value, slope, and curvature at all four junctions
        left, right = _connector_coefs()
        powers = np.arange(6, dtype=float)

        def poly_derivs(coefs, x):
            val = float((x**powers) @ coefs)
            d1 = float((powers[1:] * x ** (powers[1:] - 1)) @ coefs[1:])
            d2c = powers[2:] * (powers[2:] - 1) * x ** (powers[2:] - 2)
            return val, d1, float(d2c @ coefs[2:])

        for x, target in ((0.4, (0.0, 0.0, 0.0)),
                          (0.45, (_hump(0.45), _hump_d1(0.45), _hump_d2(0.45)))):
            np.testing.assert_allclose(poly_derivs(left, x), target, atol=1e-7)
        for x, target in ((0.55, (_hump(0.55), _hump_d1(0.55), _hump_d2(0.55))),
                          (0.6, (0.0, 0.0, 0.0))):
            np.testing.assert_allclose(poly_derivs(right, x), target, atol=1e-7)

    def test_finite_difference_smoothness(self):
        # the second divided difference converges (a mere C^1 junction would
        # make it blow up like 1/dx as the mesh refines)
        maxes = []
        for m in (3001, 6001, 12001):
            x = np.linspace(0.35, 0.65, m)
            g = bump_function(x)
            maxes.append(np.abs(np.diff(g, 2)).max() / (x[1] - x[0]) ** 2)
        assert maxes[-1] < 500.0
        assert abs(maxes[2] - maxes[1]) < 0.02 * maxes[1]


class TestGenerators:
    def test_model1_mean_and_covariance_mc(self):
        sample = gen_model1(4000, 20, seed_or_rng=0)
        x = sample.grid.points
        np.testing.assert_allclose(sample.values.mean(axis=0), m1_mean(x), atol=0.02)
        emp = np.cov(sample.values, rowvar=False, ddof=1)
        np.testing.assert_allclose(emp, ou_covariance(x[:, None], x[None, :]), atol=0.005)

    def test_model2_moments_mc(self):
        # [DERIVED] var Y(x) = R2(x,x) + 0.01; centered factors have mean zero
        sample = gen_model2(200000, 20, seed_or_rng=0)
        x = sample.grid.points
        z_mean = sample.values.mean(axis=0) - m2_mean(x)
        np.testing.assert_allclose(z_mean, 0.0, atol=0.005)
        analytic = m2_covariance(x, x) + 0.01
        emp = sample.values.var(axis=0, ddof=1)
        assert np.abs(emp - analytic).max() <= 0.02 * analytic.max()
        # [DERIVED] pointwise sd ranges over [0.2955, 0.3480] on this grid
        sd = np.sqrt(analytic)
        assert 0.29 < sd.min() < 0.30 and 0.34 < sd.max() < 0.35

    def test_model2_covariance_exactly_symmetric(self):
        x = np.linspace(0.0, 1.0, 30)
        c = m2_covariance(x[:, None], x[None, :])
        assert np.array_equal(c, c.T)

    def test_model3_hypotheses_share_noise(self):
        h0 = gen_model3(50, 40, seed_or_rng=7, hypothesis="h0")
        hn = gen_model3(50, 40, seed_or_rng=7, hypothesis="hn")
        scale = math.log(50) / math.sqrt(50)
        shift = scale * bump_function(h0.grid.points)
        np.testing.assert_allclose(
            hn.values - h0.values, np.broadcast_to(shift, h0.values.shape), atol=1e-12)

    def test_true_mean_dispatch(self):
        x = np.linspace(0, 1, 11)
        np.testing.assert_array_equal(true_mean("m1", x, 50), m1_mean(x))
        np.testing.assert_array_equal(true_mean("m3-h0", x, 50), x)
        hn = true_mean("m3-hn", x, 50)
        assert hn[5] > x[5]
        with pytest.raises(FuncbandError):
            true_mean("m4", x, 50)

    @pytest.mark.parametrize("model", ["m1", "m2", "m3-h0", "m3-hn"])
    def test_cached_design_mean_is_read_only(self, model):
        mean = _design_mean(model, 50, 40)
        assert mean is _design_mean(model, 50, 40) and not mean.flags.writeable
        with pytest.raises(ValueError):
            mean[0] = 1.0
        np.testing.assert_array_equal(mean, true_mean(model, uniform_design_grid(40).points, 50))

    def test_unknown_hypothesis(self):
        with pytest.raises(FuncbandError, match="hypothesis"):
            gen_model3(10, 20, 0, hypothesis="h1")

    def test_generator_determinism(self):
        a = gen_model2(10, 15, seed_or_rng=3)
        b = gen_model2(10, 15, seed_or_rng=3)
        np.testing.assert_array_equal(a.values, b.values)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(FuncbandError):
            ModelSpec(model="m9", n=10, p=10, h=0.1)
        with pytest.raises(FuncbandError):
            ModelSpec(model="m1", n=1, p=10, h=0.1)

    @pytest.mark.parametrize("field, value", [
        ("h", -0.1), ("h", 0.0), ("h", float("nan")), ("level", 1.5), ("level", 0.0),
        ("reps", -2), ("paths", 5), ("bootstraps", 0), ("grid_size", 0), ("seed", -1),
        ("kernel", "box"), ("p", 1), ("paths", 10**6 + 1), ("bootstraps", 10**23)])
    def test_every_field_is_checked(self, field, value):
        args = dict(model="m1", n=5, p=10, h=0.2, reps=1)
        args[field] = value
        with pytest.raises(FuncbandError, match="gamma" if field == "level" else field):
            ModelSpec(**args)

    def test_negative_seed_in_generators(self):
        for gen in (gen_model1, gen_model2, gen_model3):
            with pytest.raises(FuncbandError, match="seed"):
                gen(10, 20, -1)

    def test_unknown_method(self):
        spec = ModelSpec(model="m1", n=5, p=10, h=0.2, reps=1)
        with pytest.raises(FuncbandError):
            run_experiment(spec, "magic")


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def small_spec(self):
        return ModelSpec(model="m1", n=10, p=20, h=0.15, reps=8, seed=42,
                         grid_size=30, paths=2000)

    def test_deterministic_for_same_seed(self, small_spec):
        a = run_experiment(small_spec, "normal-scb")
        b = run_experiment(small_spec, "normal-scb")
        assert a.rate == b.rate
        assert a.median_threshold == b.median_threshold
        assert a.failures == b.failures == 0

    def test_stderr_is_binomial(self, small_spec):
        row = run_experiment(small_spec, "normal-scb")
        done = small_spec.reps - row.failures
        assert row.stderr == pytest.approx(
            math.sqrt(row.rate * (1 - row.rate) / done), abs=1e-12)

    def test_zero_reps_gives_nan_row(self):
        spec = ModelSpec(model="m1", n=10, p=20, h=0.15, reps=0, grid_size=20,
                         paths=2000)
        row = run_experiment(spec, "normal-scb")
        assert math.isnan(row.rate) and math.isnan(row.median_threshold)
        assert not row.flagged

    def test_plrt_method_row(self):
        spec = ModelSpec(model="m3-h0", n=20, p=20, h=0.2, reps=5, seed=1,
                         grid_size=20, paths=2000)
        row = run_experiment(spec, "plrt-known")
        assert 0.0 <= row.rate <= 1.0
        assert math.isnan(row.median_threshold)  # tests report no band threshold

    def test_table_serialization(self, small_spec):
        row = run_experiment(small_spec, "normal-scb")
        table = ExperimentTable(rows=[row])
        parsed = json.loads(table.to_json())
        assert parsed[0]["rate"] == row.rate
        header = table.to_csv().splitlines()[0].split(",")
        assert header == list(ExperimentRow.__dataclass_fields__)


def _row(spec, method) -> str:
    """The row without its wall time, as JSON, where NaN equals NaN."""
    row = run_experiment(spec, method).to_dict()
    del row["wall_time"]
    return json.dumps(row, sort_keys=True)


class TestExperimentPlan:
    """``run_experiment`` reads its design-only work from plans cached per
    configuration; a cold and a warm cache give the same rows."""

    @pytest.mark.parametrize("method", METHODS)
    def test_cold_and_warm_cache_rows_identical(self, method, cold_caches):
        for model in ("m1", "m3-hn"):
            spec = ModelSpec(model=model, n=15, p=25, h=0.1, reps=3, seed=5, grid_size=40,
                             paths=500, bootstraps=200)
            cold_caches()
            cold = _row(spec, method)
            assert cold == _row(spec, method) and '"failures": 0' in cold

    @pytest.mark.parametrize("method", METHODS)
    def test_cached_arrays_are_read_only(self, method, cold_caches):
        spec = ModelSpec(model="m3-hn", n=15, p=25, h=0.1, grid_size=40)
        plan = simlab._experiment_plan(spec, method)
        arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
        arrays.append(simlab._eval_mean(spec.model, spec.grid_size, spec.n))
        assert len(arrays) >= 2
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        assert simlab._experiment_plan(spec, method).design is plan.design

    @pytest.fixture(scope="class")
    def plan(self):
        return gof_module._gof_plan(polynomial_basis(1), uniform_design_grid(25),
                                    make_eval_grid(40), 0.1, "epanechnikov")

    @staticmethod
    def _calls(sample, eval, plan):
        # the plan's model is compared by identity: the planned call passes it
        line = plan.model if plan is not None else polynomial_basis(1)
        return {
            "normal": lambda: normal_scb(sample, eval, 0.1, paths=500, seed=3, _plan=plan),
            "bootstrap": lambda: bootstrap_scb(sample, eval, 0.1, bootstraps=200, seed=3,
                                               _plan=plan),
            "gof": lambda: scb_gof_test(sample, line, eval, 0.1, paths=500, seed=3,
                                        _plan=plan).band,
        }

    @pytest.mark.parametrize("entry", ["normal", "bootstrap", "gof"])
    @pytest.mark.parametrize("other", ["design", "evaluation"])
    def test_plan_for_another_grid_rejected(self, plan, entry, other):
        p, m = (26, 40) if other == "design" else (25, 41)
        sample = gen_model3(15, p, seed_or_rng=8, hypothesis="hn")
        with pytest.raises(FuncbandError, match=f"another {other} grid"):
            self._calls(sample, make_eval_grid(m), plan)[entry]()

    @pytest.mark.parametrize("entry", ["normal", "bootstrap", "gof"])
    def test_plan_on_equal_grids_is_bit_identical(self, plan, entry):
        # grids equal to the plan's but built apart pass, and change nothing
        sample = gen_model3(15, 25, seed_or_rng=9, hypothesis="hn")
        sample = FunctionalSample(grid=uniform_design_grid(25), values=sample.values)
        eval = make_eval_grid(40)
        assert sample.grid is not plan.design and eval is not plan.eval
        planned = self._calls(sample, eval, plan)[entry]()
        plain = self._calls(sample, eval, None)[entry]()
        for part in ("center", "half_width"):
            np.testing.assert_array_equal(getattr(planned, part), getattr(plain, part))
        assert planned.threshold == plain.threshold

    @pytest.mark.parametrize("entry, other", [
        ("normal", "h"), ("normal", "kernel"), ("bootstrap", "h"), ("bootstrap", "kernel"),
        ("gof", "h"), ("gof", "kernel"), ("gof", "model"),
        ("plrt", "h"), ("plrt", "kernel"), ("plrt", "model")])
    def test_plan_for_another_setting_rejected(self, entry, other):
        # a band reads only W, so it compares no model; gof and PLRT compare it
        line, design, eval = polynomial_basis(1), uniform_design_grid(25), make_eval_grid(40)
        built = {"h": 0.1, "kernel": "epanechnikov", "model": line}
        built[other] = {"h": 0.12, "kernel": "gauss", "model": polynomial_basis(0)}[other]
        if entry == "plrt":
            plan = plrt_module._plrt_plan(built["model"], design, built["h"], built["kernel"])
        else:
            plan = gof_module._gof_plan(built["model"], design, eval, built["h"],
                                        built["kernel"])
        sample = gen_model3(15, 25, seed_or_rng=8, hypothesis="hn")
        calls = {**self._calls(sample, eval, plan),
                 "gof": lambda: scb_gof_test(sample, line, eval, 0.1, paths=500, _plan=plan),
                 "plrt": lambda: plrt_test(sample, line, 0.1, _plan=plan)}
        with pytest.raises(FuncbandError, match="the design plan was built for"):
            calls[entry]()

    @pytest.mark.parametrize("entry", ["gof", "plrt"])
    def test_plan_without_the_model_rejected(self, plan, entry):
        # a missing model must not let the plan's own model stand in for it
        sample, eval = gen_model3(15, 25, seed_or_rng=8, hypothesis="hn"), make_eval_grid(40)
        plrt_plan = plrt_module._plrt_plan(plan.model, plan.design, 0.1, "epanechnikov")
        with pytest.raises(FuncbandError, match="model=None"):
            if entry == "gof":
                scb_gof_test(sample, None, eval, 0.1, paths=500, _plan=plan)
            else:
                plrt_test(sample, None, 0.1, _plan=plrt_plan)


# The method lists of the simlab benchmark workloads, at their sizes; the
# replication and resample counts do not change what a run builds.
_SIM_GAUSS = [("normal-scb", dict(model="m1", n=50, p=50, h=0.05, reps=1)),
              ("gof-scb", dict(model="m3-h0", n=50, p=50, h=0.035, reps=1))]
_SIM_BOOT_PLRT = [("bootstrap-scb", dict(model="m2", n=20, p=50, h=0.05, bootstraps=200,
                                         reps=1)),
                  ("plrt-known", dict(model="m3-hn", n=50, p=50, h=0.05, reps=2)),
                  ("plrt-np", dict(model="m3-hn", n=50, p=50, h=0.05, reps=2)),
                  ("plrt-ar1", dict(model="m3-hn", n=50, p=50, h=0.05, reps=2))]


class TestPlanCache:
    """The plan cache holds what the package's simlab runs read: each design-only
    piece is built once, however many rounds run."""

    @pytest.fixture
    def builds(self, monkeypatch, cold_caches):
        """Calls so far to each builder of a design-only piece."""
        counts = {}
        for module, name in ((smoothing_module, "weight_matrix"), (gof_module, "_complement"),
                             (simlab, "_sigma_factor")):
            def counted(*args, _f=getattr(module, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("methods, first", [
        (_SIM_GAUSS, {"weight_matrix": 2, "_complement": 1}),
        (_SIM_BOOT_PLRT, {"weight_matrix": 2, "_complement": 1, "_sigma_factor": 1}),
    ], ids=["sim-gauss", "sim-boot-plrt"])
    def test_second_round_builds_nothing(self, builds, methods, first):
        for seed in (1, 2):
            for method, spec in methods:
                assert run_experiment(ModelSpec(seed=seed, **spec), method).failures == 0
            assert builds == first

    def test_table_sweep_builds_each_plan_once(self, builds):
        # scripts/reproduce_tables.py --table 3: bandwidths outer, the four tests inner
        for h in (0.035, 0.05, 0.1):
            for method in ("gof-scb", "plrt-known", "plrt-np", "plrt-ar1"):
                spec = ModelSpec(model="m3-h0", n=50, p=50, h=h, reps=1, paths=2000)
                assert run_experiment(spec, method).failures == 0
        assert builds == {"weight_matrix": 6, "_complement": 6, "_sigma_factor": 1}
        assert simlab._cached_plan.cache_info().misses == 6


class TestKnownThreshold:
    def test_smoothed_threshold_reads_the_cached_smoother(self, cold_caches):
        c = known_R_threshold("m2", grid_size=60, paths=2000, seed=3, p=30, h=0.1)
        assert simlab._cached_plan.cache_info().currsize == 1
        design, eval = uniform_design_grid(30), make_eval_grid(60)
        w = weight_matrix(design, eval, 0.1)
        x = design.points
        r = w @ m2_covariance(x[:, None], x[None, :]) @ w.T
        request = SupQuantileRequest(correlation_from_covariance(r), 0.05, 2000, 3)
        assert c == sup_quantile(request).threshold

    def test_smoothed_threshold_in_expected_range(self):
        # [DERIVED] model-1 covariance pushed through the p=50, h=0.05 smoother
        c = known_R_threshold("m1", grid_size=100, paths=20000, seed=0, p=50, h=0.05)
        assert 2.55 <= c <= 2.80

    def test_monotone_in_gamma(self):
        c05 = known_R_threshold("m1", grid_size=40, gamma=0.05, paths=10000, seed=1)
        c01 = known_R_threshold("m1", grid_size=40, gamma=0.01, paths=10000, seed=1)
        assert c01 > c05

    def test_p_and_h_must_come_together(self):
        with pytest.raises(FuncbandError):
            known_R_threshold("m1", grid_size=20, paths=10000, seed=0, p=50)
