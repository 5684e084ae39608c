"""Design grids, evaluation grids, sample validation, and curves CSV I/O."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcband import (
    DesignGrid,
    EvalGrid,
    FunctionalSample,
    FuncbandError,
    GridError,
    SampleValidationError,
    local_linear_weights,
    make_design_grid,
    make_eval_grid,
    read_curves_csv,
    uniform_design_grid,
    weight_matrix,
    write_curves_csv,
)


def _tabulated_cdf(grid, values):
    """Forward CDF of the renormalized piecewise-linear density tabulated by
    ``values`` on ``grid``: the cumulative trapezoid up to x's cell, plus the
    cell's quadratic part."""
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg)])

    def cdf(x):
        k = min(max(int(np.searchsorted(grid, x, side="right")) - 1, 0), grid.size - 2)
        t, w = x - grid[k], grid[k + 1] - grid[k]
        f0, f1 = values[k], values[k + 1]
        return (cum[k] + f0 * t + 0.5 * (f1 - f0) * t * t / w) / cum[-1]

    return cdf


class TestMakeDesignGrid:
    def test_uniform_points_are_exact(self):
        grid = make_design_grid("uniform", (10,))
        assert grid.dim == 1
        np.testing.assert_array_equal(grid.points, (np.arange(1, 11) - 0.5) / 10)

    def test_uniform_grid_is_arithmetic(self):
        grid = uniform_design_grid(37)
        steps = np.diff(grid.points)
        np.testing.assert_allclose(steps, 1 / 37, rtol=0, atol=1e-15)
        assert grid.points[0] == 0.5 / 37

    def test_product_grid_d2(self):
        grid = make_design_grid(("uniform", "uniform"), (4, 4))
        assert grid.dim == 2
        assert grid.n_points == 16
        axis = (np.arange(1, 5) - 0.5) / 4
        expected = np.array([(a, b) for a in axis for b in axis])
        np.testing.assert_allclose(grid.points, expected, atol=1e-15)

    def test_linear_density_analytic_inversion(self):
        # [DERIVED] f(t) = 2t has CDF F(x) = x^2, so x_j = sqrt((j - 0.5)/4).
        # The density must be strictly positive, so floor the t=0 value.
        t = np.linspace(0.0, 1.0, 2001)
        grid = make_design_grid([(t, np.maximum(2.0 * t, 1e-12))], (4,))
        expected = np.sqrt((np.arange(1, 5) - 0.5) / 4)
        np.testing.assert_allclose(grid.points, expected, atol=1e-6)

    @given(st.lists(st.floats(0.05, 10.0), min_size=3, max_size=12),
           st.integers(2, 25))
    def test_grid_inversion_recovers_targets(self, density_values, p):
        t = np.linspace(0.0, 1.0, len(density_values))
        grid = make_design_grid([(t, density_values)], (p,))
        cdf = _tabulated_cdf(t, np.asarray(density_values))
        targets = (np.arange(1, p + 1) - 0.5) / p
        recovered = np.array([cdf(x) for x in grid.points])
        np.testing.assert_allclose(recovered, targets, atol=1e-10)

    def test_regeneration_is_bit_identical(self):
        t = np.linspace(0.0, 1.0, 50)
        density = 1.0 + 0.5 * np.sin(2 * np.pi * t)
        a = make_design_grid([(t, density)], (17,))
        b = make_design_grid([(t, density)], (17,))
        assert a.points.tobytes() == b.points.tobytes()

    def test_rejects_bad_sizes_and_densities(self):
        with pytest.raises(GridError):
            make_design_grid("uniform", (1,))
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(GridError):
            make_design_grid([(t, np.full(10, -1.0))], (5,))

    @pytest.mark.parametrize("form", [tuple, list])
    def test_one_spec_per_axis(self, form):
        t = np.linspace(0.0, 1.0, 50)
        tab = (t, 1.0 + t)
        axis4, axis5 = (make_design_grid([tab], (s,)).points for s in (4, 5))
        both = make_design_grid(form([tab, tab]), (4, 5))
        np.testing.assert_array_equal(both.axes[0], axis4)
        np.testing.assert_array_equal(both.axes[1], axis5)
        mixed = make_design_grid(form([tab, "uniform"]), (4, 5))
        np.testing.assert_array_equal(mixed.axes[0], axis4)
        np.testing.assert_array_equal(mixed.axes[1], uniform_design_grid(5).points)

    @pytest.mark.parametrize("spec", [5, (np.linspace(0.0, 1.0, 5),), ("a", "b"), (1, 2, 3)])
    def test_malformed_axis_spec(self, spec):
        with pytest.raises(GridError, match="density spec"):
            make_design_grid(["uniform", spec], (4, 4))

    def test_bare_pair_is_not_a_spec_per_axis(self):
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(GridError, match="one density spec per axis"):
            make_design_grid((t, 1.0 + t), (4,))
        with pytest.raises(GridError, match="density spec"):
            make_design_grid((t, 1.0 + t), (4, 4))


class TestEvalGrid:
    def test_default_is_equispaced(self):
        grid = make_eval_grid(100)
        np.testing.assert_allclose(grid.points, np.linspace(0, 1, 100), atol=0)

    def test_rejects_empty(self):
        with pytest.raises(GridError):
            make_eval_grid(0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grids_reject_non_finite_points(bad):
    points = np.array([0.05, bad, 0.5, 0.9])
    with pytest.raises(GridError, match="design points must be finite"):
        DesignGrid((points,))
    with pytest.raises(GridError, match="evaluation points must be finite"):
        EvalGrid((points,))


_AXIS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(lambda v: np.unique(np.abs(v)))


@settings(derandomize=True)
@given(st.lists(_AXIS, min_size=1, max_size=2))
def test_grid_is_its_axes(axes):
    grid = DesignGrid(tuple(axes))
    product = np.meshgrid(*axes, indexing="ij")
    expected = axes[0] if len(axes) == 1 else np.column_stack([g.ravel() for g in product])
    for g in (grid, EvalGrid(tuple(axes))):
        np.testing.assert_array_equal(g.points, expected)
        assert g.dim == len(axes) and g.coords().shape == (g.n_points, g.dim)

    def weights(eval):
        try:
            return weight_matrix(grid, eval, 2.0)
        except FuncbandError as exc:    # too few or collinear points: the same either way
            return type(exc)

    on_design, on_eval = weights(grid), weights(EvalGrid(grid.axes))
    if isinstance(on_design, type):
        assert on_design is on_eval
    else:
        np.testing.assert_array_equal(on_design, on_eval)


@pytest.mark.parametrize("axes", [
    (np.array([]),),
    (np.array([0.2, 0.4]),) * 3,
    (np.array([[0.2, 0.4], [0.6, 0.8]]),),
    (np.array([0.2, np.nan]),),
    (np.array([0.2, 1.5]),),
    (np.array([-0.1, 0.5]),),
    (np.array([0.4, 0.4]),),
    (np.array([0.6, 0.4]),),
    (["a", "b"],),
], ids=["empty", "three axes", "2-d axis", "nan", "above 1", "below 0", "repeated",
        "decreasing", "non-numeric"])
@pytest.mark.parametrize("cls, kind", [(DesignGrid, "design"), (EvalGrid, "evaluation")])
def test_malformed_axes_raise_grid_error(axes, cls, kind):
    with pytest.raises(GridError, match=kind):
        cls(axes)


def test_weights_at_a_point_of_the_wrong_dimension_rejected():
    # two coordinates on a 1-d design once returned the weights at the first
    # and silently dropped the second
    with pytest.raises(GridError):
        local_linear_weights(uniform_design_grid(20), [0.3, 0.6], 0.2)


def test_constructors_leave_caller_arrays_writeable():
    v = np.linspace(0.1, 0.9, 5)
    values = np.ones((3, 5))
    grid = DesignGrid((v,))
    eval = EvalGrid((v,))
    FunctionalSample(grid=grid, values=values)
    assert v.flags.writeable and values.flags.writeable
    assert not grid.points.flags.writeable and not eval.points.flags.writeable


def test_grids_compare_by_identity():
    # the generated field-wise == compared the axis arrays and raised
    grid = uniform_design_grid(5)
    assert (grid == uniform_design_grid(5)) is False
    assert grid == grid
    assert len({grid, uniform_design_grid(5), grid}) == 2
    sample = FunctionalSample(grid=grid, values=np.ones((2, 5)))
    assert sample == sample and (sample != FunctionalSample(grid=grid, values=np.ones((2, 5))))


class TestValidateSample:
    """Constructing a FunctionalSample is its validation."""

    def _sample(self, values):
        return FunctionalSample(grid=uniform_design_grid(values.shape[1]),
                                values=values)

    def test_accepts_well_formed(self):
        s = self._sample(np.ones((3, 5)))
        np.testing.assert_array_equal(s.values, np.ones((3, 5)))
        assert s.n_curves == 3 and s.n_points == 5

    def test_rejects_nan_with_location(self):
        values = np.ones((3, 5))
        values[1, 3] = np.nan
        with pytest.raises(SampleValidationError, match=r"curve 1.*point 3"):
            self._sample(values)

    def test_rejects_row_length_mismatch(self):
        with pytest.raises(SampleValidationError, match="4"):
            FunctionalSample(grid=uniform_design_grid(5), values=np.ones((3, 4)))


class TestCurvesCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        sample = FunctionalSample(grid=uniform_design_grid(7),
                                  values=rng.standard_normal((4, 7)))
        path = tmp_path / "curves.csv"
        write_curves_csv(path, sample)
        back = read_curves_csv(path)
        np.testing.assert_array_equal(back.values, sample.values)
        np.testing.assert_array_equal(back.grid.points, sample.grid.points)

    def test_label_column_split(self):
        text = "0.25,0.75\n" + "a,1.0,2.0\n" + "b,3.0,4.0\n" + "a,5.0,6.0\n"
        groups = read_curves_csv(io.StringIO(text), label_column=True)
        assert set(groups) == {"a", "b"}
        assert groups["a"].n_curves == 2
        assert groups["b"].n_curves == 1
        np.testing.assert_array_equal(groups["a"].values, [[1, 2], [5, 6]])

    @pytest.mark.parametrize("bad", [np.array([True, False]), "yes", 1, None])
    def test_label_column_must_be_a_bool(self, bad):
        # an array raised numpy's ambiguous-truth ValueError; "yes" read as true
        text = "0.25,0.75\n" + "a,1.0,2.0\n"
        with pytest.raises(SampleValidationError, match="label_column"):
            read_curves_csv(io.StringIO(text), label_column=bad)
