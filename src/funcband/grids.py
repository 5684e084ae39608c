"""Design grids, evaluation grids, and functional samples.

A grid is its axes: one or two strictly increasing point sequences in [0,1],
whose product, in row-major order, gives its points, dimension d in {1, 2}
and size.  A design grid holds the fixed measurement locations x_j of a
sample.  ``make_design_grid`` generates them by a product density: along
axis k, point j solves F_k(x) = (j - 0.5) / p_k where F_k is the CDF of a
positive continuous density on [0,1].  Every design grid is also an
evaluation grid, at which smooths are taken at the design points.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (GridError, SampleValidationError, _as_float_array, _check_choice, _check_int,
                     _check_type)

__all__ = [
    "DesignGrid",
    "EvalGrid",
    "FunctionalSample",
    "make_design_grid",
    "uniform_design_grid",
    "make_eval_grid",
    "read_curves_csv",
    "write_curves_csv",
]

def _readonly(a, name: str, error: type) -> np.ndarray:
    """A read-only C-contiguous float copy of ``a``, or ``error`` naming ``name``
    if ``a`` holds a non-number; the caller's array stays writeable."""
    a = np.array(_as_float_array(name, a, error), order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Ordered evaluation locations in [0,1]^dim: the product grid of
    ``axes``, one nonempty strictly increasing point sequence per axis.

    ``points`` has shape (m,) for dim=1 or (m, 2) for dim=2, in row-major
    product order (last axis fastest); it is computed once from ``axes``.
    """

    axes: tuple[np.ndarray, ...]
    points: np.ndarray = field(init=False, repr=False, compare=False)
    kind: ClassVar[str] = "evaluation"

    def __post_init__(self):
        if not isinstance(self.axes, (tuple, list)):
            raise GridError(f"{self.kind} axes must be a tuple of arrays, got axes={self.axes!r}")
        if len(self.axes) not in (1, 2):
            raise GridError(f"a {self.kind} grid has 1 or 2 axes, got {len(self.axes)}")
        axes = tuple(_readonly(a, f"{self.kind} axes[{k}]", GridError)
                     for k, a in enumerate(self.axes))
        for axis in axes:
            if axis.ndim != 1 or axis.size == 0:
                raise GridError(f"each {self.kind} axis must be a nonempty 1-d array, "
                                f"got shape {axis.shape}")
            if not np.all((axis >= 0.0) & (axis <= 1.0)):
                raise GridError(f"{self.kind} points must be finite and lie in [0,1]")
            if np.any(np.diff(axis) <= 0):
                raise GridError(f"{self.kind} points must be strictly increasing per axis")
        if len(axes) == 1:
            points = axes[0]
        else:
            g1, g2 = np.meshgrid(*axes, indexing="ij")
            points = np.column_stack([g1.ravel(), g2.ravel()])
            points.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def coords(self) -> np.ndarray:
        """Points as a (m, dim) array regardless of dim."""
        pts = self.points
        return pts[:, None] if self.dim == 1 else pts


class DesignGrid(EvalGrid):
    """The design locations x_j of a sample; as an evaluation grid it puts
    a smooth at the design points."""

    kind = "design"


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """n discretized curves observed on a common design grid; construction
    raises SampleValidationError unless the grid is a DesignGrid and the
    values are 2-d, with at least one curve, one value per design point, all
    finite."""

    grid: DesignGrid
    values: np.ndarray

    def __post_init__(self):
        _check_type("grid", self.grid, DesignGrid, SampleValidationError)
        values = _readonly(self.values, "values", SampleValidationError)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise SampleValidationError(f"values must be 2-d, got shape {values.shape}")
        n, p = values.shape
        if n < 1:
            raise SampleValidationError("need at least one curve")
        if p != self.grid.n_points:
            raise SampleValidationError(f"rows have {p} entries but the design grid has "
                                        f"{self.grid.n_points} points")
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise SampleValidationError(f"non-finite entry at curve {i}, design point {j}")

    @property
    def n_curves(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    def column_means(self) -> np.ndarray:
        return self.values.mean(axis=0)


def _tabulated_quantiles(grid: np.ndarray, values: np.ndarray, targets: np.ndarray):
    """Quantiles at ``targets`` of the renormalized piecewise-linear density
    tabulated by ``values`` on ``grid`` (spanning [0,1]).  Each target finds
    its cell on the cumulative trapezoid, then takes the stable root of that
    cell's quadratic CDF, f0 t + (slope/2) t^2 = c."""
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise GridError("tabulated density grid must be strictly increasing with >= 2 points")
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise GridError("tabulated density grid must span [0,1]")
    if values.shape != grid.shape:
        raise GridError("tabulated density values must match its grid")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise GridError("density values must be positive and finite")
    width = np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * width)])
    mass = targets * cum[-1]
    k = np.clip(np.searchsorted(cum, mass, side="right") - 1, 0, grid.size - 2)
    f0, c = values[k], mass - cum[k]
    slope = (values[k + 1] - f0) / width[k]
    return grid[k] + 2.0 * c / (f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * c, 0.0)))


def _axis_points(density, size: int) -> np.ndarray:
    targets = (np.arange(1, size + 1) - 0.5) / size
    if isinstance(density, str):
        if density != "uniform":
            raise GridError(f"unknown density spec {density!r}")
        return targets.copy()  # exact closed form for the uniform density
    try:
        grid, values = (np.asarray(a, dtype=float) for a in density)
    except (TypeError, ValueError):
        raise GridError("a density spec must be 'uniform' or a (grid, values) pair "
                        f"of numbers, got a {type(density).__name__}") from None
    return _tabulated_quantiles(grid, values, targets)


def make_design_grid(densities, sizes) -> DesignGrid:
    """Build a product design grid from per-axis density specs and sizes.

    ``densities`` is the string "uniform" for every axis, or a sequence with
    one entry per axis of either "uniform" or a tabulated pair ``(grid,
    values)`` of density values on a fine grid spanning [0,1]; tabulated
    densities are renormalized.
    """
    try:
        sizes = tuple(sizes)
    except TypeError:
        raise GridError(f"sizes must be a sequence, got sizes={sizes!r}") from None
    for k, size in enumerate(sizes):
        _check_int(f"sizes[{k}]", size, 2, GridError)
    sizes = tuple(int(s) for s in sizes)
    dim = len(sizes)
    if dim not in (1, 2):
        raise GridError("only dimensions 1 and 2 are supported")
    if isinstance(densities, str):
        densities = [densities] * dim
    if not isinstance(densities, (list, tuple)) or len(densities) != dim:
        raise GridError(f"densities must be 'uniform' or one density spec per axis ({dim})")
    return DesignGrid(tuple(_axis_points(d, s) for d, s in zip(densities, sizes)))


def uniform_design_grid(*sizes) -> DesignGrid:
    return make_design_grid("uniform", sizes)


def make_eval_grid(size: int = 100, dim: int = 1) -> EvalGrid:
    """Equispaced evaluation grid on [0,1]^dim (default 100 points, d=1)."""
    _check_int("size", size, 1, GridError)
    _check_choice("dim", dim, (1, 2), GridError)
    return EvalGrid((np.linspace(0.0, 1.0, size),) * int(dim))


# ---------------------------------------------------------------------------
# Wide CSV format: line 1 = design points, lines 2..n+1 = one curve per line.
# ---------------------------------------------------------------------------

def _opened(path_or_file, mode: str):
    """The caller's open file, left open, or the file at a path opened in ``mode``."""
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(path_or_file)
    _check_type("path_or_file", path_or_file, (str, bytes, os.PathLike), SampleValidationError)
    return open(path_or_file, mode, newline="")


def read_curves_csv(path_or_file, label_column: bool = False):
    """Read a wide-format curves CSV.

    Returns a FunctionalSample, or a dict label -> FunctionalSample when
    ``label_column`` is set (first field of each curve row is the label).
    """
    _check_type("label_column", label_column, bool, SampleValidationError)
    with _opened(path_or_file, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SampleValidationError("empty curves file") from None
        try:
            points = np.array([float(v) for v in header], dtype=float)
        except ValueError as exc:
            raise SampleValidationError(f"bad design point in header: {exc}") from None
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if label_column:
                labels.append(row[0])
                row = row[1:]
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise SampleValidationError(f"bad value on line {lineno}: {exc}") from None
            if len(vals) != points.size:
                raise SampleValidationError(
                    f"line {lineno} has {len(vals)} values, expected {points.size}"
                )
            rows.append(vals)
        if not rows:
            raise SampleValidationError("no curves in file")
        grid = DesignGrid((points,))
        values = np.array(rows, dtype=float)
        if not label_column:
            return FunctionalSample(grid=grid, values=values)
        labels_arr = np.array(labels)
        # preserve first-seen order
        return {lab: FunctionalSample(grid=grid, values=values[labels_arr == lab])
                for lab in dict.fromkeys(labels)}


def write_curves_csv(path_or_file, sample: FunctionalSample) -> None:
    _check_type("sample", sample, FunctionalSample, SampleValidationError)
    if sample.grid.dim != 1:
        raise GridError("curves CSV supports d=1 only")
    with _opened(path_or_file, "w") as fh:
        fh.write(",".join(repr(float(x)) for x in sample.grid.points) + "\n")
        for row in sample.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
