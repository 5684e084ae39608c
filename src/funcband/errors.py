"""Exception hierarchy shared across the package, and the integer-argument,
type, choice, numeric-array and finiteness checks that every entry point shares."""

import reprlib

import numpy as np


class FuncbandError(Exception):
    """Base class for all errors raised by this package."""


class GridError(FuncbandError):
    """Invalid design or evaluation grid specification."""


class SampleValidationError(FuncbandError):
    """A functional sample violates its structural invariants."""


class IllPosedBandwidthError(FuncbandError):
    """Too few kernel-active design points at some evaluation point."""


class SingularDesignError(FuncbandError):
    """The local design matrix is singular (e.g. collinear active points)."""


class DegenerateVarianceError(FuncbandError):
    """A variance estimate is zero where a positive value is required."""


class RankDeficiencyError(FuncbandError):
    """The parametric design matrix is (numerically) rank deficient."""


class FactorizationError(FuncbandError):
    """Covariance factorization failed even after PSD repair."""


class IntegrationError(FuncbandError):
    """A numerical integral did not reach its error tolerance."""


def _check_int(name: str, value, low: int = 0, error: type = FuncbandError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {name}={value!r}")


def _check_type(name: str, value, cls: type | tuple, error: type = FuncbandError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an instance of ``cls``
    (a class or a tuple of classes)."""
    if not isinstance(value, cls):
        what = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise error(f"{name} must be a {what}, got {name}={value!r}")


def _check_choice(name: str, value, choices, error: type = FuncbandError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is one of ``choices``
    (strings, or integers for a dimension); a value of another type, an array
    say, is rejected before it is compared."""
    if not (isinstance(value, (str, int, np.integer)) and value in choices):
        raise error(f"{name} must be one of {', '.join(map(repr, choices))}, "
                    f"got {name}={value!r}")


def _as_float_array(name: str, value, error: type = FuncbandError) -> np.ndarray:
    """``value`` as a float array; raise ``error`` naming ``name`` if it holds
    something that is not a number."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers, "
                    f"got {name}={reprlib.repr(value)}") from None


def _check_finite(what: str, values: np.ndarray) -> None:
    """Raise SampleValidationError naming the first point index (row of
    ``values``) that holds a non-finite entry."""
    bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if bad.any():
        raise SampleValidationError(f"non-finite {what} at point index {int(np.argmax(bad))}")
