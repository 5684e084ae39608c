"""Exception hierarchy shared across the package, and the integer-argument
check that every entry point shares."""

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
