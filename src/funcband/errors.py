"""Exception hierarchy shared across the package."""


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
