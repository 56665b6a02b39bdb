"""Exception hierarchy shared across the package."""


class WavedensError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(WavedensError):
    """A requested configuration cannot be built (unsupported wavelet order,
    degenerate truncation box, ...)."""


class DataError(WavedensError):
    """Malformed input data (CSV rows, coefficient files, degenerate axes)."""


class EstimationError(WavedensError):
    """Estimation preconditions violated (sample too small, k too large,
    points outside the configured domain)."""


class DegenerateModelError(EstimationError):
    """A model has no usable mass (all coefficients zero)."""


class BudgetError(WavedensError):
    """A requested array would exceed the package's memory budget."""


class KConsistencyWarning(UserWarning):
    """k is large relative to n for consistent estimation (see validate_k);
    a warning only, since the estimate is still valid."""
