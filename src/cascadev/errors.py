"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so new error types should
subclass one of the three mid-level categories below.
"""


class CascadevError(Exception):
    """Base class for all package errors."""


class ConfigError(CascadevError):
    """Invalid or inconsistent configuration (CLI exit code 2)."""


class DataError(CascadevError):
    """Missing, malformed, or incompatible input data (CLI exit code 3)."""


class NumericalError(CascadevError):
    """Numerical failure during computation (CLI exit code 4)."""


class InvalidDeltasError(NumericalError):
    """Face distances imply a non-positive box size."""


class WrongVariantError(ConfigError):
    """An unknown vote weighting name."""


class PlacementError(DataError):
    """Scene generation could not place a box within the retry budget."""


class SchemaVersionError(DataError):
    """A serialized artifact declares an unsupported major schema version."""


class PredictorOutputError(NumericalError):
    """A predictor violated its output contract."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss."""
