"""Exception types shared across the package."""


class MgntError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MgntError):
    """Operand shapes are incompatible for the requested operation."""


class ValidationError(MgntError):
    """An input violates a structural precondition (bad mesh, bad ids, ...)."""


class NumericError(MgntError):
    """A computation produced non-finite values."""


class ConfigError(MgntError):
    """A configuration file or value is invalid."""


class SchemaFormatError(MgntError):
    """A binary container or dataset file does not match the expected layout."""


class TrainingAbort(MgntError):
    """Training hit a non-finite loss; carries step diagnostics."""


class RolloutAbort(MgntError):
    """Autoregressive rollout produced a non-finite prediction."""
