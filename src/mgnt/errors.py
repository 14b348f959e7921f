"""Exception types shared across the package, and the per-field domain rule
every config class enforces."""

import math
import operator
from dataclasses import MISSING, field, fields


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


_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "lt": (operator.lt, "<")}


def setting(default=MISSING, *, ge=None, gt=None, lt=None):
    """A config-class field whose numbers must be >= ``ge``, > ``gt`` and
    < ``lt``, where given; ``check_settings`` enforces the bounds."""
    bounds = {"ge": ge, "gt": gt, "lt": lt}
    return field(default=default, metadata={k: v for k, v in bounds.items() if v is not None})


def check_settings(obj, section: str) -> None:
    """Raise ConfigError unless every float of the config object ``obj`` is
    finite and every number, each entry of a tuple too, lies within its
    field's bounds."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{section} {f.name} must be finite, got {value}")
            for name, bound in f.metadata.items():
                test, symbol = _BOUNDS[name]
                if not test(v, bound):
                    raise ConfigError(f"{section} {f.name} must be {symbol} {bound}, "
                                      f"got {value}")
