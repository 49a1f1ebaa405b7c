"""Exception types shared across the library, and an integer check."""

import numpy as np


class ConfigurationError(ValueError):
    """Invalid mesh, decomposition, model, or scheme configuration."""


def as_integer(value, what):
    """value as an int if it is integral (16 or 16.0) and not a bool, else
    ConfigurationError."""
    try:
        if not isinstance(value, (bool, np.bool_)) and float(value).is_integer():
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


class NumericError(ArithmeticError):
    """A model function or integrand produced a non-finite value."""


class SolverError(RuntimeError):
    """Newton or linear solver failure; its message names where it failed."""
