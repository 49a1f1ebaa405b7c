"""Exception types shared across the library, and two integer checks."""

import numbers

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


def is_index(value, n):
    """Whether value is an index into n entries: an integer in [0, n), not
    a bool.  The type test comes first, a fifth of the cost of isinstance:
    subdomain names and levels are checked on every residual."""
    return ((type(value) is int or isinstance(value, numbers.Integral)
             and not isinstance(value, bool)) and 0 <= value < n)


class NumericError(ArithmeticError):
    """A model function or integrand produced a non-finite value."""


class SolverError(RuntimeError):
    """Newton or linear solver failure; its message names where it failed."""
