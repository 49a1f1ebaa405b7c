"""Exception types shared across the library, and three number checks."""

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


def as_real(value, what):
    """value as a float if it is a real number (an int, a float, or a NumPy
    integer or floating scalar) and not a bool, else ConfigurationError."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            raise ConfigurationError(
                f"{what} is too large for a float") from None
    raise ConfigurationError(f"{what} must be a real number, got {value!r}")


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
