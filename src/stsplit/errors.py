"""Exception types shared across the library, and an integer check."""


class ConfigurationError(ValueError):
    """Invalid mesh, decomposition, model, or scheme configuration."""


def as_integer(value, what):
    """value as an int if it is integral (16 or 16.0), else ConfigurationError."""
    try:
        if float(value).is_integer():
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


class NumericError(ArithmeticError):
    """A model function or integrand produced a non-finite value."""


class SolverError(RuntimeError):
    """Newton or linear solver failure; its message names where it failed."""
