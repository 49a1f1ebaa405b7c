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
    """Newton or linear solver failure.

    Carries the worst residual norm seen so the caller can report how far
    the solve got before giving up, and, when one block of a stacked solve
    failed, that block's index in the stack (None otherwise).
    """

    def __init__(self, message, worst_residual=None, block=None):
        super().__init__(message)
        self.worst_residual = worst_residual
        self.block = block
