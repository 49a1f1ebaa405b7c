"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """Invalid mesh, decomposition, model, or scheme configuration."""


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
