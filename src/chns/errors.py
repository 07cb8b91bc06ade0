"""Exception types shared across the package."""


class ChnsError(Exception):
    """Base class for package errors."""


class DomainError(ChnsError, ValueError):
    """An input left the admissible domain of a material law."""


class ParameterError(ChnsError, ValueError):
    """A parameter violates its stated range."""


class PreconditionError(ChnsError, ValueError):
    """An operation's precondition was not met."""


class ConvergenceError(ChnsError, RuntimeError):
    """The direct Poisson solve's measured residual missed its tolerance or is not finite."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StepError(ChnsError, RuntimeError):
    """A time step could not be completed."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class ConfigError(ChnsError, ValueError):
    """A configuration file is malformed or violates a constraint."""
