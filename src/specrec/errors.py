"""Exception taxonomy shared across the package."""


class SpecrecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SpecrecError, ValueError):
    """An argument violates a documented precondition."""


class AdmissibilityError(SpecrecError, ValueError):
    """A construction is rejected because a solvability hypothesis fails."""


class NumericFailureError(SpecrecError, ArithmeticError):
    """A numerical routine did not reach its accuracy or stability target.

    Carries the achieved error estimate and, where applicable, the time-step
    or mode index at which the failure occurred.
    """

    def __init__(self, message, error_estimate=None, step=None, mode=None):
        super().__init__(message)
        self.error_estimate = error_estimate
        self.step = step
        self.mode = mode


class IllPosedModeError(SpecrecError, ValueError):
    """Diagonal inversion rejected: listed modes fail the spectral tolerance.

    Carries the per-mode report that found them.
    """

    def __init__(self, message, modes, report):
        super().__init__(message)
        self.modes = list(modes)
        self.report = report


class ConfigError(SpecrecError, ValueError):
    """A configuration file is malformed or violates the schema."""
