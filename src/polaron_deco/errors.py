"""Exception hierarchy shared by all modules.

Each class carries the process exit code the CLI returns for it, and a
subclass inherits its parent's: ConfigError 2, NumericalError 3,
InvariantError (and PositivityError) 4.
"""


class PolaronDecoError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ConfigError(PolaronDecoError):
    """Invalid or inconsistent user configuration."""

    exit_code = 2


class NumericalError(PolaronDecoError):
    """A numerical routine failed to reach its accuracy target."""


class InvariantError(PolaronDecoError):
    """A physical invariant (trace, positivity, normalization) was violated."""

    exit_code = 4


class PositivityError(InvariantError):
    """Density matrix lost positivity beyond tolerance.

    Carries the first offending time in ``t_first``.
    """

    def __init__(self, message, t_first=None):
        super().__init__(message)
        self.t_first = t_first
