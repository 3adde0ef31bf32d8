"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes: ConfigError -> 2,
QuadratureError / NumericalError -> 3, InvariantError -> 4.
"""


class PolaronDecoError(Exception):
    """Base class for all library errors."""


class ConfigError(PolaronDecoError):
    """Invalid or inconsistent user configuration."""


class NumericalError(PolaronDecoError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericalError):
    """Adaptive quadrature exhausted its subdivision budget before converging."""


class InvariantError(PolaronDecoError):
    """A physical invariant (trace, positivity, normalization) was violated."""


class PositivityError(InvariantError):
    """Density matrix lost positivity beyond tolerance.

    Carries the first offending time in ``t_first``.
    """

    def __init__(self, message, t_first=None):
        super().__init__(message)
        self.t_first = t_first
