"""Exception hierarchy.

Two broad families matter to callers: configuration/contract problems
(``ConfigError``, bad inputs caught before any numerics run) and numerical
failures (``NumericalError``, something went wrong while computing).  The CLI
maps them to exit codes 2 and 3 respectively.
"""


class RobinStripError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(RobinStripError, ValueError):
    """Invalid configuration, option, or input file."""


class ContractError(RobinStripError, ValueError):
    """A documented precondition of an operation was violated."""


class NumericalError(RobinStripError, RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class ConvergenceError(NumericalError):
    """An iterative refinement did not converge within its budget."""
