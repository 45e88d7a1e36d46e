"""Exception taxonomy shared across the package.

Data problems (unreadable files, malformed rows, out-of-order dates, values
outside a function's domain) and numerical failures (singular systems,
diverging training) get distinct classes so callers can map them to exit
codes without string matching.
"""


class FivecastError(Exception):
    """Base class for every error raised by this package."""


class IoError(FivecastError):
    """A data file could not be opened or read, or an output file or
    standard output could not be written."""


class ParseError(FivecastError, ValueError):
    """A data file row could not be parsed; the message names the row."""


class OrderError(FivecastError, ValueError):
    """Dates in a price series are not strictly increasing."""


class DomainError(FivecastError, ValueError):
    """A value or parameter lies outside the domain a function accepts."""


class ShapeError(FivecastError, ValueError):
    """Array dimensions do not match what an operation requires."""


class SingularError(FivecastError, ArithmeticError):
    """A linear system has no usable pivot; the matrix is singular."""


class DivergenceError(FivecastError, ArithmeticError):
    """Iterative training produced a non-finite cost."""


class ConvergenceWarning(UserWarning):
    """An iterative solver hit its iteration cap before reaching tolerance."""
