"""Exception types shared across the package.

Every error raised on a documented failure path derives from GerkError so
callers (and the CLI exit-code mapping) can catch one base class.
"""


class GerkError(Exception):
    pass


class DimensionMismatch(GerkError):
    """Operand shapes are incompatible."""


class FieldMismatch(GerkError):
    """Real/complex dtype does not match what the operation supports."""


class NonFiniteInput(GerkError):
    """A matrix or vector passed in holds NaN or an infinity."""


class ZeroMatrix(GerkError):
    """A matrix, block or vector that must be nonzero is numerically zero."""


class InvalidRank(GerkError):
    """Requested rank is outside 1..min(m, n)-1."""


class NotASubgradient(GerkError):
    """The supplied dual point is not a subgradient at the supplied primal point."""


class TooManyColumns(GerkError):
    """Subset enumeration refused: column count exceeds the cap."""


class MissingParameter(GerkError):
    """A preset or command needs a parameter that was not supplied."""


class NotConverged(GerkError):
    """An iterative oracle hit its iteration cap.

    Carries the best iterate found so far in ``best`` and the final
    residual measure in ``residual``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class NonFiniteIterate(GerkError):
    """A solver iterate went NaN or infinite mid-run, past what the doubles hold."""


class WorkerDied(GerkError):
    """The forked worker running a session's z-chain ahead died mid-run."""


class OracleMismatch(GerkError):
    """A certificate input failed its consistency pre-check."""


class ParseError(GerkError):
    """A file could not be parsed. Message names the file and 1-based line, or
    the file alone when line is None, as for a config file's value, whose
    message names its key."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}: {message}" if line is None else f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
