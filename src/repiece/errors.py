"""Exception hierarchy shared by all repiece modules."""


class RepieceError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RepieceError, ValueError):
    """Shapes or extents do not line up (mismatched dims, odd split, bad grid)."""


class NumericError(RepieceError, ArithmeticError):
    """A value became (or was supplied) non-finite where finiteness is required."""


class DegenerateInputError(RepieceError, ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero norm)."""


class RangeError(RepieceError, ValueError):
    """A count or ratio is outside its permitted range."""


class ConfigError(RepieceError, ValueError):
    """A model/reduction/run configuration fails validation."""


class FormatError(RepieceError, ValueError):
    """A weights file or an input image cannot be parsed."""
