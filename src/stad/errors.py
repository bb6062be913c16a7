"""Exception types shared across the package.

Every error raised by the library derives from StadError so that callers
can catch one base class.
"""


class StadError(Exception):
    """Base class for all library errors."""


class DomainError(StadError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ZeroVectorError(DomainError):
    """A vector with (near-)zero norm where a direction is required."""


class EmptyInputError(DomainError):
    """An operation received an empty collection."""


class DimensionMismatchError(StadError):
    """Array shapes are inconsistent with the model or stream dimensions."""


class NonContiguousTimeError(StadError):
    """Time indices must increase by exactly one."""


class EmptyBatchError(StadError):
    """An adaptation step needs at least one sample."""


class InsufficientHistoryError(StadError):
    """Not enough window steps for the requested parameter estimate."""


class NotAdaptedError(StadError):
    """Prediction was requested before any adaptation step."""


class StreamFormatError(StadError):
    """Base class for on-disk stream format violations."""


class CorruptHeaderError(StreamFormatError):
    """A payload file has a bad magic string or truncated header."""


class CorruptPayloadError(StreamFormatError):
    """A payload file body does not match its declared shape."""


class MissingFileError(StreamFormatError):
    """A file referenced by the manifest does not exist."""


class MissingLabelsError(StadError):
    """An operation requires labels that the stream does not carry."""


class InfeasibleSeparationError(StadError):
    """Could not place the requested number of well-separated directions."""
