"""Exception types shared across the package, and its one rule for scalar
arguments.

Every error raised by the library derives from StadError so that callers
can catch one base class. The package checks its scalar arguments with
one rule: an integer such as a dimension, a count, a seed or a time index
with `check_int` below (a dimension or a count also within the float
range), a real number such as a noise, a concentration or a floor with
`check_real`; both raise DomainError. This module imports nothing from
the package, so every other module can use them.
"""

import contextlib
import math
import numbers
import sys


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


def _shown(value) -> str:
    """repr(value) for an error message, or its type where repr raises, as
    it does for an int past the interpreter's digit limit."""
    try:
        return repr(value)
    except Exception:
        return f"an unprintable {type(value).__name__}"


def check_int(name: str, value, minimum: int, as_float: bool = False) -> None:
    """Raise DomainError unless value is an integer (bools excluded) >= minimum.

    With `as_float`, for a size such as a dimension or a class count that
    the caller computes with as a float, value must also lie within the
    largest float, as `check_real` asks of a real number: an int such as
    10**400 is refused here rather than overflowing where it is converted.
    A seed or a time index takes any integer.
    """
    # type() is int for a plain int, never for a bool; that skips the ABC check
    if not (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    # an int compares with a float exactly
    if as_float and value > sys.float_info.max:
        raise DomainError(f"{name} must be an integer within the float range, "
                          f"got {_shown(value)}")


def check_real(name: str, value, minimum: float = -math.inf, maximum: float = math.inf,
               above: bool = False) -> None:
    """Raise DomainError unless value is a finite real number (bools
    excluded) in [minimum, maximum], or in (minimum, maximum] with `above`.

    Finite means within the largest float: a value is compared as the
    float it converts to, so an int such as 10**400 is refused here rather
    than overflowing where it is converted.
    """
    number = math.nan
    if isinstance(value, float):  # numpy's float64 too; skips the ABC check
        number = value
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # beyond the largest float
            number = float(value)
    # chained comparisons also reject NaN
    if not (-math.inf < number < math.inf and minimum <= number <= maximum
            and not (above and number == minimum)):
        bounds = [f" {'>' if above else '>='} {minimum:g}"] if minimum > -math.inf else []
        bounds += [f" <= {maximum:g}"] if maximum < math.inf else []
        raise DomainError(f"{name} must be a finite real number{' and'.join(bounds)}, "
                          f"got {_shown(value)}")
