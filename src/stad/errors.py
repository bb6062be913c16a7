"""Exception types shared across the package, its one rule for scalar
arguments, and its one size domain.

Every error raised by the library derives from StadError so that callers
can catch one base class. The package checks its scalar arguments with
one rule: an integer such as a dimension, a count, a seed or a time index
with `check_int` below, a real number such as a noise, a concentration or
a floor with `check_real`, and an on/off switch such as a learn flag with
`check_flag`; each raises DomainError. A size (a dimension d,
a class count k, a window, a sweep count, a stream's step count or batch
size) and a Bessel order are refused above `MAX_SIZE`; a seed or a time
index takes any integer. A real argument is bounded only by the float
range unless its entry point states a domain, as `vmf.VmfConfig` does
for the concentrations and `stream.DriftScenario` and
`stream.sample_vmf` do for the generator's. This module imports nothing
from the package, so every other module can use them.
"""

import contextlib
import math
import numbers

import numpy as np

# The largest size the package takes: 8192 times the largest dimension
# (D = 2048) and 16777 times the largest class count (K = 1000) that the
# trackers are run at. No code path serves anything beyond it.
MAX_SIZE = 2**24


class StadError(Exception):
    """Base class for all library errors."""


class DomainError(StadError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ZeroVectorError(DomainError):
    """A vector with (near-)zero norm where a direction is required."""


class EmptyInputError(DomainError):
    """An operation received an empty collection: a batch, products or
    logits of no row, or a window without a sample."""


class DimensionMismatchError(StadError):
    """Array shapes are inconsistent with the model or stream dimensions."""


class NonContiguousTimeError(StadError):
    """Time indices must increase by exactly one."""


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


def check_int(name: str, value, minimum: int, size: bool = False) -> None:
    """Raise DomainError unless value is an integer (bools excluded) >= minimum.

    With `size`, for a dimension, a count or a window, value must also be
    at most MAX_SIZE. A seed or a time index takes any integer.
    """
    # type() is int for a plain int, never for a bool; that skips the ABC check
    if not (type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if size and value > MAX_SIZE:
        raise DomainError(f"{name} must be at most MAX_SIZE = {MAX_SIZE}, got {_shown(value)}")


def check_flag(name: str, value) -> None:
    """Raise DomainError unless value is a bool, Python's or numpy's, so
    that a string such as "no" or a number is refused, not read by its truth."""
    if not isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{name} must be a bool, got {_shown(value)}")


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
        bounds = [f" {'>' if above else '>='} {minimum:.15g}"] if minimum > -math.inf else []
        bounds += [f" <= {maximum:.15g}"] if maximum < math.inf else []
        raise DomainError(f"{name} must be a finite real number{' and'.join(bounds)}, "
                          f"got {_shown(value)}")
