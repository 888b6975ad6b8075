"""Exception types shared across the package, and the one rule for each kind of number."""

import math
import sys
from numbers import Integral

import numpy as np


class FlashwinError(Exception):
    """Base class for all errors raised by this package; raised itself for misuse of an API."""


class ShapeError(FlashwinError):
    """Extents are invalid or do not match an operation's contract."""


class InvalidRangeError(FlashwinError):
    """A number is not of its parameter's kind or is out of its range (``_integer``, ``_real``)."""


class NumericsError(FlashwinError):
    """Non-finite values appeared where finite ones are required."""


class CapacityError(FlashwinError):
    """A scratchpad request does not fit the free bytes; a malformed capacity is not one."""


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int: an integer (numpy's too), not a bool or a float, >= minimum."""
    integer = isinstance(value, Integral) and not isinstance(value, bool)
    if not integer or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidRangeError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a Python float: an int, a float or a numpy integer or floating value that
    is not a bool, finite, and > 0 if ``positive``. A ``Fraction`` is refused."""
    real = isinstance(value, (Integral, float, np.floating)) and not isinstance(value, bool)
    # An int beyond the float range is refused, not overflowed: int-float comparisons are exact.
    big = real and isinstance(value, Integral) and abs(value) > sys.float_info.max
    number = float(value) if real and not big else math.nan
    if not math.isfinite(number) or (positive and number <= 0):
        bound = " > 0" if positive else ""
        raise InvalidRangeError(f"{name} must be a finite number{bound}, got {value!r}")
    return number
