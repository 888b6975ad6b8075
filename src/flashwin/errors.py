"""Exception types shared across the package."""


class FlashwinError(Exception):
    """Base class for all errors raised by this package; raised itself for misuse of an API."""


class ShapeError(FlashwinError):
    """Extents are invalid or do not match an operation's contract."""


class InvalidRangeError(FlashwinError):
    """A numeric parameter lies outside its allowed interval."""


class NumericsError(FlashwinError):
    """Non-finite values appeared where finite ones are required."""


class CapacityError(FlashwinError):
    """An on-chip allocation request exceeds the scratchpad budget."""
