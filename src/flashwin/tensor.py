"""Dense-tensor substrate: creation, deterministic filling, and comparison.

Tensors are immutable row-major float64 buffers with an explicit shape of
up to 4 axes. All arithmetic here is backed by numpy; accumulation stays
in 64-bit throughout.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidRangeError, ShapeError

_MAX_AXES = 4

# SplitMix64 constants (Steele/Lea/Flood mixing function).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class DenseTensor:
    """Immutable row-major array with explicit shape.

    The backing buffer is flat float64; views handed out through
    :attr:`array` are marked read-only so shared tensors and views into
    them stay safe to pass around. The constructor copies its input,
    so later writes to that input never reach the tensor.
    """

    __slots__ = ("_shape", "_data")

    def __init__(self, shape: Sequence[int], data: np.ndarray):
        shape = tuple(int(e) for e in shape)
        _validate_shape(shape)
        flat = np.asarray(data, dtype=np.float64).reshape(-1).copy()
        if flat.size != math.prod(shape):
            raise ShapeError(
                f"buffer holds {flat.size} elements, shape {shape} needs {math.prod(shape)}"
            )
        flat.setflags(write=False)
        self._shape = shape
        self._data = flat

    @classmethod
    def _adopt(cls, array: np.ndarray) -> "DenseTensor":
        """Wrap an array without copying it, taking its shape.

        Only for arrays the package has just created and never writes
        again, or for read-only views into another tensor's buffer (which
        is immutable too): the buffer is marked read-only and shared, not
        copied. A non-contiguous input is copied into contiguous order.
        Everything else goes through the copying constructor.
        """
        shape = tuple(array.shape)
        _validate_shape(shape)
        flat = np.ascontiguousarray(array, dtype=np.float64).reshape(-1)
        flat.setflags(write=False)
        tensor = object.__new__(cls)
        tensor._shape = shape
        tensor._data = flat
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major buffer (read-only)."""
        return self._data

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the buffer in its declared shape."""
        return self._data.reshape(self._shape)

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def ndim(self) -> int:
        return len(self._shape)

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self._shape})"


class Rng:
    """SplitMix64 pseudo-random stream.

    State advances by the 64-bit golden-ratio increment per draw and each
    output is the mixed state, so the i-th draw depends only on
    ``seed + (i+1)*GOLDEN``. Identical seeds give identical sequences on
    every platform. :meth:`split` consumes one draw and seeds an
    independent child stream with it.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform draw on [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def split(self) -> "Rng":
        return Rng(self.next_u64())


def _validate_shape(shape: tuple[int, ...]) -> None:
    if not shape or len(shape) > _MAX_AXES:
        raise ShapeError(f"shape must have 1..{_MAX_AXES} axes, got {shape}")
    if any(e < 1 for e in shape):
        raise ShapeError(f"all extents must be >= 1, got {shape}")


def zeros(shape: Sequence[int]) -> DenseTensor:
    """All-zero tensor of the given shape."""
    shape = tuple(int(e) for e in shape)
    _validate_shape(shape)
    return DenseTensor(shape, np.zeros(math.prod(shape), dtype=np.float64))


def fill_uniform(rng: Rng, shape: Sequence[int], lo: float, hi: float) -> DenseTensor:
    """Tensor of i.i.d. uniform draws on [lo, hi) in row-major order.

    Consumes exactly one SplitMix64 draw per element; the result is
    bitwise identical to filling element by element with
    ``rng.next_float()``.
    """
    shape = tuple(int(e) for e in shape)
    _validate_shape(shape)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidRangeError(f"need lo < hi, got lo={lo}, hi={hi}")
    n = math.prod(shape)
    # Vectorized SplitMix64: state for draw i is seed + (i+1)*GOLDEN mod 2^64.
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(rng._state) + np.uint64(_GOLDEN) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    rng._state = (rng._state + n * _GOLDEN) & _MASK
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return DenseTensor(shape, lo + (hi - lo) * u)


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """2-D matrix product with 64-bit accumulation."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    out = a.array @ b.array
    return DenseTensor(out.shape, out)


def max_abs_diff(a: DenseTensor, b: DenseTensor) -> float:
    """Largest elementwise absolute difference; 0 iff values are equal."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a.array - b.array)))
