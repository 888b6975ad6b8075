"""Dense-tensor substrate: creation, deterministic filling, and comparison.

A tensor is one read-only row-major float64 array with an explicit shape
of up to 4 axes. All arithmetic here is backed by numpy; accumulation stays
in 64-bit throughout. The public functions' input rules live here too, one
per invariant: ``_validated``, ``_tensors``, ``_axes`` and ``_shaped``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import FlashwinError, InvalidRangeError, ShapeError, _integer, _real

_MAX_AXES = 4

# SplitMix64 constants (Steele/Lea/Flood mixing function).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# Draws generated per step of fill_uniform (2**15 elements, 256 KiB per
# uint64 buffer): small enough that a block's mixing stays in cache, large
# enough that the per-block Python overhead does not show.
_FILL_BLOCK = 1 << 15


class DenseTensor:
    """Immutable row-major array with explicit shape.

    The tensor holds one read-only, C-contiguous float64 array in its
    declared shape; :attr:`array` and :attr:`data` hand out views of it,
    so shared tensors and views into them stay safe to pass around. The
    constructor copies its input once, so later writes to that input
    never reach the tensor.
    """

    __slots__ = ("_array",)

    def __init__(self, shape: Sequence[int], data: np.ndarray):
        shape = _validated(shape)
        array = np.array(data, dtype=np.float64, order="C")
        if array.size != math.prod(shape):
            raise ShapeError(
                f"buffer holds {array.size} elements, shape {shape} needs {math.prod(shape)}"
            )
        self._array = _read_only(array.reshape(shape))

    @classmethod
    def _adopt(cls, array: np.ndarray) -> "DenseTensor":
        """Wrap an array without copying it, taking its shape unchecked.

        Only for arrays the package has just created and never writes
        again, or for read-only views into another tensor's array (which
        is immutable too): the array and the array that owns its memory
        are marked read-only and shared, not copied. A non-contiguous input
        is copied into contiguous order. The shape is not checked again: each
        caller's comes from inputs that a public function has checked.
        Everything else goes through the copying constructor.
        """
        tensor = object.__new__(cls)
        tensor._array = _read_only(np.ascontiguousarray(array, dtype=np.float64))
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view (read-only)."""
        return self._array.reshape(-1)

    @property
    def array(self) -> np.ndarray:
        """Read-only view in the declared shape."""
        return self._array.view()

    @property
    def size(self) -> int:
        return self._array.size

    @property
    def ndim(self) -> int:
        return self._array.ndim

    def __repr__(self) -> str:
        return f"DenseTensor(shape={self.shape})"


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
        self._state = _integer("seed", seed) & _MASK

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


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, read-only with every array it views up to its memory's owner.

    numpy lets a view be made writeable again while its owner is writeable.
    """
    link = array
    while isinstance(link, np.ndarray):
        link.setflags(write=False)
        link = link.base
    return array


def _validated(shape: Sequence[int], minimum: int = 1) -> tuple[int, ...]:
    """The one extent rule: ``shape`` as a tuple of Python ints, once it is a sequence of 1..4
    integer extents >= ``minimum``. A float, bool or string extent is refused, not truncated."""
    try:
        shape = tuple(shape)
    except TypeError:  # a bare extent or None
        raise ShapeError(f"a shape is a sequence of extents, got {shape!r}") from None
    if not shape or len(shape) > _MAX_AXES:
        raise ShapeError(f"shape must have 1..{_MAX_AXES} axes, got {shape}")
    for e in shape:
        if type(e) is not int:  # arrays' shapes never get here: their extents are ints
            try:
                return _validated([_integer("extent", e) for e in shape], minimum)  # Python ints
            except InvalidRangeError:
                raise ShapeError(f"extents must be integers, got {shape}") from None
    if min(shape) < minimum:
        raise ShapeError(f"all extents must be >= {minimum}, got {shape}")
    return shape


def _tensors(fn: str, kind: type = DenseTensor, **operands) -> None:
    """The one operand rule of the public functions: each of ``operands`` is a ``kind`` (a
    DenseTensor by default; a subclass passes), else :class:`FlashwinError` names ``fn``,
    the class and the first parameter that is not, as in "fn needs TileConfigs"."""
    for name, t in operands.items():
        if not isinstance(t, kind):
            what = kind.__name__ + ("" if kind.__name__.endswith("s") else "s")
            raise FlashwinError(f"{fn} needs {what}, got {type(t).__name__} for {name}")


def _axes(fn: str, counts: tuple[int, ...], **operands) -> None:
    """The one axis-count rule of the public functions: each of ``operands`` has one of the
    ascending, consecutive ``counts`` axes, else :class:`ShapeError` names ``fn``, the first
    operand that has not, the counts and its shape: "fn needs S with 2..4 axes, got (5,)"."""
    for name, t in operands.items():
        if t.ndim not in counts:
            want = f"{counts[0]}" + (f"..{counts[-1]}" if len(counts) > 1 else "")
            raise ShapeError(f"{fn} needs {name} with {want} axes, got {t.shape}")


def _shaped(fn: str, shape: tuple[int, ...], **operands) -> tuple[int, ...]:
    """The one shape-agreement rule of the public functions: ``shape``, once each of
    ``operands`` (anything with a ``.shape``) has it, else :class:`ShapeError` names ``fn``,
    the first operand that has not and both shapes, as in "fn needs k of shape (4, 2), got
    (4, 3)"."""
    for name, operand in operands.items():
        if operand.shape != shape:
            raise ShapeError(f"{fn} needs {name} of shape {shape}, got {operand.shape}")
    return shape


def _host_array(make, shape: tuple[int, ...]) -> np.ndarray:
    """``make(shape)`` (``np.empty`` or ``np.zeros``) for a validated shape. An array numpy
    cannot index is refused as the host's MemoryError, as one it cannot allocate is."""
    try:
        return make(shape)
    except ValueError:  # the extents are valid, so numpy found the array too big
        raise MemoryError(f"shape {shape} is too large for the host") from None


def zeros(shape: Sequence[int]) -> DenseTensor:
    """All-zero tensor of the given shape."""
    return DenseTensor._adopt(_host_array(np.zeros, _validated(shape)))


def fill_uniform(rng: Rng, shape: Sequence[int], lo: float, hi: float) -> DenseTensor:
    """Tensor of i.i.d. uniform draws on [lo, hi) in row-major order.

    Consumes exactly one SplitMix64 draw per element: element ``i`` is
    ``lo + (hi - lo) * u`` with ``u`` the stream's ``i``-th
    ``rng.next_float()``, bitwise, and the stream ends where ``n`` calls of
    ``rng.next_u64()`` would leave it. The draws are generated in blocks
    of :data:`_FILL_BLOCK` elements, each mixed in place in two reused
    buffers and written straight into the one output array, which the
    tensor adopts without a copy; so peak memory is the output plus two
    blocks, whatever the size.
    """
    shape = _validated(shape)
    lo, hi = _real("lo", lo), _real("hi", hi)
    width = hi - lo
    if not (lo < hi and math.isfinite(width)):
        raise InvalidRangeError(f"need lo < hi and a finite hi - lo, got lo={lo}, hi={hi}")
    _tensors("fill_uniform", Rng, rng=rng)
    n = math.prod(shape)
    out = _host_array(np.empty, shape).reshape(n)
    # Vectorized SplitMix64: the state for draw i (from 1) is seed + i*GOLDEN mod 2^64.
    m = min(n, _FILL_BLOCK)
    offsets = np.arange(1, m + 1, dtype=np.uint64)
    offsets *= np.uint64(_GOLDEN)
    z, t = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64)
    for start in range(0, n, m):
        size = min(m, n - start)
        zb, tb = z[:size], t[:size]
        np.add(offsets[:size], np.uint64((rng._state + start * _GOLDEN) & _MASK), out=zb)
        np.right_shift(zb, np.uint64(30), out=tb)
        zb ^= tb
        zb *= np.uint64(_MIX1)
        np.right_shift(zb, np.uint64(27), out=tb)
        zb ^= tb
        zb *= np.uint64(_MIX2)
        np.right_shift(zb, np.uint64(31), out=tb)
        zb ^= tb
        zb >>= np.uint64(11)
        block = out[start : start + size]
        np.multiply(zb, 2.0**-53, out=block)
        block *= width
        block += lo
    rng._state = (rng._state + n * _GOLDEN) & _MASK
    return DenseTensor._adopt(out.reshape(shape))


def matmul(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    """2-D matrix product with 64-bit accumulation."""
    _tensors("matmul", a=a, b=b)
    _axes("matmul", (2,), a=a, b=b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    return DenseTensor._adopt(a.array @ b.array)


def max_abs_diff(a: DenseTensor, b: DenseTensor) -> float:
    """Largest elementwise absolute difference; 0 iff values are equal."""
    _tensors("max_abs_diff", a=a, b=b)
    if a.shape != b.shape:  # the shape rule, kept off the common path
        _shaped("max_abs_diff", a.shape, b=b)
    diff = a.array - b.array
    return float(np.abs(diff, out=diff).max())  # one temporary of the operands' size, not two
