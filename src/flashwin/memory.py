"""Two-level memory model: a capacity-bounded scratchpad and traffic counts.

The simulated machine has a large global memory (the DenseTensor operands)
and a small on-chip scratchpad. Kernels may only touch global operands
through explicit chunk loads/stores, each of which is counted per operand
at element granularity, and may only hold working data in buffers
allocated from a :class:`ScratchpadArena`, which enforces its byte budget
on every allocation and records the high-water mark.

Accounting granularity matches the claims being checked: named kernel
buffers only. Per-row scalar temporaries (softmax row max/sum and the
dS row dot products) are not modeled, and byte accounting uses the
configured element size independently of the float64 compute precision.

Allocation sits on the kernels' hot path (a forward pass allocates once
per chunk load and once per output tile), so with many short windows the
arena's own bookkeeping is part of what a wall-clock benchmark measures;
:meth:`ScratchpadArena.allocate` is kept lean for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, FlashwinError, ShapeError

DEFAULT_CAPACITY_BYTES = 131072  # 128 KB


class OnChipBuffer:
    """A named scratchpad allocation holding a writable float64 workspace."""

    __slots__ = ("name", "array", "nbytes", "_live")

    def __init__(self, name: str, array: np.ndarray, nbytes: int):
        self.name = name
        self.array = array
        self.nbytes = nbytes
        self._live = True


class ScratchpadArena:
    """On-chip memory simulator tracking live bytes and peak occupancy."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.live_bytes = 0
        self.peak_bytes = 0

    def allocate(self, name: str, shape: Sequence[int], elem_bytes: int) -> OnChipBuffer:
        """Reserve ``prod(shape) * elem_bytes`` bytes and return a zeroed workspace.

        Raises :class:`ShapeError` for a negative extent and
        :class:`CapacityError` when the request does not fit; in both cases
        live and peak bytes are left as they were.
        """
        try:
            array = np.zeros(shape)  # float64, numpy's default
        except ValueError as exc:
            raise ShapeError(f"invalid shape {tuple(shape)} for '{name}': {exc}") from exc
        except MemoryError:
            # Too large for the host, so far larger than any scratchpad.
            raise self._overflow(name, math.prod(shape) * int(elem_bytes)) from None
        nbytes = array.size * int(elem_bytes)
        live = self.live_bytes + nbytes
        if live > self.capacity_bytes:
            raise self._overflow(name, nbytes)
        self.live_bytes = live
        if live > self.peak_bytes:
            self.peak_bytes = live
        return OnChipBuffer(name, array, nbytes)

    def _overflow(self, name: str, nbytes: int) -> CapacityError:
        return CapacityError(
            f"scratchpad overflow allocating '{name}': {nbytes} bytes requested, "
            f"{self.capacity_bytes - self.live_bytes} of {self.capacity_bytes} available"
        )

    def free(self, buf: OnChipBuffer) -> None:
        if not buf._live:
            raise FlashwinError(f"double free of on-chip buffer '{buf.name}'")
        buf._live = False
        self.live_bytes -= buf.nbytes


@dataclass(frozen=True)
class TrafficReport:
    """Per-operand global-memory element counts plus the scratchpad peak.

    Every global load and store performed by an instrumented kernel is
    recorded here, so the key sets double as proof of which operands were
    touched at all.
    """

    loads: dict[str, int] = field(default_factory=dict)
    stores: dict[str, int] = field(default_factory=dict)
    peak_sram_bytes: int = 0

    def total_elements(self) -> int:
        return sum(self.loads.values()) + sum(self.stores.values())


def merge_reports(reports: Iterable[TrafficReport]) -> TrafficReport:
    """Sum counts across independent kernel calls; the peak is the largest, not summed."""
    loads: dict[str, int] = {}
    stores: dict[str, int] = {}
    peak = 0
    for rep in reports:
        for name, n in rep.loads.items():
            loads[name] = loads.get(name, 0) + n
        for name, n in rep.stores.items():
            stores[name] = stores.get(name, 0) + n
        peak = max(peak, rep.peak_sram_bytes)
    return TrafficReport(loads=loads, stores=stores, peak_sram_bytes=peak)
