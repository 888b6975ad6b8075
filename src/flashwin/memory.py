"""Two-level memory model: a capacity-bounded scratchpad and traffic counts.

The simulated machine has a large global memory (the DenseTensor operands)
and a small on-chip scratchpad, modeled by :class:`ScratchpadArena`.
Kernels hold working data only in buffers from its ``allocate``, which
enforces the byte budget, and cross the global-memory boundary only
through its ``load`` and ``store``, which count elements per operand.

Each kernel call runs in one :meth:`ScratchpadArena.kernel_call` scope,
which checks the call's budget, yields the call's :class:`TrafficReport`
and leaves the arena at its entry live bytes when the call fails.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, FlashwinError, ShapeError

DEFAULT_CAPACITY_BYTES = 131072  # 128 KB


class _Scope:
    """Where buffers are allocated: an arena outside any call, or one kernel call on it."""

    __slots__ = ("arena", "abandoned")

    def __init__(self, arena: ScratchpadArena):
        self.arena = arena
        self.abandoned = False  # set when the call fails and its bytes are written off


class OnChipBuffer:
    """A named scratchpad allocation holding a writable float64 workspace."""

    __slots__ = ("name", "array", "nbytes", "_scope", "_live")

    def __init__(self, name: str, array: np.ndarray, nbytes: int, scope: _Scope):
        self.name = name
        self.array = array
        self.nbytes = nbytes
        self._scope = scope
        self._live = True


class ScratchpadArena:
    """On-chip memory simulator: live bytes, global transfers and per-call reports."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        if capacity_bytes < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self.live_bytes = 0
        # The scope new buffers belong to: _outside, or the running call's own.
        self._outside = self._scope = _Scope(self)
        # The current call's ledger: its peak and, in first-touch order, its counts.
        self._call_peak, self._loads, self._stores = 0, {}, {}

    @contextmanager
    def kernel_call(self, kind: str, need: int) -> Iterator[Callable[[], TrafficReport | None]]:
        """Scope of one kernel call that needs ``need`` bytes at its peak.

        Raises :class:`CapacityError` before anything is allocated when
        ``need`` exceeds the bytes free on entry. Yields a function giving
        the call's report once the call has ended (None before): its loads
        and stores, and its peak above the entry live bytes. On any
        exception, live bytes go back to their entry value, the buffers
        allocated inside are abandoned (freeing one raises) and no report is
        made. One call runs on an arena at a time: entering a second one
        raises :class:`FlashwinError`, with the running call's ledger and
        the live bytes untouched.
        """
        if self._scope is not self._outside:
            raise FlashwinError(f"{kind} pass entered while another kernel call runs on the arena")
        entry = self.live_bytes
        if need > self.capacity_bytes - entry:
            raise CapacityError(
                f"{kind} pass needs {need} bytes of scratchpad, "
                f"arena has {self.capacity_bytes - entry} of {self.capacity_bytes} available"
            )
        self._call_peak, self._loads, self._stores = entry, {}, {}
        scope = self._scope = _Scope(self)
        final = None
        try:
            yield lambda: final
        except BaseException:
            self.live_bytes = entry
            scope.abandoned = True
            raise
        finally:
            self._scope = self._outside
        final = TrafficReport(self._loads, self._stores, self._call_peak - entry)
        self._loads, self._stores = {}, {}  # later transfers cannot reach the report

    def load(self, operand: str, view: np.ndarray, elem_bytes: int) -> OnChipBuffer:
        """Copy the global slice ``view`` into a fresh buffer and count its elements."""
        buf = self.allocate(operand, view.shape, elem_bytes)
        buf.array[...] = view
        self._loads[operand] = self._loads.get(operand, 0) + view.size
        return buf

    def store(self, operand: str, dest: np.ndarray, buf: OnChipBuffer) -> None:
        """Copy ``buf`` out to the global slice ``dest`` and count the elements written."""
        dest[...] = buf.array
        self._stores[operand] = self._stores.get(operand, 0) + dest.size

    def allocate(self, name: str, shape: Sequence[int], elem_bytes: int) -> OnChipBuffer:
        """Reserve ``prod(shape) * elem_bytes`` bytes and return a zeroed workspace.

        Raises :class:`ShapeError` for a negative extent and
        :class:`CapacityError` when the request does not fit; in both cases
        live bytes and the call's peak are left as they were.
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
        if live > self._call_peak:
            self._call_peak = live
        return OnChipBuffer(name, array, nbytes, self._scope)

    def _overflow(self, name: str, nbytes: int) -> CapacityError:
        return CapacityError(
            f"scratchpad overflow allocating '{name}': {nbytes} bytes requested, "
            f"{self.capacity_bytes - self.live_bytes} of {self.capacity_bytes} available"
        )

    def free(self, buf: OnChipBuffer) -> None:
        """Release ``buf``'s bytes.

        Raises :class:`FlashwinError`, leaving live bytes as they were, for
        a buffer of another arena, one abandoned by a failed kernel call
        (its bytes were already written off) and one freed before.
        """
        scope = buf._scope
        if scope.arena is not self:
            raise FlashwinError(f"on-chip buffer '{buf.name}' belongs to another arena")
        if scope.abandoned:
            raise FlashwinError(f"on-chip buffer '{buf.name}' was abandoned by a failed kernel call")
        if not buf._live:
            raise FlashwinError(f"double free of on-chip buffer '{buf.name}'")
        buf._live = False
        self.live_bytes -= buf.nbytes


@dataclass(frozen=True)
class TrafficReport:
    """Per-operand global-memory element counts plus the scratchpad peak.

    Every global load and store of a kernel call is recorded here, keyed in
    first-touch order, so the key sets double as proof of which operands
    were touched at all.
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
