"""Two-level memory model: a capacity-bounded scratchpad and traffic counts.

The simulated machine has a large global memory (the DenseTensor operands)
and a small on-chip scratchpad, modeled by :class:`ScratchpadArena`.
Kernels hold working data only in buffers from its ``allocate`` (or
``load``): plain zeroed float64 arrays that the arena holds until they are
passed to ``free``, charged against the byte budget. They cross the
global-memory boundary only through ``load`` and ``store``, which count
elements per operand. ``store`` and ``free`` accept only a buffer the arena
holds, and refuse any other array with one error that changes nothing.

Each kernel call runs in one :meth:`ScratchpadArena.kernel_call` scope,
which checks the call's budget, yields the call's :class:`TrafficReport`
and, when the call fails, leaves the arena exactly as it was on entry.

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

from .errors import CapacityError, FlashwinError, InvalidRangeError, ShapeError

DEFAULT_CAPACITY_BYTES = 131072  # 128 KB
ELEM_BYTES = (4, 8)  # the element sizes byte accounting accepts


def _checked_elem_bytes(elem_bytes) -> int:
    """``elem_bytes`` as an int; :class:`InvalidRangeError` unless it is one of ELEM_BYTES."""
    if elem_bytes not in ELEM_BYTES:
        raise InvalidRangeError(f"elem_bytes must be 4 or 8, got {elem_bytes}")
    return int(elem_bytes)


def _checked_capacity(capacity_bytes) -> int:
    """``capacity_bytes`` as an int; :class:`CapacityError` unless it is a whole number >= 0."""
    if not (capacity_bytes >= 0 and capacity_bytes % 1 == 0):  # refuses nan and inf too
        raise CapacityError(f"capacity must be >= 0 and an integer, got {capacity_bytes}")
    return int(capacity_bytes)


class ScratchpadArena:
    """On-chip memory simulator: held buffers, live bytes, transfers and per-call reports."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES):
        self.capacity_bytes = _checked_capacity(capacity_bytes)
        self.live_bytes = 0
        # Every buffer the arena holds, by id: (the array, its charged bytes).
        # The map keeps each held array alive, so no other object shares its id.
        self._held: dict[int, tuple[np.ndarray, int]] = {}
        self._in_call = False
        # The current call's ledger: its peak and, in first-touch order, its counts.
        self._call_peak, self._loads, self._stores = 0, {}, {}

    @contextmanager
    def kernel_call(self, kind: str, need: int) -> Iterator[Callable[[], TrafficReport | None]]:
        """Scope of one kernel call that needs ``need`` bytes at its peak.

        Raises :class:`CapacityError` before anything is allocated when
        ``need`` exceeds the bytes free on entry. Yields a function giving
        the call's report once the call has ended (None before): its loads
        and stores, and its peak above the entry live bytes. A failed call
        leaves the arena exactly as it was on entry: on any exception the
        live bytes and the held buffers go back to their entry state (a
        buffer allocated inside is no longer held; one freed inside is held
        again) and no report is made. One call runs on an arena at a time:
        entering a second one raises :class:`FlashwinError`, with the
        running call's ledger and the live bytes untouched.
        """
        if self._in_call:
            raise FlashwinError(f"{kind} pass entered while another kernel call runs on the arena")
        entry = self.live_bytes
        if need > self.capacity_bytes - entry:
            raise CapacityError(
                f"{kind} pass needs {need} bytes of scratchpad, "
                f"arena has {self.capacity_bytes - entry} of {self.capacity_bytes} available"
            )
        self._call_peak, self._loads, self._stores = entry, {}, {}
        held = dict(self._held)
        self._in_call = True
        final = None
        try:
            yield lambda: final
        except BaseException:
            self.live_bytes, self._held = entry, held
            raise
        finally:
            self._in_call = False
        final = TrafficReport(self._loads, self._stores, self._call_peak - entry)
        self._loads, self._stores = {}, {}  # later transfers cannot reach the report

    def load(self, operand: str, view: np.ndarray, elem_bytes: int) -> np.ndarray:
        """Copy the global slice ``view`` into a fresh buffer and count its elements."""
        buf = self.allocate(operand, view.shape, elem_bytes)
        buf[...] = view
        self._loads[operand] = self._loads.get(operand, 0) + view.size
        return buf

    def store(self, operand: str, dest: np.ndarray, buf: np.ndarray) -> None:
        """Copy the held buffer ``buf`` out to the global slice ``dest``; count what it writes."""
        self._key(buf, "store")
        dest[...] = buf
        self._stores[operand] = self._stores.get(operand, 0) + dest.size

    def allocate(self, name: str, shape: Sequence[int], elem_bytes: int) -> np.ndarray:
        """Charge ``prod(shape) * elem_bytes`` bytes and return a zeroed float64 buffer.

        Raises :class:`InvalidRangeError` unless ``elem_bytes`` is 4 or 8,
        :class:`ShapeError` for a negative extent and
        :class:`CapacityError` when the request does not fit; in all three
        cases the arena is left as it was.
        """
        elem_bytes = _checked_elem_bytes(elem_bytes)
        try:
            array = np.zeros(shape)  # float64, numpy's default
        except ValueError as exc:
            raise ShapeError(f"invalid shape {tuple(shape)} for '{name}': {exc}") from exc
        except MemoryError:
            # Too large for the host, so far larger than any scratchpad.
            raise self._overflow(name, math.prod(shape) * elem_bytes) from None
        nbytes = array.size * elem_bytes
        live = self.live_bytes + nbytes
        if live > self.capacity_bytes:
            raise self._overflow(name, nbytes)
        self.live_bytes = live
        if live > self._call_peak:
            self._call_peak = live
        self._held[id(array)] = (array, nbytes)
        return array

    def _overflow(self, name: str, nbytes: int) -> CapacityError:
        return CapacityError(
            f"scratchpad overflow allocating '{name}': {nbytes} bytes requested, "
            f"{self.capacity_bytes - self.live_bytes} of {self.capacity_bytes} available"
        )

    def free(self, buf: np.ndarray) -> None:
        """Release the held buffer ``buf`` and its bytes."""
        self.live_bytes -= self._held.pop(self._key(buf, "free"))[1]

    def _key(self, buf: np.ndarray, action: str) -> int:
        """The held-map key of ``buf``.

        Raises :class:`FlashwinError`, changing nothing, for a buffer the
        arena does not hold: one already freed, one a failed call allocated,
        a view of a buffer and a buffer of another arena.
        """
        key = id(buf)
        if key not in self._held:
            raise FlashwinError(f"cannot {action} a buffer the arena does not hold")
        return key


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
