"""In-memory span tracer that instruments flashwin from outside the package.

The tracer wraps the public functions of each layer (module) of
``flashwin`` for the duration of a ``with instrument(tracer):`` block, and
restores them afterwards; nothing under ``src/`` is edited. A span is
recorded at each wrapped call with its name, start, end, parent span and
batch (iteration) id. Spans stay in memory until the run ends, when
:func:`write_csv` writes them out and :func:`per_batch` turns them
into per-layer numbers.

The memory layer is instrumented through :func:`arena_class`, a
``ScratchpadArena`` subclass that the benchmark passes to the kernels
(and puts in place of the name ``harness.ScratchpadArena``, so the check
suite's arenas are instrumented too). ``DenseTensor.__init__`` is counted
rather than spanned: it is the cheapest and most frequent call (tens of
thousands per check pass), and a span per call would dominate what it
measures. Frees are neither: their time stays in the kernel's self time.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Sequence

from flashwin import harness
from flashwin.memory import ScratchpadArena
from flashwin.tensor import DenseTensor

LAYERS = ("tensor", "windowing", "reference", "memory", "flash", "harness")

# Public functions wrapped per layer; each is replaced in every flashwin
# module that holds a reference to it, so calls between modules are seen.
TRACED = {
    "tensor": ("fill_uniform", "matmul", "max_abs_diff", "zeros"),
    "windowing": ("window_partition", "window_reverse"),
    "reference": (
        "naive_forward",
        "naive_backward",
        "softmax_rows",
        "softmax_backward",
        "finite_diff_grad",
    ),
    "flash": (
        "batched_flash_forward",
        "flash_forward",
        "flash_backward",
        "peak_sram_forward",
        "peak_sram_backward",
    ),
    "harness": (
        "run_check_suite",
        "resolve_r",
        "expected_forward_traffic",
        "expected_backward_traffic",
    ),
}

# Inclusive-time metrics: a span adds its duration unless an ancestor
# already counted toward the same metric (batched_flash_forward contains
# the flash_forward calls it makes).
INCLUSIVE = {
    "flash.batched_flash_forward": "flash.fwd_ms",
    "flash.flash_forward": "flash.fwd_ms",
    "flash.flash_backward": "flash.bwd_ms",
    "reference.naive_forward": "reference.fwd_ms",
    "reference.naive_backward": "reference.bwd_ms",
    "reference.finite_diff_grad": "reference.fd_ms",
    "windowing.window_partition": "windowing.partition_ms",
    "windowing.window_reverse": "windowing.reverse_ms",
    "memory.allocate": "memory.alloc_ms",
    "tensor.fill_uniform": "tensor.fill_uniform_ms",
}

CALLS = {
    "flash.flash_forward": "flash.calls",
    "flash.flash_backward": "flash.calls",
    "reference.naive_forward": "reference.naive_forward_calls",
    "reference.finite_diff_grad": "reference.fd_calls",
    "memory.allocate": "memory.allocs",
}

# Matmul flops of one kernel call on an L x C slice, from the kernels'
# schedules: forward QK^T and PV; backward recompute QK^T, dO V^T, P^T dO,
# dS K and dS^T Q.
FWD_FLOPS_PER_L2C = 4
BWD_FLOPS_PER_L2C = 10

_FIELDS = 5  # name id, start ns, end ns, parent index, batch id


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int  # index of the parent span in the same list, -1 for a root
    batch: int


class Tracer:
    """Collects spans and per-batch counters for one traced run."""

    def __init__(self) -> None:
        self.batch = -1
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._data = array("q")
        self._stack: list[int] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.arenas: list[ScratchpadArena] = []

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self._data) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self._data.extend((nid, time.perf_counter_ns(), 0, parent, self.batch))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._data[idx * _FIELDS + 2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, key: str, n: float = 1) -> None:
        self.counts[self.batch][key] += n

    def peak(self, key: str, value: float) -> None:
        row = self.counts[self.batch]
        row[key] = max(row[key], value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(*args, result=result, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> list[Span]:
        d, names = self._data, self._names
        return [
            Span(names[d[i]], d[i + 1], d[i + 2], d[i + 3], d[i + 4])
            for i in range(0, len(d), _FIELDS)
        ]

    def _record_forward(self, q, k, v, cfg, arena, *, result) -> None:
        L, C = q.shape
        self._record_report(result[-1], cfg.elem_bytes, FWD_FLOPS_PER_L2C * L * L * C)
        self.peak("flash.peak_sram_bytes", result[-1].peak_sram_bytes)

    def _record_backward(self, ctx, dO, arena, *, result) -> None:
        L, C = ctx.q.shape
        self._record_report(result[-1], ctx.cfg.elem_bytes, BWD_FLOPS_PER_L2C * L * L * C)
        self.peak("flash.peak_sram_bwd_bytes", result[-1].peak_sram_bytes)

    def _record_report(self, report, elem_bytes: int, flops: int) -> None:
        self.add("flash.global_elements", report.total_elements())
        self.add("flash.global_bytes", report.total_elements() * elem_bytes)
        self.add("flash.flops", flops)


def write_csv(spans: Sequence[Span], path) -> None:
    """Write every span as one CSV row."""
    with open(path, "w", newline="", encoding="utf-8") as out:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["span", "name", "start_ns", "end_ns", "parent", "batch"])
        for i, s in enumerate(spans):
            w.writerow([i, s.name, s.start, s.end, s.parent, s.batch])


def arena_class(tracer: Tracer) -> type[ScratchpadArena]:
    """A ScratchpadArena whose allocations are spans and whose instances are tracked."""

    class TracedArena(ScratchpadArena):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.arenas.append(self)

        def allocate(self, name, shape, elem_bytes):
            idx = tracer.begin("memory.allocate")
            try:
                return super().allocate(name, shape, elem_bytes)
            finally:
                tracer.end(idx)

    return TracedArena


@contextmanager
def instrument(tracer: Tracer) -> Iterator[type[ScratchpadArena]]:
    """Wrap the traced functions in every loaded flashwin module; yields the arena class."""
    modules = [m for n, m in sys.modules.items() if n == "flashwin" or n.startswith("flashwin.")]
    hooks = {
        "flash.flash_forward": tracer._record_forward,
        "flash.flash_backward": tracer._record_backward,
    }
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    arena_cls = arena_class(tracer)
    try:
        for layer, names in TRACED.items():
            home = sys.modules[f"flashwin.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = tracer.wrap(f"{layer}.{fname}", orig, hooks.get(f"{layer}.{fname}"))
                for m in modules:
                    if vars(m).get(fname) is orig:
                        replace(m, fname, wrapped)
        orig_init = DenseTensor.__init__

        def counted_init(self, *args, **kwargs):
            tracer.add("tensor.dense_tensor_inits")
            orig_init(self, *args, **kwargs)

        replace(DenseTensor, "__init__", counted_init)
        replace(harness, "ScratchpadArena", arena_cls)
        yield arena_cls
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def covered_ns(parent: Span, children: Sequence[Span]) -> int:
    """Length of the part of ``parent``'s interval that the children cover."""
    total, reach = 0, parent.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, reach), min(c.end, parent.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _children(spans: Sequence[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    return children


def self_times(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = _children(spans)
    return [(s.end - s.start) - covered_ns(s, children.get(i, ())) for i, s in enumerate(spans)]


def per_batch(spans: Sequence[Span]) -> dict[int, dict[str, float]]:
    """Per-batch layer times (ms) and span-derived counts.

    Gives ``<layer>.self_ms`` for every layer, the inclusive times in
    :data:`INCLUSIVE`, the call counts in :data:`CALLS`, and
    ``trace.coverage_share``: the part of the ``bench.op`` root span that
    layer spans cover.
    """
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    children = _children(spans)
    for i, s in enumerate(spans):
        row = out[s.batch]
        layer = s.name.partition(".")[0]
        row[f"{layer}.self_ms"] += selfs[i] / 1e6
        key = INCLUSIVE.get(s.name)
        if key is not None and not _nested_in(spans, s.parent, key):
            row[key] += (s.end - s.start) / 1e6
        if s.name in CALLS:
            row[CALLS[s.name]] += 1
        if s.name == "bench.op":
            row["trace.coverage_share"] = covered_ns(s, children.get(i, ())) / max(
                1, s.end - s.start
            )
    return out


def _nested_in(spans: Sequence[Span], parent: int, key: str) -> bool:
    while parent >= 0:
        if INCLUSIVE.get(spans[parent].name) == key:
            return True
        parent = spans[parent].parent
    return False

