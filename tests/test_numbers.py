"""Every numeric parameter of the public API against the same hostile values.

Each parameter has one kind: an integer (with an optional lower bound), a real (finite,
optionally > 0) or a tensor extent (an integer >= 1). A value is either refused with its
kind's documented error class, or it runs exactly as the Python number it names: the call's
observed result, compared by ``repr``, equals that of the call with the Python number, so a
numpy number stored or returned where a Python one belongs shows as a difference. A bare
``TypeError`` or ``AttributeError``, or a bool or a whole float run as the integer it
equals, fails.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest

from flashwin import (
    AttnParams,
    DenseTensor,
    FlashwinError,
    InvalidRangeError,
    Rng,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    WindowConfig,
    fill_uniform,
    finite_diff_grad,
    max_abs_diff,
    peak_sram_backward,
    peak_sram_forward,
)
from flashwin.harness import run_bench, run_check_suite, run_demo, run_traffic

HOSTILE = [
    True, False, "1", None, 2.5, 2.0, math.nan, math.inf, -math.inf, -1, 0, Fraction(1, 2),
    np.int64(2), np.uint8(3), np.int64(-1), np.float64(2.5), np.float32(0.5), np.bool_(True),
]


@dataclass(frozen=True)
class Kind:
    """A parameter's rule: ``integer`` (>= ``bound`` unless None), ``real`` (> 0 if
    ``bound``) or ``extent`` (an integer >= ``bound``, refused with ShapeError)."""

    rule: str
    bound: object = None

    @property
    def error(self) -> type:
        return ShapeError if self.rule == "extent" else InvalidRangeError

    def named(self, value):
        """The Python number ``value`` names under this rule, or None if the rule refuses it."""
        if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
            return None
        if self.rule == "real":
            if not math.isfinite(value) or (self.bound and value <= 0):
                return None
            return float(value)
        if not isinstance(value, (int, np.integer)):
            return None
        return None if self.bound is not None and value < self.bound else int(value)


INTEGER, EXTENT = Kind("integer"), Kind("extent", 1)
REAL, POSITIVE = Kind("real"), Kind("real", True)


@dataclass(frozen=True)
class Param:
    name: str
    kind: Kind
    base: int  # a valid value; it joins the table as itself, a float and two numpy numbers
    call: Callable  # value -> something whose repr shows every number the call kept or returned


def _grad(h):
    x = DenseTensor((3,), [0.5, -1.0, 2.0])
    return finite_diff_grad(lambda t: (t.array**2).sum(axis=1), x, h).array.tobytes()


def _allocate(shape, elem_bytes):
    arena = ScratchpadArena(1024)
    buf = arena.allocate("x", shape, elem_bytes)
    return buf.shape, arena.live_bytes


def _kernel_call(need):
    arena = ScratchpadArena(64)
    with arena.kernel_call("forward", need) as report:
        arena.allocate("x", (2,), 4)
    return report(), arena.live_bytes


def _fill(shape, lo, hi):
    rng = Rng(1)
    t = fill_uniform(rng, shape, lo, hi)
    return t.shape, t.array.tobytes(), rng._state


def _check(seed=1, L=2, C=2, r=1, capacity_bytes=4096, elem_bytes=4):
    return run_check_suite(seed, [L], [C], [r], capacity_bytes=capacity_bytes,
                           elem_bytes=elem_bytes)


def _bench(batch=1, heads=1, L=2, C=2, r=1, repeats=3, capacity_bytes=4096, elem_bytes=4):
    rows, failed = run_bench([batch], heads, L, [C], r, "fwd_bwd", repeats, capacity_bytes,
                             elem_bytes)
    return [replace(row, elapsed_ns=0) for row in rows], failed  # the one timed field


def _demo(H=4, W=4, C=2, k=2, seed=1, capacity_bytes=4096, elem_bytes=4):
    return run_demo(H, W, C, k, seed, capacity_bytes, elem_bytes)


def _traffic(L=2, C=2, r=1, elem_bytes=4, capacity_bytes=4096):
    return run_traffic(L, C, r, elem_bytes, capacity_bytes)


CHUNKS, CAPACITY, ELEM = Kind("integer", 1), Kind("integer", 0), INTEGER
TABLE = [
    Param("Rng.seed", INTEGER, 7, lambda v: (Rng(v)._state, Rng(v).next_u64())),
    Param("TileConfig.r", CHUNKS, 1, lambda v: TileConfig(r=v)),
    Param("TileConfig.scale", POSITIVE, 1, lambda v: TileConfig(r=1, scale=v)),
    Param("TileConfig.elem_bytes", ELEM, 4, lambda v: TileConfig(r=1, elem_bytes=v)),
    Param("TileConfig.chunk_spans.C", EXTENT, 5, lambda v: TileConfig(r=2).chunk_spans(v)),
    Param("AttnParams.scale", POSITIVE, 1, lambda v: AttnParams(scale=v)),
    Param("WindowConfig.H", EXTENT, 4, lambda v: WindowConfig(v, 4, 1, 2)),
    Param("WindowConfig.W", EXTENT, 4, lambda v: WindowConfig(4, v, 1, 2)),
    Param("WindowConfig.C", EXTENT, 1, lambda v: WindowConfig(4, 4, v, 2)),
    Param("WindowConfig.k", EXTENT, 2, lambda v: WindowConfig(4, 4, 1, v)),
    Param("ScratchpadArena.capacity_bytes", CAPACITY, 64,
          lambda v: ScratchpadArena(v).capacity_bytes),
    Param("allocate.shape", Kind("extent", 0), 2, lambda v: _allocate((v, 3), 4)),
    Param("allocate.elem_bytes", ELEM, 4, lambda v: _allocate((2, 3), v)),
    Param("kernel_call.need", CAPACITY, 64, _kernel_call),
    Param("fill_uniform.shape", EXTENT, 2, lambda v: _fill([v, 2], -1.0, 1.0)),
    Param("fill_uniform.lo", REAL, -4, lambda v: _fill([3], v, 10.0)),
    Param("fill_uniform.hi", REAL, 4, lambda v: _fill([3], -10.0, v)),
    Param("finite_diff_grad.h", POSITIVE, 1, _grad),
    Param("peak_sram_forward.L", EXTENT, 8, lambda v: peak_sram_forward(v, 4, TileConfig(2))),
    Param("peak_sram_forward.C", EXTENT, 4, lambda v: peak_sram_forward(8, v, TileConfig(1))),
    Param("peak_sram_backward.L", EXTENT, 8, lambda v: peak_sram_backward(v, 4, TileConfig(2))),
    Param("peak_sram_backward.C", EXTENT, 4, lambda v: peak_sram_backward(8, v, TileConfig(1))),
    Param("run_check_suite.seed", INTEGER, 1, lambda v: _check(seed=v)),
    Param("run_check_suite.Ls", EXTENT, 2, lambda v: _check(L=v)),
    Param("run_check_suite.Cs", EXTENT, 2, lambda v: _check(C=v)),
    Param("run_check_suite.r_values", CHUNKS, 1, lambda v: _check(r=v)),
    Param("run_check_suite.capacity_bytes", CAPACITY, 64, lambda v: _check(capacity_bytes=v)),
    Param("run_check_suite.elem_bytes", ELEM, 8, lambda v: _check(elem_bytes=v)),
    Param("run_traffic.L", EXTENT, 2, lambda v: _traffic(L=v)),
    Param("run_traffic.C", EXTENT, 2, lambda v: _traffic(C=v)),
    Param("run_traffic.r_value", CHUNKS, 1, lambda v: _traffic(r=v)),
    Param("run_traffic.elem_bytes", ELEM, 8, lambda v: _traffic(elem_bytes=v)),
    Param("run_traffic.capacity_bytes", CAPACITY, 64, lambda v: _traffic(capacity_bytes=v)),
    Param("run_bench.batches", EXTENT, 1, lambda v: _bench(batch=v)),
    Param("run_bench.heads", EXTENT, 1, lambda v: _bench(heads=v)),
    Param("run_bench.L", EXTENT, 2, lambda v: _bench(L=v)),
    Param("run_bench.Cs", EXTENT, 2, lambda v: _bench(C=v)),
    Param("run_bench.r_value", CHUNKS, 1, lambda v: _bench(r=v)),
    Param("run_bench.repeats", Kind("integer", 3), 3, lambda v: _bench(repeats=v)),
    Param("run_bench.capacity_bytes", CAPACITY, 64, lambda v: _bench(capacity_bytes=v)),
    Param("run_bench.elem_bytes", ELEM, 8, lambda v: _bench(elem_bytes=v)),
    Param("run_demo.H", EXTENT, 4, lambda v: _demo(H=v)),
    Param("run_demo.W", EXTENT, 4, lambda v: _demo(W=v)),
    Param("run_demo.C", EXTENT, 2, lambda v: _demo(C=v)),
    Param("run_demo.k", EXTENT, 2, lambda v: _demo(k=v)),
    Param("run_demo.seed", INTEGER, 3, lambda v: _demo(seed=v)),
    Param("run_demo.capacity_bytes", CAPACITY, 4096, lambda v: _demo(capacity_bytes=v)),
    Param("run_demo.elem_bytes", ELEM, 8, lambda v: _demo(elem_bytes=v)),
]


def _outcome(call, value) -> str:
    """The repr of what ``call(value)`` returns, or the class and message of the
    FlashwinError it raises; any other exception propagates and fails the test."""
    try:
        return repr(call(value))
    except FlashwinError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("param", TABLE, ids=[p.name for p in TABLE])
def test_each_value_is_refused_by_its_rule_or_runs_as_the_python_number_it_names(param):
    base = param.base
    wrong = []
    for value in [base, float(base), np.int64(base), np.float64(base), *HOSTILE]:
        named = param.kind.named(value)
        if named is None:
            try:
                param.call(value)
            except param.kind.error:
                continue
            except FlashwinError as exc:
                wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
                continue
            wrong.append(f"{value!r}: accepted")
        else:
            got, want = _outcome(param.call, value), _outcome(param.call, named)
            if got != want:
                wrong.append(f"{value!r}: {got} != {want}")
    assert wrong == [], f"{param.name} ({param.kind.rule}): " + "; ".join(wrong)


def test_the_base_value_of_each_parameter_runs():
    # Else an accepted value could pass by raising the same error as its Python number.
    for param in TABLE:
        param.call(param.base)


@pytest.mark.parametrize(
    "call",
    [AttnParams, lambda v: fill_uniform(Rng(1), [2], -v, 1.0), _grad,
     lambda v: fill_uniform(Rng(1), [2], 0.0, v)],
    ids=["scale", "lo", "h", "hi"],
)
def test_a_real_beyond_the_float_range_is_refused_not_overflowed(call):
    with pytest.raises(InvalidRangeError, match="must be a finite number"):
        call(10**400)


@pytest.mark.parametrize("other", ["a", None, np.zeros(2), [0.0, 0.0]], ids=repr)
def test_max_abs_diff_of_anything_but_two_tensors_is_a_misuse(other):
    x = DenseTensor((2,), [0.0, 1.0])
    for a, b in ((x, other), (other, x)):
        with pytest.raises(FlashwinError, match="^max_abs_diff needs DenseTensors, got "):
            max_abs_diff(a, b)
