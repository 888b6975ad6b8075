"""Every operand whose shape must agree with another's, or whose axis count is fixed, against
shapes that break the rule.

Each public function that takes tensors whose shapes must agree (K and V with Q, dO with
the forward's operands, an image with its window geometry) has one rule, ``tensor._shaped``:
an operand of another shape is refused with :class:`ShapeError` in one message form, "fn
needs name of shape (4, 2), got (4, 3)", naming the first operand that differs. Each that
takes an operand of a fixed number of axes has one rule too, ``tensor._axes``: an operand
with one axis too few or one too many is refused in one form, "fn needs q with 2 axes, got
(3, 4, 5)" or "fn needs S with 2..4 axes, got (5,)". Every refusal comes before any work:
an arena keeps the bytes it held and enters no kernel call, no output is allocated, and
``finite_diff_grad`` never calls its ``f``. The checks that keep their own rule,
``matmul``'s inner extents and ``naive_forward``'s stack broadcasting, are listed in
``OWN_RULE``; a public name that takes a tensor and is in neither list fails the last test
of this file.
"""

import inspect
import re
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import flashwin
from flashwin import (
    FlashContext,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    WindowConfig,
    batched_flash_forward,
    finite_diff_grad,
    flash_backward,
    flash_forward,
    matmul,
    max_abs_diff,
    naive_backward,
    naive_forward,
    softmax_backward,
    softmax_rows,
    window_partition,
    window_reverse,
    zeros,
)

# Every swept call, had it run, would make at least 128 KiB at once (an output, or the
# first stack of finite_diff_grad), so a peak below this bound means none was made.
NO_OUTPUT_BYTES = 16 * 1024
X, S, B4 = (256, 64), (256, 256), (2, 2, 64, 64)
FD_X = (16, 16)  # finite_diff_grad's first stack of it: 64 copies, 128 KiB
STACKS = (2, 3, 4)  # the axis counts of a (..., L, C) operand
WIN = WindowConfig(H=16, W=8, C=128, k=4)  # an image (16, 8, 128), 8 windows (16, 128)


class Watched(ScratchpadArena):
    """An arena that holds 8 bytes from before the call and records every kernel call."""

    def __init__(self):
        super().__init__(1 << 22)
        self.allocate("held", (2,), 4)
        self.calls = []

    def kernel_call(self, kind, need):
        self.calls.append(kind)
        return super().kernel_call(kind, need)


@dataclass(frozen=True)
class Row:
    fn: str
    call: Callable  # (operands by name, arena) -> the call
    shapes: dict  # each operand's valid shape
    shaped: tuple  # the operands the shape rule checks, each against its valid shape
    axes: dict = field(default_factory=dict)  # the operands the axis rule checks: their counts


def _backward(t, arena):
    ctx = FlashContext(q=t["q"], k=t["k"], v=t["v"], cfg=TileConfig(2))
    return flash_backward(ctx, t["dO"], arena)


def _finite_diff(t, arena):
    """finite_diff_grad of a sum over ``t["x"]``, each call of its ``f`` recorded as "f"."""

    def f(stack):
        arena.calls.append("f")
        return stack.array.reshape(stack.shape[0], -1).sum(axis=1)

    return finite_diff_grad(f, t["x"])


SWEEP = [
    Row("max_abs_diff", lambda t, a: max_abs_diff(t["a"], t["b"]), {"a": X, "b": X}, ("b",)),
    Row("softmax_backward", lambda t, a: softmax_backward(t["P"], t["dP"]),
        {"P": S, "dP": S}, ("dP",), {"P": STACKS}),
    Row("naive_backward", lambda t, a: naive_backward(t["q"], t["k"], t["v"], t["P"], t["dO"]),
        {"q": X, "k": X, "v": X, "P": S, "dO": X}, ("k", "v", "dO", "P"), {"q": STACKS}),
    Row("flash_forward", lambda t, a: flash_forward(t["q"], t["k"], t["v"], TileConfig(2), a),
        {"q": X, "k": X, "v": X}, ("k", "v"), {"q": (2,)}),
    # FlashContext is a record: flash_backward checks the Q/K/V it holds.
    Row("flash_backward", _backward, {"q": X, "k": X, "v": X, "dO": X}, ("k", "v", "dO"),
        {"q": (2,)}),
    Row("batched_flash_forward",
        lambda t, a: batched_flash_forward(t["q"], t["k"], t["v"], TileConfig(2), [a]),
        {"q": B4, "k": B4, "v": B4}, ("k", "v"), {"q": (4,)}),
    Row("window_partition", lambda t, a: window_partition(t["x"], WIN), {"x": (16, 8, 128)},
        ("x",)),
    Row("window_reverse", lambda t, a: window_reverse(t["y"], WIN), {"y": (8, 16, 128)},
        ("y",)),
]
# The public takers of a tensor with an axis rule and no shape-agreement rule.
AXES_ONLY = [
    Row("matmul", lambda t, a: matmul(t["a"], t["b"]), {"a": X, "b": X[::-1]}, (),
        {"a": (2,), "b": (2,)}),
    Row("softmax_rows", lambda t, a: softmax_rows(t["S"]), {"S": S}, (), {"S": STACKS}),
    Row("naive_forward", lambda t, a: naive_forward(t["q"], t["k"], t["v"]),
        {"q": X, "k": X, "v": X}, (), {"q": STACKS, "k": STACKS, "v": STACKS}),
    Row("finite_diff_grad", _finite_diff, {"x": FD_X}, (), {"x": (1, 2, 3)}),
]
# The public takers of a tensor whose checks are neither rule's, each with its own.
OWN_RULE = {
    "matmul": "the inner extents agree",
    "naive_forward": "stacks that broadcast",
}
CASES = [(row, name) for row in SWEEP for name in row.shaped]
AXIS_CASES = [(row, name) for row in SWEEP + AXES_ONLY for name in row.axes]


def _mismatched(shape):
    """Shapes that differ from ``shape``: each axis one longer, one axis fewer, one more."""
    yield from (shape[:i] + (n + 1,) + shape[i + 1 :] for i, n in enumerate(shape))
    if len(shape) > 1:
        yield shape[1:]
    if len(shape) < 4:
        yield (1,) + shape


def _miscounted(shape, counts):
    """``shape`` with one axis fewer than the fewest of ``counts`` (its last axes kept), and
    with one more than the most (leading 1s added); a tensor has 1..4 axes, so a count of 0
    or 5 is left out."""
    for n in (counts[0] - 1, counts[-1] + 1):
        if 1 <= n <= 4:
            yield shape[len(shape) - n :] if n < len(shape) else (1,) * (n - len(shape)) + shape


def _refused_before_any_work(row, operands, msg):
    arena = Watched()
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=f"^{re.escape(msg)}$"):
            row.call(operands, arena)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < NO_OUTPUT_BYTES, f"{msg}: {peak} B traced"
    assert (arena.live_bytes, arena.calls) == (8, []), msg


@pytest.mark.parametrize("row, name", CASES, ids=[f"{row.fn}.{name}" for row, name in CASES])
def test_an_operand_of_another_shape_is_refused_in_one_form_before_any_work(row, name):
    want = row.shapes[name]
    for bad in _mismatched(want):
        operands = {n: zeros(list(bad if n == name else s)) for n, s in row.shapes.items()}
        _refused_before_any_work(row, operands, f"{row.fn} needs {name} of shape {want}, got {bad}")


@pytest.mark.parametrize(
    "row, name", AXIS_CASES, ids=[f"{row.fn}.{name}" for row, name in AXIS_CASES]
)
def test_an_operand_with_a_wrong_axis_count_is_refused_in_one_form_before_any_work(row, name):
    counts = row.axes[name]
    want = f"{counts[0]}" + (f"..{counts[-1]}" if len(counts) > 1 else "")
    bads = list(_miscounted(row.shapes[name], counts))
    assert bads  # every count set leaves one side to test
    for bad in bads:
        operands = {n: zeros(list(bad if n == name else s)) for n, s in row.shapes.items()}
        msg = f"{row.fn} needs {name} with {want} axes, got {bad}"
        _refused_before_any_work(row, operands, msg)


@pytest.mark.parametrize("row", SWEEP + AXES_ONLY, ids=[row.fn for row in SWEEP + AXES_ONLY])
def test_the_valid_operands_of_each_row_run(row):
    # Else a row could pass by refusing its valid operands too.
    arena = Watched()
    row.call({n: zeros(list(s)) for n, s in row.shapes.items()}, arena)
    assert arena.live_bytes == 8
    # At most one kernel call per window, or finite_diff_grad's 8 stacks of 32 elements.
    assert arena.calls in ([], ["forward"], ["backward"], ["forward"] * 4, ["f"] * 8)


@pytest.mark.parametrize("returned", [lambda v: v[:-1], lambda v: v[:, None], lambda v: v[0]])
def test_the_values_f_returns_to_finite_diff_grad_have_the_stack_shape(returned):
    x, seen = zeros([3, 2]), []

    def f(t):
        seen.append(t.shape)
        return returned(t.array.reshape(t.shape[0], -1).sum(axis=1))

    got = np.shape(returned(np.zeros(12)))
    msg = f"finite_diff_grad needs f's values of shape (12,), got {got}"
    with pytest.raises(ShapeError, match=f"^{re.escape(msg)}$"):
        finite_diff_grad(f, x)
    assert seen == [(12, 3, 2)]  # the first stack holds every +h and -h copy


def _takes_a_tensor(obj) -> bool:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # a constant, or an exception class
        return False
    return any(re.search(r"\bDenseTensor\b", str(p.annotation)) for p in params)


def test_every_public_taker_of_a_tensor_is_swept_or_keeps_its_own_rule():
    takers = {name for name in flashwin.__all__ if _takes_a_tensor(getattr(flashwin, name))}
    # FlashContext is a record: flash_backward's row checks what it holds.
    swept = {row.fn for row in SWEEP + AXES_ONLY} | {"FlashContext"}
    listed = swept | set(OWN_RULE)
    assert takers == listed
