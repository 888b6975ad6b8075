"""Every tensor parameter of the public API against operands that are not tensors.

A numpy array, a string and None in place of each DenseTensor parameter are refused with one
:class:`FlashwinError` that names the function and the parameter, never a bare
``AttributeError`` or ``TypeError`` from inside the call. The other operands are valid, so
the refusal is the operand rule's and not a shape check's.
"""

import numpy as np
import pytest

from flashwin import (
    FlashwinError,
    ScratchpadArena,
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

X = zeros([4, 2])
P = zeros([4, 4])
_WIN = WindowConfig(H=4, W=4, C=2, k=2)


def _backward(dO):
    _, ctx, _ = flash_forward(X, X, X, TileConfig(1), ScratchpadArena())
    return flash_backward(ctx, dO, ScratchpadArena())


def _grad(x):
    return finite_diff_grad(lambda t: t.array.reshape(t.shape[0], -1).sum(axis=1), x)


S4 = zeros([1, 1, 4, 2])
# Per function: its name, the call on its tensor operands (positional), and those
# operands by name, each with a valid value.
TABLE = [
    ("matmul", matmul, [("a", X), ("b", zeros([2, 3]))]),
    ("max_abs_diff", max_abs_diff, [("a", X), ("b", X)]),
    ("softmax_rows", softmax_rows, [("S", P)]),
    ("softmax_backward", softmax_backward, [("P", P), ("dP", P)]),
    ("naive_forward", naive_forward, [("q", X), ("k", X), ("v", X)]),
    ("naive_backward", naive_backward, [("q", X), ("k", X), ("v", X), ("P", P), ("dO", X)]),
    ("finite_diff_grad", _grad, [("x", X)]),
    ("flash_forward", lambda q, k, v: flash_forward(q, k, v, TileConfig(1), ScratchpadArena()),
     [("q", X), ("k", X), ("v", X)]),
    ("flash_backward", _backward, [("dO", X)]),
    ("batched_flash_forward",
     lambda q, k, v: batched_flash_forward(q, k, v, TileConfig(1), [ScratchpadArena()]),
     [("q", S4), ("k", S4), ("v", S4)]),
    ("window_partition", lambda x: window_partition(x, _WIN), [("x", zeros([4, 4, 2]))]),
    ("window_reverse", lambda y: window_reverse(y, _WIN), [("y", zeros([4, 4, 2]))]),
]
BAD = [np.zeros((4, 2)), "a", None]
CASES = [(row, i, bad) for row in TABLE for i in range(len(row[2])) for bad in BAD]


@pytest.mark.parametrize(
    "row, i, bad",
    CASES,
    ids=[f"{row[0]}.{row[2][i][0]}-{type(bad).__name__}" for row, i, bad in CASES],
)
def test_an_operand_that_is_not_a_tensor_is_refused_by_name(row, i, bad):
    fn_name, call, operands = row
    args = [bad if j == i else valid for j, (_, valid) in enumerate(operands)]
    msg = f"^{fn_name} needs DenseTensors, got {type(bad).__name__} for {operands[i][0]}$"
    with pytest.raises(FlashwinError, match=msg):
        call(*args)


@pytest.mark.parametrize("row", TABLE, ids=[row[0] for row in TABLE])
def test_the_valid_operands_of_each_row_run(row):
    # Else a row could pass by refusing its valid operands too.
    _, call, operands = row
    call(*(valid for _, valid in operands))
