"""Every tensor and config parameter of the public API against operands of another class.

A numpy array, a string and None in place of each DenseTensor parameter, and a float, a
string and None in place of each config parameter (AttnParams, TileConfig, ScratchpadArena,
WindowConfig, Rng, the arena list, the report iterable), are refused with one
:class:`FlashwinError` that names the function, the class and the parameter, never a bare
``AttributeError`` or ``TypeError`` from inside the call. The other operands are valid, so
the refusal is the operand rule's and not a shape check's. A subclass of each config class
passes.
"""

import re
from collections.abc import Iterable, Sequence

import numpy as np
import pytest

from flashwin import (
    AttnParams,
    FlashwinError,
    Rng,
    ScratchpadArena,
    TileConfig,
    TrafficReport,
    WindowConfig,
    batched_flash_forward,
    fill_uniform,
    finite_diff_grad,
    flash_backward,
    flash_forward,
    matmul,
    max_abs_diff,
    merge_reports,
    naive_backward,
    naive_forward,
    peak_sram_backward,
    peak_sram_forward,
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


def _flash_backward(arena):
    _, ctx, _ = flash_forward(X, X, X, TileConfig(1), ScratchpadArena())
    return flash_backward(ctx, X, arena)


def _batched(cfg=TileConfig(1), arenas=(ScratchpadArena(),)):
    return batched_flash_forward(S4, S4, S4, cfg, arenas)


BAD_CONFIGS = [2.0, "x", None]
# Per config parameter: its function, the call on it, its name, the class it must be and a
# maker of a valid value of a given subclass of it, and its wrong values.
CONFIGS = [
    ("naive_forward", lambda p: naive_forward(X, X, X, p), "params", AttnParams,
     lambda cls: cls(scale=0.5), BAD_CONFIGS),
    ("naive_backward", lambda p: naive_backward(X, X, X, P, X, p), "params", AttnParams,
     lambda cls: cls(scale=0.5), BAD_CONFIGS),
    ("flash_forward", lambda c: flash_forward(X, X, X, c, ScratchpadArena()), "cfg", TileConfig,
     lambda cls: cls(1), BAD_CONFIGS),
    ("flash_forward", lambda a: flash_forward(X, X, X, TileConfig(1), a), "arena",
     ScratchpadArena, lambda cls: cls(), BAD_CONFIGS),
    ("flash_backward", _flash_backward, "arena", ScratchpadArena, lambda cls: cls(), BAD_CONFIGS),
    ("batched_flash_forward", lambda c: _batched(cfg=c), "cfg", TileConfig, lambda cls: cls(1),
     BAD_CONFIGS),
    # The arena list, then its one item: a string is a sequence of one.
    ("batched_flash_forward", lambda a: _batched(arenas=a), "arenas", Sequence,
     lambda cls: cls([ScratchpadArena()]), [2.0, {}, None]),
    ("batched_flash_forward", lambda a: _batched(arenas=[a]), "arenas", ScratchpadArena,
     lambda cls: cls(), BAD_CONFIGS),
    ("window_partition", lambda c: window_partition(zeros([4, 4, 2]), c), "cfg", WindowConfig,
     lambda cls: cls(H=4, W=4, C=2, k=2), BAD_CONFIGS),
    ("window_reverse", lambda c: window_reverse(zeros([4, 4, 2]), c), "cfg", WindowConfig,
     lambda cls: cls(H=4, W=4, C=2, k=2), BAD_CONFIGS),
    ("peak_sram_forward", lambda c: peak_sram_forward(4, 4, c), "cfg", TileConfig,
     lambda cls: cls(1), BAD_CONFIGS),
    ("peak_sram_backward", lambda c: peak_sram_backward(4, 4, c), "cfg", TileConfig,
     lambda cls: cls(1), BAD_CONFIGS),
    ("fill_uniform", lambda rng: fill_uniform(rng, (2,), 0.0, 1.0), "rng", Rng,
     lambda cls: cls(1), BAD_CONFIGS),
    # The report iterable (a string is an iterable of strings), then each report by its
    # index, in a list and in a one-pass iterator.
    ("merge_reports", merge_reports, "reports", Iterable, lambda cls: cls([TrafficReport()]),
     [2.0, 5, None]),
    ("merge_reports", lambda rep: merge_reports([rep]), "reports[0]", TrafficReport,
     lambda cls: cls(), BAD_CONFIGS),
    ("merge_reports", lambda rep: merge_reports(iter([TrafficReport(), rep])), "reports[1]",
     TrafficReport, lambda cls: cls(), BAD_CONFIGS),
]
CONFIG_CASES = [(row, bad) for row in CONFIGS for bad in row[5]]


@pytest.mark.parametrize(
    "row, bad",
    CONFIG_CASES,
    ids=[f"{row[0]}.{row[2]}:{row[3].__name__}-{type(bad).__name__}" for row, bad in CONFIG_CASES],
)
def test_a_config_of_another_class_is_refused_by_name(row, bad):
    fn_name, call, name, kind, _, _ = row
    msg = f"^{fn_name} needs {kind.__name__}s?, got {type(bad).__name__} for {re.escape(name)}$"
    with pytest.raises(FlashwinError, match=msg):
        call(bad)


@pytest.mark.parametrize(
    "row", CONFIGS, ids=[f"{row[0]}.{row[2]}:{row[3].__name__}" for row in CONFIGS]
)
def test_a_subclass_of_each_config_class_passes(row):
    # The valid value itself, then one of a subclass: the benchmark traces the kernels on
    # a ScratchpadArena subclass.
    _, call, _, kind, make, _ = row
    base = list if kind in (Sequence, Iterable) else kind
    call(make(base))
    call(make(type(f"Sub{base.__name__}", (base,), {})))


def test_merge_reports_checks_each_report_as_it_reads_a_generator_once():
    reports = [TrafficReport({"Q": 1}, {}, 8), TrafficReport({"Q": 2}, {"O": 3}, 4)]
    assert merge_reports(rep for rep in reports) == TrafficReport({"Q": 3}, {"O": 3}, 8)
