"""Every parameter of the public API, and of the harness's runs, against values of the wrong kind.

Each function and class of ``flashwin.__all__``, each method of those classes that takes
parameters, the harness's ``run_*`` and ``resolve_r`` get ``None``, ``5`` and ``"ab"`` in
place of one parameter at a time, the others valid. A value the call accepts may run; one it
refuses must be refused with a :class:`FlashwinError`, never a bare ``TypeError`` or
``AttributeError`` from inside the call. Left out, each for its reason in ``NOT_SWEPT``: the
parameters that take a callable or any array numpy converts, the data records, the arena's
kernel-facing transfers and the exception types.
"""

import inspect

import numpy as np
import pytest

import flashwin
from flashwin import (
    AttnParams,
    DenseTensor,
    FlashwinError,
    Rng,
    ScratchpadArena,
    TileConfig,
    TrafficReport,
    WindowConfig,
    harness,
)

X = flashwin.zeros((4, 2))
P = flashwin.zeros((4, 4))
S4 = flashwin.zeros((1, 1, 4, 2))
IMAGE = flashwin.zeros((4, 4, 2))
WIN = WindowConfig(H=4, W=4, C=2, k=2)
CTX = flashwin.flash_forward(X, X, X, TileConfig(1), ScratchpadArena())[1]


def _kernel_call(kind, need):
    with ScratchpadArena().kernel_call(kind, need):
        pass


# Per callable: its name, the callable whose signature it sweeps, the call, and a valid value
# of each parameter it sweeps, by name.
SWEPT = [
    ("AttnParams", AttnParams, AttnParams, {"scale": 0.5}),
    ("DenseTensor", DenseTensor, lambda shape: DenseTensor(shape, np.zeros(2)), {"shape": (2,)}),
    ("Rng", Rng, Rng, {"seed": 1}),
    ("ScratchpadArena", ScratchpadArena, ScratchpadArena, {"capacity_bytes": 64}),
    ("ScratchpadArena.allocate", ScratchpadArena.allocate,
     lambda name, shape, elem_bytes: ScratchpadArena().allocate(name, shape, elem_bytes),
     {"name": "x", "shape": (2,), "elem_bytes": 4}),
    ("ScratchpadArena.kernel_call", ScratchpadArena.kernel_call, _kernel_call,
     {"kind": "forward", "need": 8}),
    ("TileConfig", TileConfig, TileConfig, {"r": 1, "scale": 1.0, "elem_bytes": 4}),
    ("TileConfig.chunk_spans", TileConfig.chunk_spans,
     lambda C: TileConfig(1).chunk_spans(C), {"C": 4}),
    ("WindowConfig", WindowConfig, WindowConfig, {"H": 4, "W": 4, "C": 2, "k": 2}),
    ("batched_flash_forward", flashwin.batched_flash_forward, flashwin.batched_flash_forward,
     {"q": S4, "k": S4, "v": S4, "cfg": TileConfig(1), "arenas": [ScratchpadArena()]}),
    ("fill_uniform", flashwin.fill_uniform, flashwin.fill_uniform,
     {"rng": Rng(1), "shape": (2,), "lo": 0.0, "hi": 1.0}),
    ("finite_diff_grad", flashwin.finite_diff_grad,
     lambda x, h: flashwin.finite_diff_grad(lambda t: t.array.sum(axis=1), x, h),
     {"x": flashwin.zeros((2,)), "h": 1e-5}),
    ("flash_backward", flashwin.flash_backward, flashwin.flash_backward,
     {"ctx": CTX, "dO": X, "arena": ScratchpadArena()}),
    ("flash_forward", flashwin.flash_forward, flashwin.flash_forward,
     {"q": X, "k": X, "v": X, "cfg": TileConfig(1), "arena": ScratchpadArena()}),
    ("matmul", flashwin.matmul, flashwin.matmul, {"a": X, "b": flashwin.zeros((2, 3))}),
    ("max_abs_diff", flashwin.max_abs_diff, flashwin.max_abs_diff, {"a": X, "b": X}),
    ("merge_reports", flashwin.merge_reports, flashwin.merge_reports,
     {"reports": [TrafficReport()]}),
    ("naive_backward", flashwin.naive_backward, flashwin.naive_backward,
     {"q": X, "k": X, "v": X, "P": P, "dO": X, "params": AttnParams()}),
    ("naive_forward", flashwin.naive_forward, flashwin.naive_forward,
     {"q": X, "k": X, "v": X, "params": AttnParams()}),
    ("peak_sram_backward", flashwin.peak_sram_backward, flashwin.peak_sram_backward,
     {"L": 4, "C": 4, "cfg": TileConfig(1)}),
    ("peak_sram_forward", flashwin.peak_sram_forward, flashwin.peak_sram_forward,
     {"L": 4, "C": 4, "cfg": TileConfig(1)}),
    ("softmax_backward", flashwin.softmax_backward, flashwin.softmax_backward,
     {"P": P, "dP": P}),
    ("softmax_rows", flashwin.softmax_rows, flashwin.softmax_rows, {"S": P}),
    ("window_partition", flashwin.window_partition, flashwin.window_partition,
     {"x": IMAGE, "cfg": WIN}),
    ("window_reverse", flashwin.window_reverse, flashwin.window_reverse,
     {"y": IMAGE, "cfg": WIN}),
    ("zeros", flashwin.zeros, flashwin.zeros, {"shape": (2,)}),
    ("harness.resolve_r", harness.resolve_r, harness.resolve_r, {"value": "auto", "C": 4}),
    ("harness.run_check_suite", harness.run_check_suite, harness.run_check_suite,
     {"seed": 1, "Ls": [4], "Cs": [4], "r_values": [1], "capacity_bytes": 4096,
      "elem_bytes": 4}),
    ("harness.run_traffic", harness.run_traffic, harness.run_traffic,
     {"L": 4, "C": 4, "r_value": 1, "elem_bytes": 4, "capacity_bytes": 4096}),
    ("harness.run_bench", harness.run_bench, harness.run_bench,
     {"batches": [1], "heads": 1, "L": 4, "Cs": [4], "r_value": 1, "pass_": "fwd",
      "repeats": 3, "capacity_bytes": 4096, "elem_bytes": 4}),
    ("harness.run_demo", harness.run_demo, harness.run_demo,
     {"H": 4, "W": 4, "C": 2, "k": 2, "seed": 1, "capacity_bytes": 4096, "elem_bytes": 4}),
]
# What the sweep leaves out, by name (a public name, or one parameter of a swept callable).
NOT_SWEPT = {
    "DenseTensor.data": "any array numpy converts",
    "finite_diff_grad.f": "a callable",
    "FlashContext": "a data record",
    "TrafficReport": "a data record",
    "ScratchpadArena.load": "kernel-facing: takes numpy arrays",
    "ScratchpadArena.store": "kernel-facing: takes numpy arrays",
    "ScratchpadArena.free": "kernel-facing: takes numpy arrays",
    **{name: "an exception type" for name in flashwin.__all__ if name.endswith("Error")},
    "DEFAULT_CAPACITY_BYTES": "a constant",
}
BAD = [None, 5, "ab"]
CASES = [(row, name, bad) for row in SWEPT for name in row[3] for bad in BAD]


@pytest.mark.parametrize(
    "row, name, bad", CASES, ids=[f"{row[0]}.{name}-{bad!r}" for row, name, bad in CASES]
)
def test_a_value_of_the_wrong_kind_is_accepted_or_refused_as_a_flashwin_error(row, name, bad):
    _, _, call, valid = row
    try:
        call(**{**valid, name: bad})
    except FlashwinError:
        pass


@pytest.mark.parametrize("row", SWEPT, ids=[row[0] for row in SWEPT])
def test_the_valid_values_of_each_row_run(row):
    # Else a row could pass by refusing its valid values too.
    _, _, call, valid = row
    call(**valid)


@pytest.mark.parametrize("row", SWEPT, ids=[row[0] for row in SWEPT])
def test_each_row_sweeps_every_parameter_it_does_not_leave_out(row):
    label, target, _, valid = row
    params = [p for p in inspect.signature(target).parameters if p != "self"]
    owner = label.removeprefix("harness.")
    assert [p for p in params if f"{owner}.{p}" not in NOT_SWEPT] == list(valid)


def test_every_public_name_with_parameters_is_swept_or_left_out():
    swept = {row[0] for row in SWEPT}
    for name in flashwin.__all__:
        assert name in swept or name in NOT_SWEPT, name
    for cls in (AttnParams, DenseTensor, Rng, ScratchpadArena, TileConfig, WindowConfig):
        for attr, member in vars(cls).items():
            if attr.startswith("_") or not callable(member):
                continue
            params = [p for p in inspect.signature(member).parameters if p != "self"]
            label = f"{cls.__name__}.{attr}"
            assert not params or label in swept or label in NOT_SWEPT, label
