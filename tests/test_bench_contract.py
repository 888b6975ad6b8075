"""The names the benchmark under ``flashbench/`` looks up in the package.

The benchmark instruments flashwin from outside: ``flashbench/spans.py``
wraps the functions named in its ``TRACED`` table and swaps the module
global ``harness.ScratchpadArena`` for a traced subclass, and
``flashbench/workloads.py`` calls the package through ``fw.<name>`` and
``harness.<name>``. Its own tests are not part of this suite, so these
checks keep a rename or a storage change in the package from breaking the
benchmark silently.
The benchmark files are only read here.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import flashwin as fw
from flashwin import harness

BENCH = Path(__file__).resolve().parent.parent / "flashbench"

# What flashbench/workloads.py and flashbench/spans.py read from the harness.
HARNESS_GLOBALS = (
    "ScratchpadArena",
    "ORACLE_TOL",
    "expected_forward_traffic",
    "expected_backward_traffic",
    "resolve_r",
    "run_check_suite",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("_flashbench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave flashbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves_in_its_module():
    traced = _load_spans().TRACED
    assert set(traced) <= {"tensor", "windowing", "reference", "memory", "flash", "harness"}
    for layer, names in traced.items():
        module = sys.modules[f"flashwin.{layer}"]
        for name in names:
            assert callable(vars(module).get(name)), f"flashwin.{layer}.{name}"


def test_package_names_used_by_the_workloads_exist():
    used = set()
    for script in ("workloads.py", "run.py"):
        used |= set(re.findall(r"\bfw\.(\w+)", (BENCH / script).read_text(encoding="utf-8")))
    assert "batched_flash_forward" in used  # the pattern still finds the calls
    assert [name for name in sorted(used) if not hasattr(fw, name)] == []


def test_harness_keeps_the_globals_the_benchmark_reads():
    assert [name for name in HARNESS_GLOBALS if name not in vars(harness)] == []


def test_the_head_split_constructor_copies_a_view_into_a_read_only_array():
    # workloads._to_slices wraps a transposed (windows, heads, L, C) view.
    windows = np.arange(2 * 8 * 3 * 4, dtype=np.float64).reshape(2, 8, 3 * 4)
    heads = windows.reshape(2, 8, 3, 4).transpose(0, 2, 1, 3)
    assert not heads.flags.c_contiguous
    got = fw.DenseTensor(heads.shape, heads).array
    assert got.flags.c_contiguous and not got.flags.writeable
    assert np.array_equal(got, heads)
    assert not np.shares_memory(got, heads)


@pytest.mark.parametrize("L, C, r", [(64, 256, 16), (49, 32, 2)])
def test_an_arena_subclass_sees_every_kernel_buffer(L, C, r):
    # The benchmark's memory.allocs comes from an allocate override: 65 per
    # wide_fwd slice, 29 per swin_train slice. Chunk loads must reach it.
    class Counted(fw.ScratchpadArena):
        allocs = 0

        def allocate(self, name, shape, elem_bytes):
            self.allocs += 1
            return super().allocate(name, shape, elem_bytes)

    rng = fw.Rng(3)
    q, k, v, do = (fw.fill_uniform(rng, (L, C), -1.0, 1.0) for _ in range(4))
    arena = Counted()
    _, ctx, _ = fw.flash_forward(q, k, v, fw.TileConfig(r=r), arena)
    forward = arena.allocs
    fw.flash_backward(ctx, do, arena)
    assert (forward, arena.allocs - forward) == (1 + 4 * r, 2 + 9 * r)


def test_check_suite_builds_every_kernel_arena_through_the_module_global(monkeypatch):
    made, runs = [], []

    class Counted(harness.ScratchpadArena):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def counted_tiled(*args, _real=harness._tiled):
        runs.append(args)
        return _real(*args)

    monkeypatch.setattr(harness, "ScratchpadArena", Counted)
    monkeypatch.setattr(harness, "_tiled", counted_tiled)
    results = harness.run_check_suite(seed=1, Ls=[8, 1024], Cs=[16], r_values=[1, 2])
    kernel_cases = [r for r in results if r.case_id.startswith(("fwd_", "bwd_", "capacity_"))]
    assert any(r.case_id.startswith("capacity_") for r in kernel_cases)
    # L=8: one forward and backward run per r; L=1024: one refused forward run per r.
    assert len(runs) == 4 and len(kernel_cases) == 6
    assert len(made) == len(runs)
    assert all(a.live_bytes == 0 for a in made)
