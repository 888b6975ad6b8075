"""Tests of the benchmark itself: tracing arithmetic, the gate, seeding and the CLI contract.

Run from the repository root with ``python -m pytest flashbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import flashwin as fw
import run
import spec
from spans import Span, Tracer, instrument, per_batch, self_times
from workloads import WORKLOADS

ROOT = run.HERE.parent
COUNTS = ("count", "bytes", "flop/B")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("bench.op", 0, 100, -1, 0),
        Span("flash.flash_forward", 10, 40, 0, 0),
        Span("memory.allocate", 20, 30, 1, 0),
        Span("windowing.window_reverse", 30, 60, 0, 0),  # overlaps its sibling
        Span("tensor.zeros", 90, 120, 0, 0),  # runs past its parent's end
    ]
    assert self_times(spans) == [100 - 60, 30 - 10, 10, 30, 30]


def test_inclusive_time_counts_nested_entry_calls_once():
    spans = [
        Span("bench.op", 0, 1_000_000, -1, 3),
        Span("flash.batched_flash_forward", 0, 800_000, 0, 3),
        Span("flash.flash_forward", 100_000, 400_000, 1, 3),
        Span("flash.flash_forward", 400_000, 700_000, 1, 3),
    ]
    row = per_batch(spans)[3]
    assert row["flash.fwd_ms"] == pytest.approx(0.8)
    assert row["flash.self_ms"] == pytest.approx(0.8 - 0.6 + 0.6)
    assert row["flash.calls"] == 2
    assert row["trace.coverage_share"] == pytest.approx(0.8)


def _run_one(name, new_arena=fw.ScratchpadArena):
    wl = WORKLOADS[name]()
    tally = run.Tally()
    sample = run.iterate(wl, wl.make_inputs(7)[0], new_arena, tally)
    return sample, tally


def _scaled_output(q, k, v, cfg, arena, *, orig):
    o, ctx, rep = orig(q, k, v, cfg, arena)
    return fw.DenseTensor(o.shape, o.array * (1 + 1e-6)), ctx, rep


def _leaking(q, k, v, cfg, arena, *, orig):
    arena.allocate("leak", (1,), cfg.elem_bytes)
    return orig(q, k, v, cfg, arena)


def _extra_load(q, k, v, cfg, arena, *, orig):
    o, ctx, rep = orig(q, k, v, cfg, arena)
    rep.loads["Q"] += 1
    return o, ctx, rep


def _raising(q, k, v, cfg, arena, *, orig):
    raise RuntimeError("deliberately broken kernel")


@pytest.mark.parametrize("broken", [_scaled_output, _leaking, _extra_load, _raising])
def test_gate_trips_when_the_kernel_is_wrong(monkeypatch, capsys, broken):
    orig = fw.flash.flash_forward
    monkeypatch.setattr(
        fw.flash, "flash_forward", lambda *a: broken(*a, orig=orig)
    )
    sample, tally = _run_one("wide_fwd")
    assert sample is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "FAILED" in capsys.readouterr().err


def test_gate_passes_the_seed_kernels():
    for name in ("wide_fwd", "swin_train"):
        sample, tally = _run_one(name)
        assert (tally.attempted, tally.failed) == (1, 0)
        assert sample.slices == WORKLOADS[name]().slices


def test_same_seed_same_inputs_other_seed_other_inputs():
    wl = WORKLOADS["swin_train"]()
    a, b, c = wl.make_inputs(5), wl.make_inputs(5), wl.make_inputs(6)
    flat = lambda pool: np.concatenate([t.data for inputs in pool for t in inputs])
    assert np.array_equal(flat(a), flat(b))
    assert not np.array_equal(flat(a), flat(c))
    assert len({t.data.tobytes() for inputs in a for t in inputs}) == 4 * len(a)


def _traced_counts(name, seed):
    wl = WORKLOADS[name]()
    tally, tracer = run.Tally(), Tracer()
    tracer.batch = 0
    with instrument(tracer) as arena_cls:
        sample = run.iterate(wl, wl.make_inputs(seed)[0], arena_cls, tally, tracer)
    tracer.add("memory.live_bytes_end", sum(a.live_bytes for a in tracer.arenas))
    values, _ = run.layer_values(tracer.spans(), tracer.counts, {0: sample.slices})
    return {k: v for k, v in values.items() if k in spec.PER_LAYER and spec.PER_LAYER[k][0] in COUNTS}


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "wide_fwd",
            {
                "flash.global_elements": 4 * 64 * 256,
                "flash.peak_sram_bytes": 24576,
                "flash.peak_sram_bwd_bytes": 0,
                "memory.allocs": 65,
                "flash.calls": 64,
            },
        ),
        (
            "swin_train",
            {
                "flash.global_elements": 13 * 49 * 32,
                "flash.peak_sram_bytes": 15876,
                "flash.peak_sram_bwd_bytes": 25480,
                "memory.allocs": 29,
                "flash.calls": 2 * 192,
            },
        ),
    ],
)
def test_traced_counts_equal_the_seed_values_and_repeat(name, expected):
    first = _traced_counts(name, seed=3)
    for key, value in expected.items():
        assert first[key] == value, key
    assert first["memory.live_bytes_end"] == 0
    assert _traced_counts(name, seed=3) == first
    with instrument(Tracer()):
        pass
    assert fw.flash_forward.__name__ == "flash_forward"  # instrumentation was undone


def test_benchmark_json_agrees_with_the_catalog():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]}.items() <= spec.WORKLOADS.items()
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == {
        n: e[:3] for n, e in spec.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        n: e[:2] for n, e in spec.PER_LAYER.items()
    }


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "flashbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, catalog", [("0", spec.END_TO_END), ("1", spec.PER_LAYER)])
def test_cli_prints_every_metric_as_the_last_line(trace, catalog):
    proc = _cli("--workload", "wide_fwd", "--seed", "2", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        n: e[0] for n, e in catalog.items()
    }


def test_cli_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "flashbench", ignore=shutil.ignore_patterns("out"))
    proc = _cli("--workload", "wide_fwd", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_value_with_ten_beyond_it():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0)
    assert run.tail(values[:5]) == (5, 100.0)
