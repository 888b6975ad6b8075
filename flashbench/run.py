"""flashwin benchmark: one workload per process, end-to-end or traced.

Usage, from the repository root:

    python3 flashbench/run.py --workload wide_fwd --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that alternates plain and traced
operations and reports the per-layer metrics (see ``spec.py``), writing
its spans to ``flashbench/out/<workload>.spans.csv``. Every operation is
checked (see ``workloads.py``); failures are printed to stderr and make the
command exit 1. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The package is
imported from ``src/`` next to this directory; without it the command
exits 2 and prints no result.
"""

from __future__ import annotations

import time

_SCRIPT_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# One BLAS thread (at most nproc): the matrices are at most 64 x 256, so more
# threads add scheduling noise rather than speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Traced operations per traced run (each paired with a plain one); later
# operations run plain and gated only, which bounds the spans kept in memory.
MAX_TRACED_OPS = 30
MAX_FULL_PROBLEMS = 20


class Tally:
    """Counts attempted and failed operations and prints every failure to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._printed = 0

    def record(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for problem in outcome.problems:
            self._print(f"FAILED: {problem}")

    def error(self) -> None:
        self.attempted += 1
        self.failed += 1
        self._print("FAILED with an exception:\n" + traceback.format_exc())

    def _print(self, text: str) -> None:
        # Full text for the first failures, then the last line (the exception) of each.
        self._printed += 1
        if self._printed > MAX_FULL_PROBLEMS:
            text = text.strip().splitlines()[-1]
        print(text, file=sys.stderr)


def iterate(wl, inputs, new_arena, tally: Tally, tracer=None):
    """Run, time and check one operation; returns its Sample, or None if it failed."""
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    now = time.perf_counter_ns
    try:
        t0 = now()
        with span("bench.op"):
            result = wl.tiled(inputs, new_arena)
        t1 = now()
        with span("bench.naive"):
            reference = wl.naive(inputs)
        t2 = now()
        with span("bench.check"):
            outcome = wl.check(result, reference)
        t3 = now()
    except Exception:  # an operation that raises is a counted failure, not the end of the run
        tally.error()
        return None
    tally.record(outcome)
    if outcome.failed:
        return None
    return wl.sample(t1 - t0, t2 - t1, t3 - t2, result)


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(samples, setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
    """Gated and printed-only end-to-end values (see spec.py), and a note on the tail."""
    n = len(samples)
    tiled = sorted(s.tiled_ns / 1e6 for s in samples)
    naive = sorted(s.naive_ns / 1e6 for s in samples)
    tail_ms, pct = tail(tiled)
    values = {
        "setup_s": setup_s,
        "batch_ms_min": tiled[0],
        "naive_batch_ms_min": naive[0],
        "peak_rss_mb": peak_rss_mb,
        "batch_ms_p50": statistics.median(tiled),
        "batch_ms_tail": tail_ms,
        "windows_per_s": sum(s.slices for s in samples) * 1e9 / sum(s.tiled_ns for s in samples),
        "naive_windows_per_s": sum(s.naive_slices for s in samples)
        * 1e9
        / sum(s.naive_ns for s in samples),
        "check_s": sum(s.check_ns for s in samples) / n / 1e9,
    }
    return values, f"batch_ms_tail is p{pct:.1f} of n={n} operations"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_plain(wl, args, import_s: float, tally: Tally):
    import flashwin as fw

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        pool = wl.make_inputs(args.seed)
        iterate(wl, pool[0], fw.ScratchpadArena, tally)
        setups.append(time.perf_counter_ns() - t0)
    setup_s = import_s + statistics.median(setups) / 1e9

    samples = []
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    i = 0
    while True:
        sample = iterate(wl, pool[i % len(pool)], fw.ScratchpadArena, tally)
        if sample is not None:
            samples.append(sample)
        i += 1
        if time.perf_counter_ns() >= deadline:
            break
    if not samples:
        return {}, "no operation succeeded"
    return end_to_end(samples, setup_s, peak_rss_mb())


def layer_values(spans, counts, slices: dict[int, int]) -> tuple[dict, dict]:
    """Median per-operation per-layer values over the traced batches, and the set-up row.

    ``counts`` are the tracer's per-batch counters and ``slices`` maps each
    traced batch id to the slices its operation moved.
    """
    import spec
    from spans import per_batch

    rows = per_batch(spans)
    per_op = []
    for b, n in slices.items():
        row = dict(rows[b])
        row.update(counts[b])
        row["harness.check_self_ms"] = row.get("harness.self_ms", 0.0)
        row["flash.kernel_ms"] = row.get("flash.fwd_ms", 0.0) + row.get("flash.bwd_ms", 0.0)
        row["flash.gflops"] = row.get("flash.flops", 0.0) / max(row["flash.kernel_ms"], 1e-9) / 1e6
        row["flash.flops_per_byte"] = row.get("flash.flops", 0.0) / max(
            row.get("flash.global_bytes", 0.0), 1.0
        )
        for key in spec.PER_SLICE:
            row[key] = row.get(key, 0.0) / n
        per_op.append(row)
    wanted = dict(spec.PER_LAYER, **spec.TABLE_ONLY)
    values = {key: statistics.median(row.get(key, 0.0) for row in per_op) for key in wanted}
    return values, dict(rows[-1])


def run_traced(wl, args, tally: Tally):
    import flashwin as fw
    from spans import Tracer, instrument, write_csv

    tracer = Tracer()
    with instrument(tracer) as arena_cls, tracer.span("bench.setup"):
        pool = wl.make_inputs(args.seed)
        iterate(wl, pool[0], arena_cls, tally, tracer)
    tracer.arenas.clear()

    plain, traced, slices = [], [], {}
    deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
    i = 0
    while True:
        inputs = pool[i % len(pool)]
        sample = iterate(wl, inputs, fw.ScratchpadArena, tally)
        if i < MAX_TRACED_OPS:
            if sample is not None:
                plain.append(sample.tiled_ns)
            tracer.batch = i
            with instrument(tracer) as arena_cls:
                sample = iterate(wl, inputs, arena_cls, tally, tracer)
            tracer.add("memory.live_bytes_end", sum(a.live_bytes for a in tracer.arenas))
            tracer.arenas.clear()
            if sample is not None:
                traced.append(sample.tiled_ns)
                slices[i] = sample.slices
        i += 1
        if time.perf_counter_ns() >= deadline:
            break
    if not traced:
        return {}, "no operation succeeded"

    OUT_DIR.mkdir(exist_ok=True)
    spans = tracer.spans()
    write_csv(spans, OUT_DIR / f"{args.workload}.spans.csv")
    values, setup_row = layer_values(spans, tracer.counts, slices)
    values["tensor.fill_uniform_ms"] = setup_row.get("tensor.fill_uniform_ms", 0.0)
    plain_ms = statistics.median(plain) / 1e6 if plain else float("nan")
    traced_ms = statistics.median(traced) / 1e6
    values["trace.overhead_share"] = (traced_ms - plain_ms) / plain_ms
    note = (
        f"{len(traced)} traced and {len(plain)} plain operations, {len(spans)} spans written; "
        f"batch median {plain_ms:.3f} ms plain, {traced_ms:.3f} ms traced"
    )
    return values, note


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=("wide_fwd", "swin_train", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flashwin" / "__init__.py").is_file():
        print(f"error: flashwin sources not found in {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import flashwin

    if Path(flashwin.__file__).resolve().parent != SRC / "flashwin":
        print(f"error: imported flashwin from {flashwin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = (time.perf_counter_ns() - _SCRIPT_START_NS) / 1e9

    import spec
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    tally = Tally()
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} - {spec.WORKLOADS[args.workload]}")
    if args.trace:
        values, note = run_traced(wl, args, tally)
        catalog = {name: entry[0] for name, entry in spec.PER_LAYER.items()}
        table = dict(catalog, **{name: entry[0] for name, entry in spec.TABLE_ONLY.items()})
    else:
        values, note = run_plain(wl, args, import_s, tally)
        catalog = {name: entry[0] for name, entry in spec.END_TO_END.items()}
        table = dict(catalog, **{name: entry[0] for name, entry in spec.E2E_PRINTED.items()})
    for name, unit in table.items():
        if name in values:
            print(f"{name:<32} {values[name]:>16.6g} {unit}")
    print(note)
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"failed_share {share:.6g} ({tally.failed} failed of {tally.attempted} attempted)")

    correct = tally.failed == 0 and tally.attempted > 0 and set(catalog) <= set(values)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in catalog.items()
            if name in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
