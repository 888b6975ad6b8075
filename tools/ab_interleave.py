"""In-process A/B timing of a benchmark operation: a git rev against the working tree.

Usage (from the repository root)::

    python tools/ab_interleave.py --rev HEAD~1 --pairs 200
    python tools/ab_interleave.py --rev HEAD~1 --pairs 50 --workload verify
    python tools/ab_interleave.py --rev HEAD~1 --pairs 200 --workload wide_naive

The rev's ``src/flashwin`` is extracted with ``git archive`` into a
temporary directory under the package name ``flashwin_base``; the working
tree's ``src/flashwin`` is imported as ``flashwin``. Both run the same
operation, alternating which tree goes first in each pair:

* ``wide_fwd`` (default): one 32x32x1024 image, 8x8 windows, 4 heads:
  partition -> batched tiled forward with Q=K=V and one arena -> reverse.
  Gated as the benchmark gates it: the arena ends idle, and the merged
  loads, stores and peak equal the slice count times the closed-form
  traffic and the closed-form peak.
* ``wide_naive``: the untiled half of wide_fwd on the same image, timed
  as the benchmark's ``naive_batch_ms_min``: partition -> ``naive_forward``
  per (window, head) slice with scale ``C**-0.5`` -> reverse. Its check
  is the comparison of the two trees' output images.
* ``verify``: one ``run_check_suite`` pass on the benchmark's verify grid.
  Gated on every case being ok.

Pairing in one process removes the drift between processes that dominates
short separate runs.

Prints, per tree, the min, p10 and median operation time in ms, then the
median over pairs of change/base time and how many pairs had bitwise-equal
outputs (the output image, or the rendered check table). Dev tooling only:
needs git and numpy.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The wide_fwd geometry and the verify grid of flashbench/workloads.py.
SIDE, CHANNELS, WINDOW, HEADS = 32, 1024, 8, 4
VERIFY_GRID = dict(Ls=(1, 2, 8, 49, 64, 1024), Cs=(16, 32, 64), r_values=(1, 2, 4, "auto"))
POOL, SEED = 4, 1
WARMUP = 5  # untimed pairs first: caches, lazy imports, the heap


class WideForward:
    """The wide_fwd operation bound to one copy of the package."""

    def __init__(self, fw, seed: int):
        self.fw = fw
        self.win = fw.WindowConfig(H=SIDE, W=SIDE, C=CHANNELS, k=WINDOW)
        self.L = self.win.seq_len
        self.C = CHANNELS // HEADS
        harness = importlib.import_module(f"{fw.__name__}.harness")
        self.tile = fw.TileConfig(r=harness.resolve_r("auto", self.C), scale=self.C**-0.5)
        self.peak = fw.peak_sram_forward(self.L, self.C, self.tile)
        slices = self.win.num_windows * HEADS
        self.traffic = tuple(
            {name: slices * n for name, n in counts.items()}
            for counts in harness.expected_forward_traffic(self.L, self.C)
        )
        rng = fw.Rng(seed)
        self.images = [fw.fill_uniform(rng, (SIDE, SIDE, CHANNELS), -1.0, 1.0) for _ in range(POOL)]

    def run(self, i: int):
        """One gated operation on input set ``i``; returns (elapsed ns, output image bytes)."""
        fw = self.fw
        t0 = time.perf_counter_ns()
        w = fw.window_partition(self.images[i % POOL], self.win).array
        n = w.shape[0]
        heads = w.reshape(n, self.L, HEADS, self.C).transpose(0, 2, 1, 3)
        qkv = fw.DenseTensor(heads.shape, heads)
        arena = fw.ScratchpadArena()
        out, _, report = fw.batched_flash_forward(qkv, qkv, qkv, self.tile, [arena])
        o = out.array.transpose(0, 2, 1, 3).reshape(n, self.L, CHANNELS)
        image = fw.window_reverse(fw.DenseTensor(o.shape, o), self.win)
        elapsed = time.perf_counter_ns() - t0
        traffic = (report.loads, report.stores)
        if arena.live_bytes != 0 or report.peak_sram_bytes != self.peak or traffic != self.traffic:
            raise SystemExit(
                f"gate failed in {fw.__name__}: {arena.live_bytes} live bytes, "
                f"peak {report.peak_sram_bytes} B (closed form {self.peak} B), "
                f"traffic {traffic} (closed form {self.traffic})"
            )
        return elapsed, image.array.tobytes()


class WideNaive(WideForward):
    """The untiled half of wide_fwd, bound to one copy of the package."""

    def run(self, i: int):
        """One operation on input set ``i``; returns (elapsed ns, output image bytes)."""
        fw = self.fw
        params = fw.AttnParams(scale=self.tile.scale)
        t0 = time.perf_counter_ns()
        w = fw.window_partition(self.images[i % POOL], self.win).array
        n = w.shape[0]
        heads = w.reshape(n, self.L, HEADS, self.C).transpose(0, 2, 1, 3)
        qkv = fw.DenseTensor(heads.shape, heads)
        out = np.empty(heads.shape)
        for b in range(n):
            for h in range(HEADS):
                sq, sk, sv = (fw.DenseTensor((self.L, self.C), qkv.array[b, h]) for _ in range(3))
                out[b, h] = fw.naive_forward(sq, sk, sv, params)[0].array
        o = out.transpose(0, 2, 1, 3).reshape(n, self.L, CHANNELS)
        image = fw.window_reverse(fw.DenseTensor(o.shape, o), self.win)
        return time.perf_counter_ns() - t0, image.array.tobytes()


class Verify:
    """One check-suite pass on the verify grid, bound to one copy of the package."""

    def __init__(self, fw, seed: int):
        self.fw = fw
        self.seed = seed
        self.harness = importlib.import_module(f"{fw.__name__}.harness")

    def run(self, i: int):
        """One gated pass; returns (elapsed ns, rendered table)."""
        t0 = time.perf_counter_ns()
        results = self.harness.run_check_suite(self.seed, **VERIFY_GRID)
        elapsed = time.perf_counter_ns() - t0
        failed = [r.case_id for r in results if not r.ok]
        if failed:
            raise SystemExit(f"gate failed in {self.fw.__name__}: cases {failed} not ok")
        return elapsed, self.harness.render_suite_table(results)


WORKLOADS = {"wide_fwd": WideForward, "wide_naive": WideNaive, "verify": Verify}


def extract(rev: str, dest: Path) -> None:
    """Write ``rev``'s src/flashwin to ``dest/flashwin_base``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", "--prefix=flashwin_base/",
         f"{rev}:src/flashwin"],
        capture_output=True,
        check=True,
    ).stdout
    zipfile.ZipFile(io.BytesIO(archive)).extractall(dest)


def summary(ns: list[int]) -> str:
    ms = sorted(t / 1e6 for t in ns)
    p10 = ms[int(0.1 * (len(ms) - 1))]
    return f"min {ms[0]:8.2f}  p10 {p10:8.2f}  median {statistics.median(ms):8.2f} ms"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rev", default="HEAD", help="git rev to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=200, help="timed pairs (default 200)")
    p.add_argument("--workload", choices=tuple(WORKLOADS), default="wide_fwd")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    for var in BLAS_ENV:
        os.environ[var] = "1"

    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, Path(tmp))
        sys.path[:0] = [tmp, str(ROOT / "src")]
        workload = WORKLOADS[args.workload]
        sides = (
            ("base", workload(importlib.import_module("flashwin_base"), SEED)),
            ("change", workload(importlib.import_module("flashwin"), SEED)),
        )
        times = {"base": [], "change": []}
        ratios, equal = [], 0
        for i in range(WARMUP + args.pairs):
            got = {name: side.run(i) for name, side in (sides[::-1] if i % 2 else sides)}
            if i < WARMUP:
                continue
            for name, (ns, _) in got.items():
                times[name].append(ns)
            ratios.append(got["change"][0] / got["base"][0])
            equal += got["change"][1] == got["base"][1]

    print(f"{args.workload}, {args.pairs} pairs after {WARMUP} warm-up, base = {args.rev}")
    for name in ("base", "change"):
        print(f"{name:<7} {summary(times[name])}")
    print(f"paired median change/base: {statistics.median(ratios):.3f}")
    print(f"bitwise-equal outputs: {equal}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
