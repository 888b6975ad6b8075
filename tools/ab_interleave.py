"""In-process A/B timing of a benchmark operation: a git rev against the working tree.

Usage (from the repository root)::

    python tools/ab_interleave.py --rev HEAD~1 --pairs 200
    python tools/ab_interleave.py --rev HEAD~1 --pairs 50 --workload swin_train

The rev's ``src/flashwin`` is extracted with ``git archive`` into a
temporary directory under the package name ``flashwin_base``; the working
tree's ``src/flashwin`` is imported as ``flashwin``. The working tree's
``flashbench/workloads.py`` is executed once against each of the two
(:func:`bind`), so both trees run the benchmark's own workloads, inputs
and gate, and ``--workload`` takes the keys of its ``WORKLOADS``.

An operation is what ``flashbench/run.py``'s ``iterate`` times and checks:
``tiled`` (the batch), ``naive`` (the untiled path on the same inputs),
then ``check`` (the untiled reference, the closed-form traffic and peaks,
zero live arena bytes; every case of a ``verify`` pass). Each pair runs
it on both trees, alternating which goes first. The first failed gate
ends the run with a non-zero exit naming the tree and its problems.

Pairing in one process removes the drift between processes that dominates
short separate runs. It also hides a change in heap trimming: both trees
share one malloc heap, so one tree's large frees raise glibc's trim
threshold for the other too. A change that moves allocation sizes needs
separate ``flashbench/run.py`` processes per tree as well.

Prints, per tree, the min, p10 and median batch and naive times in ms and
the median minor page faults per operation (the ``ru_minflt`` delta of the
process around its tiled, naive and check steps), then the median over
pairs of change/base for each time, and how many pairs had byte-equal
outputs (both paths' output images, or the check pass's case results).
Heap trimming still acts on both trees at once, but a tree that faults
its heap back in on every operation shows it in its count. Dev tooling
only: needs git and numpy.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "flashbench" / "workloads.py"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 1
WARMUP = 5  # untimed pairs first: caches, lazy imports, the heap


def bind(fw):
    """Execute flashbench/workloads.py against the package ``fw``; returns the module.

    While it runs, ``sys.modules`` maps ``flashwin`` and ``flashwin.harness``
    to ``fw`` and its harness; both entries are restored afterwards. The
    module is registered under a name of its own first (dataclasses looks
    it up there), and no bytecode is written, so ``flashbench/`` stays
    untouched.
    """
    name = f"_flashbench_workloads_{fw.__name__}"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    swapped = {"flashwin": fw, "flashwin.harness": importlib.import_module(f"{fw.__name__}.harness")}
    saved = {key: sys.modules.get(key) for key in swapped}
    dont_write = sys.dont_write_bytecode
    sys.modules.update(swapped)
    sys.modules[name] = module
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        for key, value in saved.items():
            if value is None:
                del sys.modules[key]
            else:
                sys.modules[key] = value
    return module


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def operation(workloads, wl, inputs) -> tuple[int, int, int, bytes]:
    """One gated operation of ``wl``: (batch ns, naive ns, minor faults, the bytes it computed)."""
    now = time.perf_counter_ns
    faults = minor_faults()
    t0 = now()
    result = wl.tiled(inputs, workloads.fw.ScratchpadArena)
    t1 = now()
    reference = wl.naive(inputs)
    t2 = now()
    outcome = wl.check(result, reference)
    t3 = now()
    faults = minor_faults() - faults
    if outcome.failed:
        raise SystemExit(f"gate failed in {workloads.fw.__name__}: " + "; ".join(outcome.problems))
    sample = wl.sample(t1 - t0, t2 - t1, t3 - t2, result)
    if reference is None:  # a check pass: its results carry every case's error
        computed = repr(result).encode()
    else:
        computed = b"".join(image.array.tobytes() for image in result.outputs + reference)
    return sample.tiled_ns, sample.naive_ns, faults, computed


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
    for var in BLAS_ENV:  # before numpy loads, as flashbench/run.py does
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    change = bind(importlib.import_module("flashwin"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rev", default="HEAD", help="git rev to compare against (default HEAD)")
    p.add_argument("--pairs", type=int, default=200, help="timed pairs (default 200)")
    p.add_argument("--workload", choices=tuple(change.WORKLOADS), default="wide_fwd")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        extract(args.rev, Path(tmp))
        sys.path.insert(0, tmp)
        base = bind(importlib.import_module("flashwin_base"))
        sides = []
        for label, workloads in (("base", base), ("change", change)):
            wl = workloads.WORKLOADS[args.workload]()
            sides.append((label, workloads, wl, wl.make_inputs(SEED)))
        times = {label: ([], [], []) for label, *_ in sides}
        ratios, equal = ([], []), 0
        for i in range(WARMUP + args.pairs):
            got = {
                label: operation(workloads, wl, pool[i % len(pool)])
                for label, workloads, wl, pool in (sides[::-1] if i % 2 else sides)
            }
            if i < WARMUP:
                continue
            for label, side in got.items():
                for k in (0, 1, 2):
                    times[label][k].append(side[k])
            for k in (0, 1):
                ratios[k].append(got["change"][k] / got["base"][k])
            equal += got["change"][3] == got["base"][3]

    print(f"{args.workload}, {args.pairs} pairs after {WARMUP} warm-up, base = {args.rev}")
    for label, (batch, naive, faults) in times.items():
        print(
            f"{label:<7} batch {summary(batch)}   naive {summary(naive)}   "
            f"minor faults/op {statistics.median(faults):g}"
        )
    batch_ratio, naive_ratio = (statistics.median(r) for r in ratios)
    print(f"paired median change/base: batch {batch_ratio:.3f}, naive {naive_ratio:.3f}")
    print(f"byte-equal outputs: {equal}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
