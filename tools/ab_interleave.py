"""Paired A/B timing of a benchmark operation: a git rev against the working tree.

Usage (from the repository root)::

    python tools/ab_interleave.py --rev HEAD~1 --pairs 200
    python tools/ab_interleave.py --rev HEAD~1 --pairs 50 --workload swin_train

One function builds both trees, in sibling directories ``base`` and ``work``
of one temporary directory, so neither imports from the checkout: the rev's
``src/flashwin`` comes from ``git archive``, the working tree's is copied
without ``__pycache__``. Each tree has one spawned process, the one worker of
its own ``ProcessPoolExecutor``. It imports the tree's package as
``flashwin`` and runs the working tree's ``flashbench/workloads.py`` on it,
under ``flashbench/run.py``'s BLAS thread cap: the benchmark's workloads
(the choices of ``--workload``), inputs and gate. An operation is what
``run.py``'s ``iterate`` times and checks: ``tiled`` (the batch), ``naive``
(the untiled path on the same inputs), then ``check``. Each pair asks both
workers for one operation in turn, alternating which goes first. A rev git
cannot read, a failed gate or a worker's exception ends the run with a
non-zero exit and one line naming the tree and the problem.

Prints, per tree, the min, p10 and median batch and naive times in ms and
the median minor page faults per operation, then the median and quartiles
over pairs of change/base for each time, and how many pairs had
byte-equal outputs. Dev tooling only: needs git and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "flashbench" / "workloads.py"
SEED = 1
WARMUP = 5  # untimed pairs first: caches, lazy imports, the heap


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def operation(workloads, wl, inputs) -> tuple[int, int, int, bytes]:
    """One gated operation of ``wl``: (batch ns, naive ns, minor faults, a digest of its output)."""
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
        raise SystemExit("gate failed: " + "; ".join(outcome.problems))
    sample = wl.sample(t1 - t0, t2 - t1, t3 - t2, result)
    digest = hashlib.sha256()
    if reference is None:  # a check pass: its results carry every case's error
        digest.update(repr(result).encode())
    else:
        for image in result.outputs + reference:
            digest.update(image.array)
    return sample.tiled_ns, sample.naive_ns, faults, digest.digest()


def load(tree: str) -> tuple[str, ...]:
    """A worker's first task: import the workloads on ``tree``'s flashwin; return their names."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [tree, str(WORKLOADS_PY.parent)]
    import run  # the benchmark's BLAS thread cap; it loads no numpy
    for var in run.BLAS_ENV:  # before workloads loads numpy, as run.main does
        os.environ[var] = str(run.BLAS_THREADS)
    import workloads
    return tuple(workloads.WORKLOADS)


@functools.cache  # a worker runs one workload: its inputs are made once
def prepared(name: str):
    import workloads
    wl = workloads.WORKLOADS[name]()
    return workloads, wl, wl.make_inputs(SEED)


def timed(name: str, i: int) -> tuple[int, int, int, bytes]:
    """Pair ``i``'s operation, on input ``i`` of the pool."""
    workloads, wl, pool = prepared(name)
    return operation(workloads, wl, pool[i % len(pool)])


def result(label: str, future):
    """``future``'s result; a worker's exception ends the run, naming its tree."""
    try:
        return future.result()
    except (Exception, SystemExit) as exc:
        raise SystemExit(f"{label}: {exc if isinstance(exc, SystemExit) else repr(exc)}") from None


def extract(rev: str | None, dest: Path) -> None:
    """Write ``rev``'s src/flashwin, or the working tree's if ``rev`` is None, to dest/flashwin.

    A rev git cannot read ends the run with git's message, naming the base."""
    if rev is None:
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src" / "flashwin", dest / "flashwin", ignore=ignore)
        return
    git = ["git", "-C", str(ROOT), "archive", "--format=zip", "--prefix=flashwin/"]
    archive = subprocess.run([*git, f"{rev}:src/flashwin"], capture_output=True)
    if archive.returncode:
        raise SystemExit("base: " + archive.stderr.decode(errors="replace").strip())
    zipfile.ZipFile(io.BytesIO(archive.stdout)).extractall(dest)


def summary(ns: list[int]) -> str:
    ms = sorted(t / 1e6 for t in ns)
    p10 = ms[int(0.1 * (len(ms) - 1))]
    return f"min {ms[0]:8.2f}  p10 {p10:8.2f}  median {statistics.median(ms):8.2f} ms"


def paired(ratios: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ratios, method="inclusive") if ratios[1:] else ratios * 3
    return f"{median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})"


def main(argv=None) -> int:
    spawn = multiprocessing.get_context("spawn")
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        extract(None, tmp / "work")
        change = stack.enter_context(ProcessPoolExecutor(max_workers=1, mp_context=spawn))
        p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        p.add_argument("--rev", default="HEAD", help="git rev to compare against (default HEAD)")
        p.add_argument("--pairs", type=int, default=200, help="timed pairs (default 200)")
        choices = result("change", change.submit(load, str(tmp / "work")))
        p.add_argument("--workload", choices=choices, default="wide_fwd")
        args = p.parse_args(argv)
        if args.pairs < 1:
            p.error("--pairs must be >= 1")

        extract(args.rev, tmp / "base")
        base = stack.enter_context(ProcessPoolExecutor(max_workers=1, mp_context=spawn))
        result("base", base.submit(load, str(tmp / "base")))  # the same names: one workloads.py
        workers = [("base", base), ("change", change)]
        pairs = []
        for i in range(WARMUP + args.pairs):
            pair = {}
            for label, pool in workers[::-1] if i % 2 else workers:
                pair[label] = result(label, pool.submit(timed, args.workload, i))
            if i >= WARMUP:
                pairs.append(pair)

    print(f"{args.workload}, {args.pairs} pairs after {WARMUP} warm-up, base = {args.rev}")
    for label, _ in workers:
        batch, naive, faults, _ = zip(*(pair[label] for pair in pairs))
        print(
            f"{label:<7} batch {summary(batch)}   naive {summary(naive)}   "
            f"minor faults/op {statistics.median(faults):g}"
        )
    batch, naive = (paired([pair["change"][k] / pair["base"][k] for pair in pairs]) for k in (0, 1))
    print(f"paired median change/base: batch {batch}, naive {naive}")
    equal = sum(pair["change"][3] == pair["base"][3] for pair in pairs)
    print(f"byte-equal outputs: {equal}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
