"""Paired A/B timing of a benchmark operation: a git rev against the working tree.

Usage (from the repository root)::

    python tools/ab_interleave.py --rev HEAD~1 --pairs 200
    python tools/ab_interleave.py --rev HEAD~1 --pairs 50 --workload swin_train

Each tree runs in a worker process of its own, so each keeps its own heap.
A worker imports its tree's ``src/flashwin`` (the rev's from ``git
archive``) as ``flashwin`` and runs the working tree's
``flashbench/workloads.py`` on it, under ``flashbench/run.py``'s BLAS
thread cap: the benchmark's own workloads (the choices of ``--workload``),
inputs and gate. An operation is what
``flashbench/run.py``'s ``iterate`` times and checks: ``tiled`` (the
batch), ``naive`` (the untiled path on the same inputs), then ``check``.
Each pair asks both workers for one operation in turn, alternating which
goes first. The first failed gate ends the run with a non-zero exit naming
the tree and its problems.

Prints, per tree, the min, p10 and median batch and naive times in ms and
the median minor page faults per operation, then the median and quartiles
over pairs of change/base for each time, and how many pairs had
byte-equal outputs. Dev tooling only: needs git and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import multiprocessing
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


def worker(conn, tree: str) -> None:
    """Send the workload names, take one, then answer each pair index with an operation."""
    with conn:
        try:
            sys.dont_write_bytecode = True
            sys.path[:0] = [tree, str(WORKLOADS_PY.parent)]  # tree's flashwin, then workloads
            import run  # the benchmark's BLAS thread cap; it loads no numpy
            for var in run.BLAS_ENV:  # before workloads loads numpy, as run.main does
                os.environ[var] = str(run.BLAS_THREADS)
            import workloads
            conn.send(tuple(workloads.WORKLOADS))
            wl = workloads.WORKLOADS[conn.recv()]()
            pool = wl.make_inputs(SEED)
            while True:
                i = conn.recv()
                conn.send(operation(workloads, wl, pool[i % len(pool)]))
        except EOFError:  # the driver closed its end: the run is over
            pass
        except BaseException as exc:  # the driver names the tree
            conn.send(str(exc) if isinstance(exc, SystemExit) else repr(exc))


@contextlib.contextmanager
def serving(tree: Path):
    """A worker on ``tree``'s package; yields our end of its pipe, whose close ends it."""
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    proc = ctx.Process(target=worker, args=(theirs, str(tree)))
    proc.start()
    theirs.close()
    try:
        yield ours
    finally:
        ours.close()
        proc.join()
        proc.close()


def receive(label: str, conn):
    """The worker's next reply; a failure it reports ends the run, naming its tree."""
    reply = conn.recv()
    if isinstance(reply, str):
        raise SystemExit(f"{label}: {reply}")
    return reply


def extract(rev: str, dest: Path) -> None:
    """Write ``rev``'s src/flashwin to ``dest/flashwin``."""
    git = ["git", "-C", str(ROOT), "archive", "--format=zip", "--prefix=flashwin/"]
    archive = subprocess.run([*git, f"{rev}:src/flashwin"], capture_output=True, check=True).stdout
    zipfile.ZipFile(io.BytesIO(archive)).extractall(dest)


def summary(ns: list[int]) -> str:
    ms = sorted(t / 1e6 for t in ns)
    p10 = ms[int(0.1 * (len(ms) - 1))]
    return f"min {ms[0]:8.2f}  p10 {p10:8.2f}  median {statistics.median(ms):8.2f} ms"


def paired(ratios: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(ratios, method="inclusive") if ratios[1:] else ratios * 3
    return f"{median:.3f} (q1 {q1:.3f}, q3 {q3:.3f})"


def main(argv=None) -> int:
    with contextlib.ExitStack() as stack:
        change = stack.enter_context(serving(ROOT / "src"))
        p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        p.add_argument("--rev", default="HEAD", help="git rev to compare against (default HEAD)")
        p.add_argument("--pairs", type=int, default=200, help="timed pairs (default 200)")
        p.add_argument("--workload", choices=receive("change", change), default="wide_fwd")
        args = p.parse_args(argv)
        if args.pairs < 1:
            p.error("--pairs must be >= 1")

        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        extract(args.rev, tmp)
        base = stack.enter_context(serving(tmp))
        receive("base", base)  # the same names: both run the working tree's workloads
        workers = [("base", base), ("change", change)]
        for _, conn in workers:
            conn.send(args.workload)
        pairs = []
        for i in range(WARMUP + args.pairs):
            pair = {}
            for label, conn in workers[::-1] if i % 2 else workers:
                conn.send(i)
                pair[label] = receive(label, conn)
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
