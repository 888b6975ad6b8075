"""Run the benchmark repeatedly and summarise the spread of every metric.

Usage, from the repository root:

    python3 flashbench/repeat.py --seeds 1-10 --seconds 30 \\
        --out flashbench/results/baseline.json

Each seed runs every workload once with ``--trace 0`` (seed-major order, so
slow drift of the machine falls on all workloads alike), then each
workload gets ``--trace-runs`` traced runs. For every end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median next to the metric's bound in
``BENCHMARK.json``. Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), {})
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--out", default=None, help="write the summary as JSON to this path")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            print(f"{w} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in runs[w][-1]["metrics"].items()}
            ), flush=True)
    traced = {
        w: [run_once(w, seeds[i % len(seeds)], args.seconds, 1) for i in range(args.trace_runs)]
        for w in workloads
    }

    summary: dict = {
        "env": runs[workloads[0]][0]["env"],
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {},
        }
        print(f"\n{w}: {entry['failed']} failed of {entry['attempted']} attempted")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs[w]])
            s["unit"] = runs[w][0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            print(
                f"  {name:<22} median {s['median']:>12.6g} {s['unit']:<5} "
                f"spread {s['spread']:.4f}  bound {bounds[name]}  "
                f"({'ok' if s['spread'] < bounds[name] / 3 else 'WIDE'})"
            )
        if traced[w]:
            entry["per_layer"] = {
                name: summarise([r["metrics"][name]["value"] for r in traced[w]])
                for name in traced[w][0]["metrics"]
            }
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
