"""CLI output pinned byte for byte: refactors must leave these stdout bytes unchanged.

Each ``.txt`` file under ``tests/golden/`` is the stdout of one
``flashwin`` invocation, and each ``.csv`` file the ``--out`` file of one;
the ``bench`` file holds its CSV without the wall-clock ``elapsed_ns``
column, the only one that changes between runs. A change that alters a
count, a peak, a case list or the last digit of an oracle error shows up
here as a diff against the file.

The ``check`` files print each case's worst error, and ``demo`` its oracle error, to four
digits, and those digits are rounding error: their bits depend on which BLAS and SIMD
kernels the CPU selects. So these three files are written and compared in a subprocess
under pinned kernels (:data:`PINNED_KERNELS`): OpenBLAS's Haswell (AVX2) kernels, numpy's
own dispatch held below AVX-512, and one BLAS thread, a level that every x86-64 machine
with AVX2 has.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flashwin.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

PINNED_KERNELS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_NUM_THREADS": "1",
}

# Run under PINNED_KERNELS; stdout and exit code are compared as for CASES.
PINNED_CASES = [
    ("check_seed42.txt", ["check"], 0),
    # The full verify grid: L=1024 adds the capacity refusals.
    (
        "check_L1-1024_C16-64_seed42.txt",
        ["check", "--L", "1,2,8,49,64,1024", "--C", "16,32,64", "--r", "1,2,4,auto",
         "--seed", "42"],
        0,
    ),
    (
        "demo_28x28x32_k7_seed3.txt",
        ["demo", "--H", "28", "--W", "28", "--C", "32", "--k", "7", "--seed", "3"],
        0,
    ),
]

CASES = [
    ("traffic_L64_C64_r4.txt", ["traffic", "--L", "64", "--C", "64", "--r", "4"], 0),
    (
        "traffic_L49_C32_rauto_e8.txt",
        ["traffic", "--L", "49", "--C", "32", "--r", "auto", "--elem-bytes", "8"],
        0,
    ),
    # A chunk count above every feature count: a usage error, nothing printed.
    ("empty.txt", ["check", "--L", "4", "--C", "4", "--r", "64"], 2),
]


# Files written through --out; stdout still equals the .txt file of the same name.
OUT_CASES = [
    ("traffic_L64_C64_r4.csv", ["traffic", "--L", "64", "--C", "64", "--r", "4"]),
    (
        "traffic_L49_C32_rauto_e8.csv",
        ["traffic", "--L", "49", "--C", "32", "--r", "auto", "--elem-bytes", "8"],
    ),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_stdout_and_exit_code_match_golden_file(capsys, name, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv, code", PINNED_CASES, ids=[c[0] for c in PINNED_CASES])
def test_cli_stdout_under_pinned_kernels_matches_golden_file(name, argv, code):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "flashwin.cli", *argv],
        env={**os.environ, **PINNED_KERNELS, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == code, run.stderr
    assert run.stdout == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", OUT_CASES, ids=[c[0] for c in OUT_CASES])
def test_cli_out_file_matches_golden_file(tmp_path, capsys, name, argv):
    path = tmp_path / name
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == (GOLDEN / name).read_text(encoding="utf-8")
    stdout = GOLDEN / name.replace(".csv", ".txt")
    assert capsys.readouterr().out == stdout.read_text(encoding="utf-8")


def test_bench_csv_without_its_timings_matches_golden_file(tmp_path):
    path = tmp_path / "bench.csv"
    argv = ["bench", "--batch", "2", "--heads", "2", "--L", "49", "--C", "32,64",
            "--pass", "fwd_bwd", "--repeats", "3", "--out", str(path)]
    assert main(argv) == 0
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    timed = rows[0].index("elapsed_ns")
    untimed = "".join(",".join(row[:timed] + row[timed + 1 :]) + "\n" for row in rows)
    golden = GOLDEN / "bench_L49_C32-64_fwd_bwd_untimed.csv"
    assert untimed == golden.read_text(encoding="utf-8")
