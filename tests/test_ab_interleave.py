"""``tools/ab_interleave.py`` runs flashbench's own workloads and gate on a given package.

The tool is loaded by path and bound to copies of ``src/flashwin`` under
other package names, so no git checkout is needed. The benchmark files
are only read.
"""

import importlib
import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

import flashwin

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "flashbench"

_spec = importlib.util.spec_from_file_location("_ab_interleave", ROOT / "tools" / "ab_interleave.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


@pytest.fixture
def copy_package(tmp_path, monkeypatch):
    """Copy src/flashwin to ``tmp_path/<name>``, optionally editing flash.py, and import it."""
    monkeypatch.syspath_prepend(str(tmp_path))
    names = []

    def copy(name, edit_flash=None):
        dest = tmp_path / name
        shutil.copytree(ROOT / "src" / "flashwin", dest, ignore=shutil.ignore_patterns("__pycache__"))
        if edit_flash is not None:
            flash = dest / "flash.py"
            text = flash.read_text(encoding="utf-8")
            edited = edit_flash(text)
            assert edited != text
            flash.write_text(edited, encoding="utf-8")
        names.append(name)
        return importlib.import_module(name)

    yield copy
    for key in [k for k in sys.modules if any(n in k for n in names)]:
        del sys.modules[key]


def _files(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


def test_runs_one_gated_operation_of_each_workload_on_the_bound_package(
    copy_package, tmp_path, monkeypatch
):
    prefix = tmp_path / "pycache"
    monkeypatch.setattr(sys, "pycache_prefix", str(prefix))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)
    before = _files(BENCH)
    fw = copy_package("flashwin_ab_copy")
    workloads = tool.bind(fw)
    assert workloads.fw is fw
    assert workloads.harness is sys.modules["flashwin_ab_copy.harness"]
    assert sys.modules["flashwin"] is flashwin
    assert sys.dont_write_bytecode is False
    assert set(workloads.WORKLOADS) == {"wide_fwd", "swin_train", "verify"}
    for name, make in workloads.WORKLOADS.items():
        wl = make()
        batch_ns, naive_ns, faults, computed = tool.operation(workloads, wl, wl.make_inputs(1)[0])
        assert batch_ns > 0 and naive_ns > 0 and computed, name
        assert isinstance(faults, int) and faults >= 0, name
    assert list(prefix.rglob("workloads*")) == []  # the package's own bytecode went there
    assert _files(BENCH) == before


def test_the_gate_names_a_difference_from_the_untiled_reference(copy_package):
    def scale_o(text):
        return text.replace("DenseTensor._adopt(og),", "DenseTensor._adopt(og * (1 + 1e-6)),")

    workloads = tool.bind(copy_package("flashwin_ab_scaled", scale_o))
    wl = workloads.WORKLOADS["wide_fwd"]()
    with pytest.raises(SystemExit, match="^gate failed in flashwin_ab_scaled: O differs from"):
        tool.operation(workloads, wl, wl.make_inputs(1)[0])


def test_workload_choices_are_the_benchmarks(monkeypatch, capsys):
    for var in tool.BLAS_ENV:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit):
        tool.main(["--workload", "wide_naive"])
    assert "(choose from 'wide_fwd', 'swin_train', 'verify')" in capsys.readouterr().err


def test_an_operation_counts_the_minor_faults_around_all_three_steps(copy_package, monkeypatch):
    workloads = tool.bind(copy_package("flashwin_ab_faults"))
    wl = workloads.WORKLOADS["verify"]()
    readings = iter([100, 107])
    monkeypatch.setattr(tool, "minor_faults", lambda: next(readings))
    steps = []
    for step in ("tiled", "naive", "check"):

        def spy(*args, _step=step, _real=getattr(wl, step)):
            steps.append(_step)
            return _real(*args)

        monkeypatch.setattr(wl, step, spy)
    assert tool.operation(workloads, wl, 1)[2] == 7
    assert steps == ["tiled", "naive", "check"]
    assert next(readings, None) is None  # read once before the first step, once after the last


def test_each_tree_prints_its_median_minor_faults_per_operation(monkeypatch, capsys):
    # The working tree's package stands in for the rev's, so no git is needed.
    for var in tool.BLAS_ENV:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(
        tool, "extract", lambda rev, dest: shutil.copytree(
            ROOT / "src" / "flashwin", dest / "flashwin_base",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    )
    try:
        assert tool.main(["--pairs", "2", "--workload", "verify"]) == 0
    finally:
        for key in [k for k in sys.modules if k.startswith("flashwin_base")]:
            del sys.modules[key]
    lines = capsys.readouterr().out.splitlines()
    for label in ("base", "change"):
        [line] = [line for line in lines if line.startswith(label)]
        assert float(line.split("minor faults/op ")[1]) >= 0
    assert lines[-1] == "byte-equal outputs: 2/2"
