"""``tools/ab_interleave.py`` runs flashbench's own workloads and gate on each tree in a worker.

``extract`` is wrapped so that the rev's package is also a copy of the working tree's
``src/flashwin``, and no git checkout is needed, except to show that a rev git cannot read
ends the run. The benchmark files are only read.
"""

import importlib
import importlib.util
import multiprocessing.context
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "flashbench"


@pytest.fixture
def tool(monkeypatch):
    """The tool, imported by name from ``tools/``, as the spawned workers import it."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("ab_interleave")


@pytest.fixture
def spawned(monkeypatch):
    """The pids of the worker processes started during the test."""
    pids = []
    start = multiprocessing.context.SpawnProcess.start

    def spy(self):
        start(self)
        pids.append(self.pid)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", spy)
    return pids


def _alive(pids) -> list:
    """The pids that still name a process, running or not yet reaped."""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        alive.append(pid)
    return alive


def _base_copy(tool, monkeypatch, edit_flash=None) -> dict:
    """Make ``extract`` copy the working tree's package for the rev too, optionally editing
    the rev's flash.py only; returns each tree's flash.py text by rev, once it is made."""
    real, flash_texts = tool.extract, {}

    def extract(rev, dest):
        real(None, dest)
        flash = dest / "flashwin" / "flash.py"
        text = flash.read_text(encoding="utf-8")
        if rev is not None and edit_flash is not None:
            edited = edit_flash(text)
            assert edited != text
            text = edited
            flash.write_text(text, encoding="utf-8")
        flash_texts[rev] = text

    monkeypatch.setattr(tool, "extract", extract)
    return flash_texts


def _files(root: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


def test_workload_choices_are_the_benchmarks(tool, spawned, capsys):
    with pytest.raises(SystemExit):
        tool.main(["--workload", "wide_naive"])
    assert "(choose from 'wide_fwd', 'swin_train', 'verify')" in capsys.readouterr().err
    assert len(spawned) == 1 and _alive(spawned) == []


def test_an_operation_counts_the_minor_faults_around_all_three_steps(tool, monkeypatch):
    # The benchmark's workloads on the package under test, in this process.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_ab_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks it up there
    spec.loader.exec_module(workloads)
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


def test_a_run_prints_each_trees_faults_and_leaves_no_worker_alive(
    tool, spawned, monkeypatch, capsys
):
    _base_copy(tool, monkeypatch)
    before = _files(BENCH)
    assert tool.main(["--pairs", "2", "--workload", "verify"]) == 0
    assert len(spawned) == 2 and _alive(spawned) == []
    lines = capsys.readouterr().out.splitlines()
    for label in ("base", "change"):
        [line] = [line for line in lines if line.startswith(label)]
        assert float(line.split("minor faults/op ")[1]) >= 0
    [paired] = [line for line in lines if line.startswith("paired median change/base: ")]
    assert paired.count("(q1 ") == 2 and paired.count(", q3 ") == 2
    assert lines[-1] == "byte-equal outputs: 2/2"
    assert _files(BENCH) == before  # no bytecode or other file under flashbench/


def test_a_failed_gate_in_the_base_names_it_and_leaves_no_worker_alive(
    tool, spawned, monkeypatch
):
    def scale_o(text):
        return text.replace("DenseTensor._adopt(og),", "DenseTensor._adopt(og * (1 + 1e-6)),")

    flash_texts = _base_copy(tool, monkeypatch, scale_o)
    with pytest.raises(SystemExit) as exc:
        tool.main(["--pairs", "2", "--workload", "wide_fwd"])
    assert str(exc.value.code).startswith("base: gate failed: O differs from")
    assert len(spawned) == 2 and _alive(spawned) == []
    checkout = (ROOT / "src" / "flashwin" / "flash.py").read_text(encoding="utf-8")
    assert flash_texts == {None: checkout, "HEAD": scale_o(checkout)}


def test_a_rev_git_cannot_read_ends_the_run_in_one_line_and_leaves_no_worker_alive(
    tool, spawned
):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--rev", "nosuchrev", "--pairs", "2", "--workload", "verify"])
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("base: fatal: ")
    assert "\n" not in message
    assert len(spawned) == 1 and _alive(spawned) == []


def test_both_trees_are_sibling_copies_of_equal_path_length_outside_the_checkout(
    tool, spawned, monkeypatch, tmp_path
):
    imported = tmp_path / "imported"
    real = tool.extract

    def extract(rev, dest):  # each tree's flashwin records where it was imported from
        real(None, dest)
        with open(dest / "flashwin" / "__init__.py", "a", encoding="utf-8") as init:
            init.write(
                f"\nwith open({str(imported)!r}, 'a', encoding='utf-8') as _log:\n"
                "    _log.write(__file__ + '\\n')\n"
            )

    monkeypatch.setattr(tool, "extract", extract)
    assert tool.main(["--pairs", "1", "--workload", "verify"]) == 0
    assert len(spawned) == 2 and _alive(spawned) == []
    files = imported.read_text(encoding="utf-8").splitlines()
    trees = [Path(file).parent.parent for file in files]
    assert len(trees) == 2 and trees[0] != trees[1]
    assert trees[0].parent == trees[1].parent
    assert len(str(trees[0])) == len(str(trees[1]))
    assert all(ROOT not in tree.parents for tree in trees)
