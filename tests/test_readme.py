"""The README's library example runs as written and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs_and_prints_the_commented_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert match, "README.md has no python block under '## Library example'"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", match.group(1)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    oracle_err, traffic, peak, fd_err = run.stdout.splitlines()
    assert float(oracle_err) < 1e-12
    assert traffic == "{'Q': 4096, 'K': 4096, 'V': 4096} {'O': 4096}"  # first-touch order
    assert peak == "24576"
    assert float(fd_err) < 1e-6
