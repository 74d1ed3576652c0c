"""Smoke test: the demo scripts and the README quick start run to completion against the package in src.

Each script is written into a temporary directory first, so the outputs it
writes next to itself land there and not in the repository.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["bloch_trajectories.py", "entangled_bell_qcce.py", "exploitability_curves.py", "minimax_bracket.py",
         "polymatrix_cycle.py"]


def run_cleanly(script, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    run_cleanly(script, tmp_path)


def test_readme_quick_start_runs_cleanly(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0], encoding="utf-8")
    run_cleanly(script, tmp_path)
