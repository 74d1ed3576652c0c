"""Smoke test: the demo scripts run to completion against the package in src.

Each demo is copied into a temporary directory first, so the outputs it writes
next to itself land there and not in the repository.  ``exploitability_curves.py``
is left out for its run time (several seconds more than the four together).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["bloch_trajectories.py", "entangled_bell_qcce.py", "minimax_bracket.py", "polymatrix_cycle.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
