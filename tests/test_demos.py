"""Smoke test: the quick demos run to completion against the public API.

`05_bound_vs_gap_sweep.py` trains four width-64 networks for 2000
epochs (several seconds), so it stays out; criterion 6 covers the sweep.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_activation_stacks.py", "02_train_vortex.py",
               "03_bound_and_planner.py", "04_inequality_checks.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
