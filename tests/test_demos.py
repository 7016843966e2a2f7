"""Smoke test: the quick demos and the README's library snippet run to
completion against the public API.

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


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    _python([str(ROOT / "demos" / name)], tmp_path)


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("## Library in 20 lines", 1)[1].split("```python\n", 1)[1]
    snippet = snippet.split("```", 1)[0]
    printed = _python(["-c", snippet], tmp_path).stdout.split()
    # the two bound terms and their total
    assert len(printed) == 3 and float(printed[2]) > 0
