"""Record the reference outputs in golden.json for every program seed.

Run from the repository root:  python3 perfbench/record_golden.py

The benchmark compares each run against these values, so re-record only
when a change is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (sits next to this file)
from pinnbound import cli  # noqa: E402


def main() -> int:
    golden: dict = {name: {} for name in workloads.WORKLOADS}
    problems = []
    for seed in range(workloads.N_PROGRAM_SEEDS):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=Path.cwd()) as out:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(workloads.argv(name, seed, out))
                golden[name][str(seed)] = workloads.reference_values(name, out)
                if name == "verify_suite":
                    golden[name].setdefault("checks", workloads.work_units(name, out))
                result = workloads.check(name, seed, code, out, golden)
            problems += [f"{name} seed {seed}: {e}" for e in result["errors"]]
            print(name, seed, result, flush=True)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
