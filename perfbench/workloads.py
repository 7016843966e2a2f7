"""The benchmark's workloads: the `pinnbound` command each one runs, and
the checks its outputs must pass.

Each workload is one batch command in a closed loop with one client.
The benchmark seed is folded onto the recorded program seeds
(`program_seed`), so every run can compare its numbers against
`golden.json`, which holds the values this code produced when the
benchmark was defined.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
N_PROGRAM_SEEDS = 16
REL_TOL = 1e-4

# Overrides per workload; the seed and output directory are appended.
_ARGS = {
    "train_tanh3": ["--preset", "desk", "--set", "sampling.n_r=216",
                    "--set", "sampling.n_0=500", "--set", "dims.p=64",
                    "--set", "activation.family=tanh", "--set", "activation.k=3",
                    "--set", "training.epochs=100"],
    "verify_suite": ["--set", "verify.n_instances=4", "--set", "verify.sym_classes=1"],
    "sweep_expnegrelu3": ["--set", "activation.family=expnegrelu",
                          "--set", "activation.k=3",
                          "--set", "training.epochs=100"],
}
_COMMAND = {"train_tanh3": "train", "verify_suite": "verify",
            "sweep_expnegrelu3": "sweep"}

WORKLOADS = tuple(_ARGS)


def program_seed(bench_seed: int) -> int:
    return bench_seed % N_PROGRAM_SEEDS


def argv(workload: str, seed: int, out_dir, extra=()) -> list[str]:
    """CLI arguments for one call; `extra` overrides come last and win."""
    args = list(_ARGS[workload]) + ["--set", f"seed={seed}"]
    for assignment in extra:
        args += ["--set", assignment]
    return args + ["--out", str(out_dir), _COMMAND[workload]]


def work_units(workload: str, out_dir) -> int:
    """Training epochs run (train, sweep) or checks made (verify): the
    numerator of `ops_per_s`."""
    out_dir = Path(out_dir)
    if workload == "train_tanh3":
        return _load(out_dir / "train_run.json")["epochs"]
    if workload == "sweep_expnegrelu3":
        doc = _load(out_dir / "sweep.json")
        return doc["config"]["training"]["epochs"] * len(doc["rows"])
    return sum(len(_load(p)["checks"]) for p in out_dir.glob("verify_*.json"))


def reference_values(workload: str, out_dir) -> dict:
    """The numbers pinned in golden.json for one call's outputs."""
    out_dir = Path(out_dir)
    if workload == "train_tanh3":
        return {"final_risk": _load(out_dir / "train_run.json")["final_risk"]}
    if workload == "sweep_expnegrelu3":
        doc = _load(out_dir / "sweep.json")
        return {"gaps": [row["gap"] for row in doc["rows"]],
                "tracks_gap": _tracks_gap(doc)}
    return {}


def _tracks_gap(doc: dict) -> bool:
    """Pearson r >= 0.5 and a strictly decreasing bound column."""
    totals = [row["bound"]["total"] for row in doc["rows"]]
    r = doc["pearson_r"]
    return (r is not None and r >= 0.5
            and all(b < a for a, b in zip(totals, totals[1:])))


def check(workload: str, seed: int, exit_code: int, out_dir, golden: dict) -> dict:
    """Check one call's outputs.

    Returns {"attempted", "failed", "errors"}: attempted is 1 for train,
    the number of checks for verify and the number of rows for sweep.
    Whole-run properties (exit code; for the sweep, Pearson r >= 0.5 with
    a strictly decreasing bound column, required wherever golden.json
    records that it held) add an error without adding to the counts.
    """
    out_dir = Path(out_dir)
    ref = golden[workload].get(str(seed))
    errors: list[str] = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if ref is None:
        errors.append(f"no recorded values for program seed {seed}")
    try:
        if workload == "train_tanh3":
            attempted, failed = 1, 0
            risk = _load(out_dir / "train_run.json")["final_risk"]
            if ref is not None and not _close(risk, ref["final_risk"]):
                failed = 1
                errors.append(f"final risk {risk!r} != recorded {ref['final_risk']!r}")
        elif workload == "verify_suite":
            verdicts = [c["verdict"] for p in sorted(out_dir.glob("verify_*.json"))
                        for c in _load(p)["checks"]]
            attempted = len(verdicts)
            failed = sum(v != "PASS" for v in verdicts)
            if failed:
                errors.append(f"{failed} of {attempted} checks did not PASS")
            if attempted != golden[workload]["checks"]:
                errors.append(f"{attempted} checks, expected {golden[workload]['checks']}")
        else:
            attempted, failed = _check_sweep(_load(out_dir / "sweep.json"), ref, errors)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return {"attempted": 1, "failed": 1, "errors": errors + [f"unreadable outputs: {exc}"]}
    return {"attempted": max(attempted, 1), "failed": failed if attempted else 1,
            "errors": errors}


def _check_sweep(doc: dict, ref: dict | None, errors: list) -> tuple[int, int]:
    rows = doc["rows"]
    n_rows = len(doc["config"]["sweep"]["n_r_values"])
    failed = len(doc["failed_rows"])
    if failed:
        errors.append(f"failed rows: {doc['failed_rows']}")
    gaps_ref = ref["gaps"] if ref is not None else [None] * len(rows)
    if len(gaps_ref) != len(rows):
        errors.append(f"{len(rows)} rows, recorded {len(gaps_ref)}")
        gaps_ref = [None] * len(rows)
    for row, gap_ref in zip(rows, gaps_ref):
        bad = row["bound"]["total"] < row["gap"]
        if bad:
            errors.append(f"N_r={row['N_r']}: bound {row['bound']['total']!r} < gap {row['gap']!r}")
        if gap_ref is not None and not _close(row["gap"], gap_ref):
            bad = True
            errors.append(f"N_r={row['N_r']}: gap {row['gap']!r} != recorded {gap_ref!r}")
        failed += bad
    if (ref is None or ref["tracks_gap"]) and not _tracks_gap(doc):
        totals = [row["bound"]["total"] for row in rows]
        errors.append(f"bound stopped tracking the gap: pearson_r {doc['pearson_r']!r}, "
                      f"bound column {totals}")
    return n_rows, failed


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * abs(ref)


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_golden() -> dict:
    return _load(GOLDEN_PATH)
