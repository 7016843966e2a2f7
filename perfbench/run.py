"""pinnbound benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pinnbound is imported from ./src.  Each
call of the workload's `pinnbound` command runs in a fresh worker
process (perfbench/worker.py) with BLAS and OpenMP pinned to one thread,
one call at a time.  Workloads and their output checks are in
workloads.py; README.md explains the choices.

--trace 0 repeats the call while the next one still fits in --seconds
(at least once) and reports the end-to-end metrics as medians over the
calls.  Call i runs program seed (N + i) mod 16, because the cost of a
call depends a little on its seed, and a median over a run of many seeds
moves less from one benchmark seed to the next.  --trace 1 makes one
untraced and one traced call of program seed N mod 16 and reports the
per-layer metrics of the traced one.  Both print, as the last stdout
line, one JSON object with the keys correct, attempted, failed and
metrics.  Raw samples and the environment record are written to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"
SETUP_SAMPLES = 8          # set-up-only worker starts per run, after one warm-up
MARGIN_S = 120.0           # least time past --seconds before workers are stopped
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, bench_seed: int, run_dir: Path, seconds: float):
        self.workload = workload
        self.bench_seed = bench_seed
        self.run_dir = run_dir
        self.golden = workloads.load_golden()
        self.end = time.monotonic() + seconds
        self.longest_spawn = 0.0
        self.env = dict(os.environ, **THREAD_PINS)
        self.n_calls = 0

    def spawn(self, seed: int, out: Path, log: Path, trace=False, setup_only=False) -> dict:
        """Start one worker; return its result with its set-up times."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(seed), "--out", str(out), "--log", str(log)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else ""
            setup_wall_s = time.perf_counter() - t0
            word, _, cpu = line.strip().partition(" ")
            if word != "ready":
                raise BenchError(f"worker did not start: {line.strip()!r}")
            rest, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker was stopped {self._margin():.0f} s after --seconds")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.longest_spawn = max(self.longest_spawn, time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        result = {} if setup_only else json.loads(rest.strip().splitlines()[-1])
        result["setup_s"] = float(cpu)
        result["setup_wall_s"] = setup_wall_s
        return result

    def _margin(self) -> float:
        # Calls start only while they fit in --seconds, so the last one
        # overruns it by about one call.
        return max(MARGIN_S, 3 * self.longest_spawn)

    def _left(self) -> float:
        left = self.end + self._margin() - time.monotonic()
        if left <= 0:
            raise BenchError(f"run passed --seconds by {self._margin():.0f} s")
        return left

    def setup_starts(self, n: int) -> list[dict]:
        seed = workloads.program_seed(self.bench_seed)
        return [self.spawn(seed, self.run_dir / "setup", self.run_dir / "setup.log",
                           setup_only=True) for _ in range(n)]

    def call(self, offset=0, trace=False, out: Path | None = None) -> dict:
        """One command call of program seed (bench seed + offset) mod 16,
        writing to a fresh directory unless `out` is given."""
        seed = workloads.program_seed(self.bench_seed + offset)
        tag = self.run_dir / f"call{self.n_calls}"
        self.n_calls += 1
        out = out or tag
        result = self.spawn(seed, out, tag.with_suffix(".log"), trace=trace)
        result["seed"] = seed
        result["out"] = str(out)
        result["log"] = str(tag.with_suffix(".log"))
        result["check"] = workloads.check(self.workload, seed, result["exit_code"],
                                          out, self.golden)
        result["ops"] = (workloads.work_units(self.workload, out)
                         if result["exit_code"] == 0 else 0)
        return result


def end_to_end(runner: Runner, seconds: float) -> tuple[list, dict, list]:
    runner.setup_starts(1)                        # warm-up: bytecode and file caches
    # Half the set-up samples before the calls and half after, so that
    # their median spans the run rather than one moment of a shared machine.
    setups = runner.setup_starts(SETUP_SAMPLES // 2)
    calls = []
    t0 = time.perf_counter()
    while True:
        calls.append(runner.call(offset=len(calls)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(calls) > seconds:
            break
    setups += runner.setup_starts(SETUP_SAMPLES // 2) + calls
    setups = [{k: s[k] for k in ("setup_s", "setup_wall_s")} for s in setups]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "cpu_s": statistics.median(c["cpu_s"] for c in calls),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in calls),
        "ops_per_s": statistics.median(c["ops"] / c["wall_s"] for c in calls),
    }
    return calls, metrics, setups


def per_layer(runner: Runner) -> tuple[list, dict]:
    plain = runner.call()
    traced = runner.call(trace=True)
    calls = [plain, traced]
    m = dict(traced["layers"])
    out = Path(traced["out"])
    m["cli.artifacts.bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    verify = runner.workload == "verify_suite"
    attempted = traced["check"]["attempted"] if verify else 0
    m["verify.checks.attempted"] = attempted
    m["verify.checks.passed"] = attempted - traced["check"]["failed"] if verify else 0
    m["cli.sweep_cache.hits"] = m["cli.sweep_cache.rows"] = 0
    if runner.workload == "sweep_expnegrelu3":
        # The same sweep again into the traced call's directory, where
        # every finished row has left its cache file.
        rerun = runner.call(out=out)
        calls.append(rerun)
        lines = Path(rerun["log"]).read_text().splitlines()
        m["cli.sweep_cache.hits"] = sum(line.endswith(": cached") for line in lines)
        with open(out / "sweep.json") as fh:
            doc = json.load(fh)
        m["cli.sweep_cache.rows"] = len(doc["rows"]) + len(doc["failed_rows"])
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return calls, m


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pinnbound" / "__init__.py").is_file():
        print("run from the repository root: ./src/pinnbound is missing", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, args.seconds)
    setups: list[dict] = []
    try:
        if args.trace:
            calls, values = per_layer(runner)
        else:
            calls, values, setups = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    errors = [e for c in calls for e in c["check"]["errors"]]
    attempted = sum(c["check"]["attempted"] for c in calls)
    failed = sum(c["check"]["failed"] for c in calls)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record = {
        "workload": args.workload, "bench_seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "env": dict(calls[0]["env"], git_commit=_git_commit(), src_sha256=_source_digest(),
                    workload_seeds=[c["seed"] for c in calls]),
        "setup_samples": setups,
        "calls": [{k: v for k, v in c.items() if k != "env"} for c in calls],
        "errors": errors, "metrics": metrics,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}, sort_keys=True))
    print(json.dumps({"correct": not errors and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
