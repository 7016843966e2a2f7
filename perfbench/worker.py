"""One benchmark call in its own process: set up, report ready, run the
pinnbound command once, report a JSON line.

    python3 perfbench/worker.py --workload W --seed S --out DIR --log FILE
                                [--trace] [--setup-only]

The first stdout line, "ready <cpu seconds>", follows interpreter start,
`import pinnbound` and config resolution, and gives the user plus system
CPU time they took.  The last stdout line is the result.  The command's
own output goes to FILE, and the spans of a traced call next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from pinnbound import cli  # noqa: E402

import tracer as tracing  # noqa: E402  (sits next to this file)
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np
    import platform
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "pinnbound": str(Path(cli.__file__).resolve().parent)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--log", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pinnbound imported from {cli.__file__}, not from ./src", file=sys.stderr)
        return 2
    argv = workloads.argv(args.workload, args.seed, args.out)
    cli.resolve_config(cli.build_parser().parse_args(argv))
    ru = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {ru.ru_utime + ru.ru_stime!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    scope = tracing.installed(tracer) if args.trace else contextlib.nullcontext()
    with open(args.log, "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), scope:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {"exit_code": code, "wall_s": wall,
              "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
              "peak_rss_mb": ru1.ru_maxrss / 1024.0, "env": environment()}
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.save(Path(args.log).with_suffix(".spans.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
