"""In-memory spans around calls into pinnbound's public functions.

`installed(tracer)` replaces each traced function, under its own name,
in every pinnbound module that holds it (the defining module, modules
that imported it by name, and the package namespace), and puts the
originals back on exit.  Nothing under src/ is edited.

A span is (name, start, end, parent); all spans of one tracer share its
run id.  Spans are kept in flat arrays while the program runs and are
written only by `save`, after the timed call has returned.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs to trace; the span name is "<layer>.<function>".
TARGETS = (
    ("activations", "eval_derivs"), ("activations", "constants"),
    ("experiment", "taylor_green_field"), ("experiment", "measure_gap"),
    ("experiment", "sample_interior"), ("experiment", "sample_initial"),
    ("experiment", "sweep_row"),
    ("training", "grad_risk"), ("training", "risk_breakdown"),
    ("training", "adamw_step"), ("training", "train"),
    ("network", "field_eval"), ("network", "save_checkpoint"),
    ("residual", "empirical_risk"), ("residual", "loss_res"), ("residual", "loss_init"),
    ("verify", "check_symmetrization"), ("verify", "check_contraction_product"),
    ("verify", "check_abs_removal"), ("verify", "check_contraction_single"),
    ("verify", "rademacher_linear"),
    ("bounds", "weight_stats"), ("bounds", "generalization_bound"),
    ("cli", "main"),
)


def _count_eval_derivs(counters, args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    counters["activations.eval_derivs.elements"] += x.size
    # Computed from array sizes: the input plus the four derivative
    # arrays returned.  Cache traffic is not measured.
    counters["activations.eval_derivs.bytes_computed"] += (
        x.nbytes + sum(np.asarray(s).nbytes for s in result))


def _count_points(name, arg_index):
    def count(counters, args, kwargs, result):
        colloc = args[arg_index] if len(args) > arg_index else kwargs["colloc"]
        counters[name + ".points"] += colloc.n_interior + colloc.n_initial
    return count


def _count_checkpoint_bytes(counters, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    counters["network.save_checkpoint.bytes"] += os.path.getsize(path)


_COUNTERS = {
    "activations.eval_derivs": _count_eval_derivs,
    "training.risk_breakdown": _count_points("training.risk_breakdown", 3),
    "residual.empirical_risk": _count_points("residual.empirical_risk", 2),
    "network.save_checkpoint": _count_checkpoint_bytes,
}


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        count = _COUNTERS.get(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def self_times(self) -> list[float]:
        return self_times(self.start.tolist(), self.end.tolist(), self.parent.tolist())

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, summed self time) per span name."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s in zip(self.name_id.tolist(), self.self_times()):
            calls[nid] += 1
            own[nid] += s
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            names=np.array(self.names), run_id=np.array(self.run_id),
                            counters=np.array(json.dumps(self.counters, sort_keys=True)))


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent.  Spans must be listed in start order, as
    a single-threaded recorder appends them."""
    n = len(start)
    covered = [0.0] * n
    reach = list(start)          # end of the covered prefix of each span
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _pinnbound_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pinnbound" or name.startswith("pinnbound."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every function in TARGETS inside the block; restore every
    original after."""
    import pinnbound.cli  # noqa: F401  (loads every module a target lives in)
    modules = _pinnbound_modules()
    patched = []
    try:
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"pinnbound.{module_name}"], func_name)
            wrapper = tracer.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


_COUNTED = ("activations.eval_derivs.elements", "activations.eval_derivs.bytes_computed",
            "training.risk_breakdown.points", "residual.empirical_risk.points",
            "network.save_checkpoint.bytes")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self time of every target, the counters, and rates
    derived from them; whatever the run did not reach reads 0."""
    totals = tracer.totals()
    m: dict[str, float] = {}
    for module_name, func_name in TARGETS:
        calls, own = totals.get(f"{module_name}.{func_name}", (0, 0.0))
        m[f"{module_name}.{func_name}.calls"] = calls
        m[f"{module_name}.{func_name}.self_s"] = own
    m.update({name: tracer.counters[name] for name in _COUNTED})
    ed, tg = "activations.eval_derivs", "experiment.taylor_green_field"
    m[ed + ".ns_per_element"] = (m[ed + ".self_s"] / m[ed + ".elements"] * 1e9
                                 if m[ed + ".elements"] else 0.0)
    m[tg + ".us_per_call"] = m[tg + ".self_s"] / m[tg + ".calls"] * 1e6 if m[tg + ".calls"] else 0.0
    m["experiment.sample.self_s"] = (m["experiment.sample_interior.self_s"]
                                     + m["experiment.sample_initial.self_s"])
    m["stages.self_s"] = sum(own for _, own in totals.values())
    return m
