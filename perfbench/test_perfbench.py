"""Tests of the benchmark itself:  python3 -m pytest perfbench

The traced runs here use the real workload arguments with a few
overrides appended (fewer epochs, fewer checks) so they take seconds.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pinnbound import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bound_names():
    """Every (module, attribute, object) in pinnbound bound to a traced function."""
    originals = {id(getattr(sys.modules[f"pinnbound.{m}"], f)) for m, f in tracing.TARGETS}
    return [(mod, attr, val) for mod in tracing._pinnbound_modules()
            for attr, val in vars(mod).items() if id(val) in originals]


def _traced_call(tmp_path, workload, extra):
    tracer = tracing.Tracer(run_id="test")
    argv = workloads.argv(workload, 0, tmp_path / "out", extra=extra)
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    assert code == 0
    return tracer, wall


def test_self_times_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]), b [5, 9] and
    # c [8, 11]; b and c overlap, and c runs past the end of root.
    start = [0.0, 1.0, 2.0, 5.0, 8.0]
    end = [10.0, 4.0, 3.0, 9.0, 11.0]
    parent = [-1, 0, 1, 0, 0]
    got = tracing.self_times(start, end, parent)
    # root is covered by a (3) and the union of b and c clipped to root (5).
    assert got == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_wrappers_restored_after_run(tmp_path):
    before = _bound_names()
    assert any(mod is sys.modules["pinnbound.training"] and attr == "eval_derivs"
               for mod, attr, _ in before)
    tracer = tracing.Tracer(run_id="test")
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert all(getattr(mod, attr) is not val for mod, attr, val in before)
            raise RuntimeError("leave the block early")
    assert all(getattr(mod, attr) is val for mod, attr, val in before)
    # An untraced call after the block records nothing.
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workloads.argv("train_tanh3", 0, tmp_path, extra=["training.epochs=2"]))
    assert len(tracer.start) == 0


def test_wrapping_reaches_imported_names_on_train(tmp_path):
    epochs = 7
    tracer, _ = _traced_call(tmp_path, "train_tanh3", [f"training.epochs={epochs}"])
    m = tracing.layer_metrics(tracer)
    assert m["training.grad_risk.calls"] == epochs
    assert m["training.adamw_step.calls"] == epochs
    # grad_risk calls eval_derivs twice per epoch through its imported name.
    assert m["activations.eval_derivs.calls"] >= 2 * epochs
    assert m["activations.eval_derivs.elements"] >= epochs * (216 + 500) * 64
    assert m["activations.eval_derivs.bytes_computed"] == 5 * 8 * m["activations.eval_derivs.elements"]
    assert m["network.field_eval.calls"] == 0
    assert m["network.save_checkpoint.bytes"] == (tmp_path / "out" / "checkpoint.json").stat().st_size


def test_wrapping_reaches_imported_names_on_verify(tmp_path):
    extra = ["verify.n_instances=1", "verify.n_draws=50", "verify.sym_classes=1",
             "verify.sym_trials=3", "verify.sym_points=2"]
    tracer, _ = _traced_call(tmp_path, "verify_suite", extra)
    m = tracing.layer_metrics(tracer)
    assert m["network.field_eval.calls"] > 0
    assert m["residual.loss_res.calls"] == 3 * 3 * 2       # trials x hypotheses x points
    # ...and once per initial point of each hypothesis's 4000-point population risk.
    assert m["residual.loss_init.calls"] == 3 * 3 * 2 + 3 * 4000
    assert m["residual.empirical_risk.calls"] == 3
    assert m["experiment.taylor_green_field.calls"] > 0
    assert m["verify.check_symmetrization.self_s"] > 0
    assert m["training.grad_risk.calls"] == 0


def test_stage_self_times_account_for_traced_wall(tmp_path):
    tracer, wall = _traced_call(tmp_path, "train_tanh3", ["training.epochs=20"])
    m = tracing.layer_metrics(tracer)
    assert m["stages.self_s"] == pytest.approx(wall, rel=0.05)


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))


def test_check_rejects_a_moved_final_risk(tmp_path):
    golden = {"train_tanh3": {"0": {"final_risk": 1.0}}}
    _write(tmp_path / "train_run.json", {"final_risk": 1.0 + 5e-5, "epochs": 1})
    assert workloads.check("train_tanh3", 0, 0, tmp_path, golden)["failed"] == 0
    _write(tmp_path / "train_run.json", {"final_risk": 1.0 + 2e-4, "epochs": 1})
    result = workloads.check("train_tanh3", 0, 0, tmp_path, golden)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_check_sweep_rows_and_tracking(tmp_path):
    def doc(totals, gaps, r):
        return {"rows": [{"N_r": n, "gap": g, "bound": {"total": b}}
                         for n, g, b in zip((27, 64, 125), gaps, totals)],
                "pearson_r": r, "failed_rows": [],
                "config": {"sweep": {"n_r_values": [27, 64, 125]}}}
    golden = {"sweep_expnegrelu3": {"0": {"gaps": [0.3, 0.2, 0.1], "tracks_gap": True},
                                    "1": {"gaps": [0.3, 0.2, 0.1], "tracks_gap": False}}}
    _write(tmp_path / "sweep.json", doc([3.0, 2.0, 1.0], [0.3, 0.2, 0.1], 1.0))
    ok = workloads.check("sweep_expnegrelu3", 0, 0, tmp_path, golden)
    assert (ok["attempted"], ok["failed"], ok["errors"]) == (3, 0, [])
    # The bound column no longer decreases: an error where it did at record time.
    _write(tmp_path / "sweep.json", doc([3.0, 2.0, 2.5], [0.3, 0.2, 0.1], 0.9))
    assert workloads.check("sweep_expnegrelu3", 0, 0, tmp_path, golden)["errors"]
    assert not workloads.check("sweep_expnegrelu3", 1, 0, tmp_path, golden)["errors"]
    # A bound under its gap and a moved gap each fail their row.
    _write(tmp_path / "sweep.json", doc([3.0, 0.1, 0.05], [0.3, 0.2, 0.1001], 1.0))
    assert workloads.check("sweep_expnegrelu3", 1, 0, tmp_path, golden)["failed"] == 2
