import contextlib
import io
import json
import math
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnbound import (ActivationSpec, LossConfig, constants,
                       generalization_bound, init_weights, load_checkpoint,
                       moment_constants, save_checkpoint, weight_stats)
from pinnbound import cli, experiment
from pinnbound.cli import (DEFAULT_CONFIG, PRESETS, UsageError, build_parser, main,
                           resolve_config, _apply_set, _check_config, _reject_ignored, _settings)
from pinnbound.experiment import UNIT_BOX

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--set", "training.epochs=20", "--set", "dims.p=4",
        "--set", "sampling.n_r=8", "--set", "sampling.n_0=6",
        "--set", "training.log_every=10"]


def run(argv):
    return main(argv)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_set_overrides_types():
    cfg = {"a": {"b": 1}, "c": "x"}
    _apply_set(cfg, "a.b=2.5")
    _apply_set(cfg, "c=hello")
    _apply_set(cfg, "a.flag=true")
    assert cfg == {"a": {"b": 2.5, "flag": True}, "c": "hello"}


def test_resolve_config_layering(tmp_path):
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"loss": {"nu": 0.5}}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(conf), "--set", "loss.delta=2.0",
                              "--preset", "desk", "train"])
    cfg = resolve_config(args)
    assert cfg["loss"]["nu"] == 0.5
    assert cfg["loss"]["delta"] == 2.0
    assert cfg["training"]["epochs"] == DEFAULT_CONFIG["training"]["epochs"]


def test_bad_set_is_usage_error(tmp_path):
    assert run(["--set", "no_equals_sign", "--out", str(tmp_path), "train"]) == 1


def test_set_through_a_value_is_usage_error(tmp_path, capsys):
    assert run(["--set", "seed.x=1", "--out", str(tmp_path), "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


def test_missing_config_file_is_usage_error(tmp_path):
    assert run(["--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path), "train"]) == 1


def test_bad_activation_is_usage_error(tmp_path):
    assert run(["--set", "activation.family=relu",
                "--out", str(tmp_path), "train"]) == 1


def test_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run(TINY + ["--out", str(out), "train"]) == 0
    assert (out / "checkpoint.json").exists()
    history = (out / "history.csv").read_text().strip().splitlines()
    assert history[0].startswith("epoch,")
    assert history[-1].split(",")[0] == "20"
    doc = json.loads((out / "train_run.json").read_text())
    assert doc["epochs"] == 20
    assert doc["config"]["dims"]["p"] == 4
    weights, spec = load_checkpoint(out / "checkpoint.json")
    assert weights.p == 4
    assert spec == ActivationSpec.from_name("tanh", 3)


def test_train_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(TINY + ["--out", str(out_a), "train"]) == 0
    assert run(TINY + ["--out", str(out_b), "train"]) == 0
    for name in ("checkpoint.json", "history.csv", "train_run.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(tmp_path):
    code = run(["--set", "training.epochs=5", "--set", "training.learning_rate=1e160",
                "--set", "training.weight_decay=0.0", "--set", "dims.p=4",
                "--set", "sampling.n_r=4", "--set", "sampling.n_0=4",
                "--set", "training.log_every=1",
                "--out", str(tmp_path / "div"), "train"])
    assert code == 2


def test_bound_matches_library(tmp_path):
    weights = init_weights(2, 5, seed=21)
    spec = ActivationSpec.from_name("tanh", 1)
    ck = tmp_path / "ck.json"
    save_checkpoint(weights, spec, ck)
    out = tmp_path / "bound"
    assert run(["--set", "sampling.n_r=100", "--set", "sampling.n_0=2500",
                "--out", str(out), "bound", str(ck)]) == 0
    doc = json.loads((out / "bound.json").read_text())
    C_z, C_z0 = moment_constants(UNIT_BOX)
    assert (doc["C_z"], doc["C_z0"]) == (C_z, C_z0) == (1.0, math.sqrt(2 / 3))
    expected = generalization_bound(weight_stats(weights), constants(spec),
                                    LossConfig(), 100, 2500, C_z, C_z0)
    assert doc["total"] == expected.total
    assert doc["term_interior"] == expected.term_interior
    csv_lines = (out / "bound.csv").read_text().strip().splitlines()
    assert csv_lines[0].split(",")[0] == "N_r"
    assert float(csv_lines[1].split(",")[-1]) == expected.total


def test_bound_literal_convention_squares_moments(tmp_path):
    weights = init_weights(2, 5, seed=2)
    ck = tmp_path / "ck.json"
    save_checkpoint(weights, ActivationSpec.from_name("tanh", 1), ck)
    out_s = tmp_path / "sqrt"
    out_l = tmp_path / "lit"
    assert run(["--out", str(out_s), "bound", str(ck)]) == 0
    assert run(["--set", "bound.cz_convention=literal",
                "--out", str(out_l), "bound", str(ck)]) == 0
    a = json.loads((out_s / "bound.json").read_text())
    b = json.loads((out_l / "bound.json").read_text())
    assert (b["C_z"], b["C_z0"]) == (a["C_z"] ** 2, a["C_z0"] ** 2)


def test_bound_constants_override(tmp_path):
    weights = init_weights(2, 5, seed=2)
    ck = tmp_path / "ck.json"
    save_checkpoint(weights, ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "ovr"
    override = ('{"L_sigma": 1.0, "L_sigma1": 0.8, "L_sigma2": 2.0,'
                ' "B_sigma": 1.0, "B_sigma1": 1.0, "c0": 0.0, "c1": 1.0, "c2": 0.0}')
    assert run(["--set", f"bound.constants_override={override}",
                "--out", str(out), "bound", str(ck)]) == 0
    doc = json.loads((out / "bound.json").read_text())
    assert doc["sigma_constants"]["L_sigma1"] == 0.8


@pytest.mark.parametrize("assignment", ["bound=3", "bound.cz_convention=bogus",
                                        "bound.proof_variant=no"])
def test_bad_bound_section_is_usage_error(tmp_path, capsys, assignment):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "o"
    assert run(["--set", assignment, "--out", str(out), "bound", str(ck)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


def test_bound_rejects_activation_other_than_checkpoints(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "o"
    assert run(["--set", "activation.family=sigmoid", "--set", "activation.k=2",
                "--out", str(out), "bound", str(ck)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()
    # the default section stands for "the checkpoint's activation", and the
    # artifact records the activation the bound used
    assert run(["--out", str(out), "bound", str(ck)]) == 0
    doc = json.loads((out / "bound.json").read_text())
    assert doc["config"]["activation"] == {"family": "tanh", "k": 1}
    assert doc["sigma_constants"] == vars(constants(ActivationSpec.from_name("tanh", 1)))


def test_train_then_bound_with_the_same_activation(tmp_path):
    sigmoid2 = TINY + ["--set", "activation.family=sigmoid", "--set", "activation.k=2"]
    assert run(sigmoid2 + ["--out", str(tmp_path), "train"]) == 0
    assert run(sigmoid2 + ["--out", str(tmp_path), "bound",
                           str(tmp_path / "checkpoint.json")]) == 0
    doc = json.loads((tmp_path / "bound.json").read_text())
    assert doc["sigma_constants"] == vars(constants(ActivationSpec.from_name("sigmoid", 2)))


def test_bound_bad_checkpoint_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(["--out", str(tmp_path / "o"), "bound", str(bad)]) == 1
    assert run(["--out", str(tmp_path / "o"), "bound",
                str(tmp_path / "missing.json")]) == 1


VERIFY_FAST = ["--set", "verify.n_instances=2", "--set", "verify.sym_classes=1",
               "--set", "verify.sym_trials=60", "--set", "verify.n_points=6",
               "--set", "verify.grid_size=15"]


def test_verify_writes_reports_and_passes(tmp_path):
    out = tmp_path / "ver"
    assert run(VERIFY_FAST + ["--out", str(out), "verify"]) == 0
    names = {"abs_removal", "contraction_single", "contraction_product",
             "rademacher_linear_bound", "symmetrization"}
    for name in names:
        doc = json.loads((out / f"verify_{name}.json").read_text())
        assert doc["all_pass"] is True
        for check in doc["checks"]:
            assert check["verdict"] == "PASS"


def test_verify_linear_rademacher_samples_the_configured_draws(tmp_path):
    # 25 points is past the enumeration limit, so the check samples sign vectors.
    out = tmp_path / "ver"
    assert run(VERIFY_FAST + ["--set", "verify.n_points=25", "--set", "verify.n_draws=50",
                              "--out", str(out), "verify"]) == 0
    doc = json.loads((out / "verify_rademacher_linear_bound.json").read_text())
    assert [(c["n_draws"], c["exact"]) for c in doc["checks"]] == [(50, False)] * 2
    # the PASS rule of every other check: three standard errors of slack
    for c in doc["checks"]:
        assert (c["verdict"] == "PASS") == (c["lhs"] <= c["rhs"] + 3 * c["std_error"])


SWEEP_FAST = ["--set", "sweep.n_r_values=[5,10,20]", "--set", "sampling.n_0=8",
              "--set", "dims.p=4", "--set", "training.epochs=15",
              "--set", "training.log_every=5"]


def test_train_and_sweep_row_share_the_seed_layout(tmp_path, monkeypatch):
    # `pinnbound train` at a sweep row's N_r and derived seed trains the
    # row's network, bit for bit.
    trained = []
    monkeypatch.setattr(experiment, "measure_gap",
                        lambda weights, *args, **kw: trained.append(weights))
    cfg = resolve_config(build_parser().parse_args(SWEEP_FAST + ["--set", "seed=4", "sweep"]))
    experiment.sweep_row(_settings(cfg, "sweep"), 1)
    row_seed = int(np.random.default_rng((4, 1)).integers(2**31))
    out = tmp_path / "train"
    assert run(SWEEP_FAST + ["--set", "sampling.n_r=10", "--set", f"seed={row_seed}",
                             "--out", str(out), "train"]) == 0
    weights, _ = load_checkpoint(out / "checkpoint.json")
    for name in ("W", "A1", "a2"):
        assert np.array_equal(getattr(weights, name), getattr(trained[0], name))


def test_sweep_artifacts_and_resume(tmp_path):
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    csv_text = (out / "sweep.csv").read_text()
    header = csv_text.strip().splitlines()[0].split(",")
    assert header[:3] == ["N_r", "N_0", "activation"]
    assert header[-2:] == ["bound_total", "seed"]
    assert len(csv_text.strip().splitlines()) == 4
    dat = (out / "bound_vs_gap.dat").read_text().strip().splitlines()
    assert dat[0].startswith("#") and len(dat) == 4
    doc = json.loads((out / "sweep.json").read_text())
    assert len(doc["rows"]) == 3
    before = {name: (out / name).read_bytes()
              for name in ("sweep.csv", "sweep.json", "bound_vs_gap.dat")}
    # second invocation reuses the per-row caches and rewrites identical files
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    for name, blob in before.items():
        assert (out / name).read_bytes() == blob


def test_closed_stdout_still_finishes_the_sweep(tmp_path):
    # The read end is closed before the child starts, so its first line
    # already meets a broken pipe: no race with a reader.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    try:
        proc = subprocess.run([sys.executable, "-m", "pinnbound.cli", *SWEEP_FAST,
                               "--out", str(tmp_path / "piped"), "sweep"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert run(SWEEP_FAST + ["--out", str(tmp_path / "direct"), "sweep"]) == 0
    for name in ("sweep.json", "sweep.csv", "bound_vs_gap.dat"):
        assert ((tmp_path / "piped" / name).read_bytes()
                == (tmp_path / "direct" / name).read_bytes())


def test_sweep_needs_three_rows(tmp_path):
    assert run(["--set", "sweep.n_r_values=[5,10]",
                "--out", str(tmp_path / "s"), "sweep"]) == 1


@pytest.mark.parametrize("assignment", ["sweep.population_factor=1", "sweep.n_r_values=[5,6]"])
def test_sweep_settings_stop_only_the_sweep(tmp_path, capsys, assignment):
    # Only the sweep reads the `sweep` section: the other commands run with
    # values that it rejects as usage errors before any output.
    sets = TINY + ["--set", assignment]
    ck = tmp_path / "train" / "checkpoint.json"
    assert run(sets + ["--out", str(tmp_path / "train"), "train"]) == 0
    assert run(sets + ["--out", str(tmp_path / "bound"), "bound", str(ck)]) == 0
    assert run(sets + VERIFY_FAST + ["--out", str(tmp_path / "verify"), "verify"]) == 0
    capsys.readouterr()
    # SWEEP_FAST, not TINY: the sweep also rejects TINY's sampling.n_r
    assert run(SWEEP_FAST + ["--set", assignment, "--out", str(tmp_path / "sweep"), "sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""
    assert not (tmp_path / "sweep").exists()


def test_preset_figure1_changes_sampling():
    parser = build_parser()
    args = parser.parse_args(["--preset", "figure1", "train"])
    cfg = resolve_config(args)
    assert cfg["sampling"]["box"] == "figure1"
    assert cfg["sampling"]["n_r"] == 1000
    assert cfg["training"]["epochs"] == 20000


def test_sweep_cache_recomputes_rows_of_another_config(tmp_path, capsys):
    out, fresh = tmp_path / "sweep", tmp_path / "fresh"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    longer = SWEEP_FAST + ["--set", "training.epochs=16"]
    capsys.readouterr()
    assert run(longer + ["--out", str(out), "sweep"]) == 0
    assert "cached" not in capsys.readouterr().out
    assert run(longer + ["--out", str(fresh), "sweep"]) == 0
    for name in ("sweep.json", "sweep.csv", "bound_vs_gap.dat", "row_01_nr10.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    # the overwritten rows now serve the config they were computed under
    assert run(longer + ["--out", str(out), "sweep"]) == 0
    assert capsys.readouterr().out.count(": cached") == 3


DIVERGENT = ["--set", "training.learning_rate=1e307", "--set", "training.epochs=3"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_weights_are_exit_2_without_traceback(tmp_path, capsys):
    assert run(DIVERGENT + ["--set", "dims.p=4", "--set", "sampling.n_r=4",
                            "--set", "sampling.n_0=4",
                            "--out", str(tmp_path / "div"), "train"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: training diverged" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_records_nonfinite_weights_in_failed_rows(tmp_path):
    out = tmp_path / "div"
    assert run(SWEEP_FAST + DIVERGENT + ["--out", str(out), "sweep"]) == 2
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"] == []
    assert [row["N_r"] for row in doc["failed_rows"]] == [5, 10, 20]


_REAL_FORK = os.fork


def _on_cpus(monkeypatch, n: int) -> list:
    """Show the sweep n CPUs in its affinity; return the list of the pids it forks."""
    forks = []

    def fork():
        pid = _REAL_FORK()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _files(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_sweep_artifacts_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    made = {}
    for n in (1, 2):
        forks = _on_cpus(monkeypatch, n)
        assert run(SWEEP_FAST + ["--out", str(tmp_path / str(n)), "sweep"]) == 0
        assert len(forks) == (0 if n == 1 else 2)
        assert multiprocessing.active_children() == []
        made[n] = _files(tmp_path / str(n)), capsys.readouterr()
    assert made[1] == made[2]
    assert [line.split(":")[0] for line in made[2][1].out.splitlines()[:3]] == [
        "N_r=5", "N_r=10", "N_r=20"]
    assert len(made[2][0]) == 6      # three row files, sweep.json, sweep.csv, bound_vs_gap.dat


def test_cached_sweep_rows_start_no_worker_and_print_in_index_order(tmp_path, monkeypatch,
                                                                   capsys):
    out = tmp_path / "sweep"
    _on_cpus(monkeypatch, 2)
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    first = capsys.readouterr().out.splitlines()
    forks = _on_cpus(monkeypatch, 2)
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    assert forks == []
    assert capsys.readouterr().out.splitlines() == [
        "N_r=5: cached", "N_r=10: cached", "N_r=20: cached", first[-1]]
    # two rows to compute around a cached one: two workers, lines still in index order
    (out / "row_00_nr5.json").unlink()
    (out / "row_02_nr20.json").unlink()
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    assert len(forks) == 2
    assert capsys.readouterr().out.splitlines() == [first[0], "N_r=10: cached"] + first[2:]
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_rows_diverged_in_workers_are_failed_rows_in_index_order(tmp_path,
                                                                       monkeypatch):
    forks = _on_cpus(monkeypatch, 2)
    out = tmp_path / "div"
    assert run(SWEEP_FAST + DIVERGENT + ["--out", str(out), "sweep"]) == 2
    assert len(forks) == 2
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"] == []
    assert [(row["index"], row["N_r"]) for row in doc["failed_rows"]] == [(0, 5), (1, 10), (2, 20)]
    assert multiprocessing.active_children() == []


def test_floating_point_error_in_a_sweep_worker_is_exit_2(tmp_path, monkeypatch, capsys):
    def overflow(s, idx):
        raise FloatingPointError("overflow in a row")

    forks = _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "sweep_row", overflow)
    assert run(SWEEP_FAST + ["--out", str(tmp_path / "fpe"), "sweep"]) == 2
    assert len(forks) == 2
    err = capsys.readouterr().err
    assert "numerical failure: overflow in a row" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


_INTERRUPTED_SWEEP = """
import os, sys
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        os.write(2, b"forked\\n")
    return pid
os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
from pinnbound.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_ctrl_c_stops_the_sweep_and_its_workers(tmp_path):
    # Ctrl-C sends SIGINT to the whole process group; the sweep's own group
    # must be empty once the command has exited.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    long_rows = ["--set", "sweep.n_r_values=[5,10,20]", "--set", "sampling.n_0=8",
                 "--set", "dims.p=4", "--set", "training.epochs=1000000"]
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_SWEEP, *long_rows,
                             "--out", str(tmp_path / "sweep"), "sweep"],
                            stderr=subprocess.PIPE, env=env, start_new_session=True)
    try:
        # both workers started: one line per fork, each within 30 s
        seen = b""
        while seen.count(b"forked\n") < 2:
            assert select.select([proc.stderr], [], [], 30)[0], f"no worker was forked: {seen}"
            chunk = os.read(proc.stderr.fileno(), 4096)
            assert chunk, f"the sweep ended before it forked: {seen}"
            seen += chunk
        time.sleep(0.5)                     # the workers are training
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stderr.close()
    assert proc.returncode != 0
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break                           # no process is left in the group
        assert time.monotonic() < deadline, "a sweep worker outlived the command"
        time.sleep(0.05)


@pytest.mark.parametrize("assignment, command", [
    ("dims.p=abc", "train"),
    ("sampling.n_r=0", "train"),
    ("training.log_every=0", "train"),
    ("sweep.population_factor=1", "sweep"),
    ("verify.n_points=0 verify.n_instances=1 verify.sym_classes=0", "verify"),
    ("bound=3", "sweep"),
    ("bound.cz_convention=bogus", "sweep"),
    ("bound.cz_convention=literal", "sweep"),
    ("bound.proof_variant=true", "sweep"),
    ("seed=-1", "verify"),
    ("seed=-1", "sweep"),
    ("activation=3", "train"),
    ("activation.k=2.5", "train"),
    ("verify.sym_trials=1", "verify"),                   # one draw has no standard error
    ("verify.n_points=25 verify.n_draws=1", "verify"),
])
def test_bad_config_is_usage_error_before_training(tmp_path, capsys, assignment, command):
    out = tmp_path / "bad"
    sets = [arg for a in assignment.split() for arg in ("--set", a)]
    assert run(SWEEP_FAST + sets + ["--out", str(out), command]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("assignment, command", [
    ("training.epochs=2.5", "train"),
    ("training.log_every=1.5", "train"),
    ("dims.p=4.5", "train"),
    ("sampling.n_r=8.9", "train"),
    ("sampling.n_0=true", "train"),
    ("verify.n_points=2.5", "verify"),
    ("sweep.n_r_values=[5,10.5,20]", "sweep"),
    ("sweep.n_r_values=20", "sweep"),
    ("sweep.population_factor=10.0", "sweep"),
    ("dims=3", "train"),
])
def test_non_integer_count_is_usage_error_before_any_output(tmp_path, capsys, assignment,
                                                            command):
    out = tmp_path / "bad"
    assert run(SWEEP_FAST + ["--set", assignment, "--out", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("assignment, command, key", [
    ("sampling.nr=10", "train", "sampling.nr"),        # a typo for sampling.n_r
    ("bogus_section.x=1", "train", "bogus_section"),
    ("verify.bogus=3", "verify", "verify.bogus"),
    ("bound.moment_sample=1", "sweep", "bound.moment_sample"),   # gone: C_z is exact
    ("dims.d=2", "train", "dims.d"),                    # gone: the vortex is 2-dimensional
])
def test_unknown_config_key_is_usage_error_before_any_output(tmp_path, capsys, assignment,
                                                             command, key):
    out = tmp_path / "bad"
    assert run(TINY + ["--set", assignment, "--out", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""
    assert key in captured.err
    assert not out.exists()


@pytest.mark.parametrize("assignment, command", [
    ("sampling.box=[[0,1],[0,1]]", "bound"),                # 2 axes for d = 2
    # the vortex has three axes (x, y, t)
    pytest.param("sampling.box=[[0,1],[0,1],[0,1],[0,1]]", "train", id="four_axis_box-train"),
    pytest.param("sampling.box=[[0,1],[0,1],[0,1],[0,1]]", "sweep", id="four_axis_box-sweep"),
    ("sampling.box=[[0,1],[0,1],[1,0]]", "bound"),          # a degenerate interval
    ("sampling.box=[[0,1],[0,1],[1,0]]", "sweep"),
    ("sampling.box=[[0,1],[0],[0,1]]", "sweep"),            # a ragged box
    ("sampling.box=[[0,1],[0,Infinity],[0,1]]", "train"),
    ("sampling.box=[[0,1],[0,1],[0,NaN]]", "bound"),
    ("sampling.box=[[0,1,2],[0,1,2],[0,1,2]]", "train"),    # three columns
    ("sampling.box=[[0,1],[0,1]]", "sweep"),
    ("sampling.w_scale=abc", "sweep"),
    ("sampling.w_scale=0.5", "sweep"),                      # the sweep ignores it
    ("sampling.n_r=7", "sweep"),                            # rows take sweep.n_r_values
    ('loss={"nu":0.5}', "train"),                           # a section missing three keys
    ('training={"epochs":20,"log_every":10}', "bound"),
])
def test_config_defects_are_usage_errors_before_any_output(tmp_path, capsys, assignment,
                                                           command):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "bad"
    sets = [arg for a in assignment.split() for arg in ("--set", a)]
    cmd = [command, str(ck)] if command == "bound" else [command]
    assert run(SWEEP_FAST + sets + ["--out", str(out)] + cmd) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""
    assert not out.exists()


def test_ragged_box_names_the_box_rule(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run(TINY + ["--set", "sampling.box=[[0,1],[0],[0,1]]", "--out", str(out), "train"]) == 1
    err = capsys.readouterr().err
    assert "a box must be k >= 2 finite increasing intervals" in err
    assert "inhomogeneous" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, below", [("sweep", ""), ("train", "sub"), ("verify", "a/b")])
def test_out_that_cannot_be_a_directory_is_usage_error_before_any_work(tmp_path, capsys,
                                                                       command, below):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    assert run(SWEEP_FAST + VERIFY_FAST + ["--out", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --out") and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("doc", ["[1, 2]", "3", "null", '"desk"'])
def test_config_file_that_is_not_an_object_is_usage_error(tmp_path, capsys, doc):
    conf = tmp_path / "c.json"
    conf.write_text(doc)
    out = tmp_path / "out"
    assert run(["--config", str(conf), "--out", str(out), "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("preset", [None] + sorted(PRESETS))
def test_default_config_and_presets_pass_the_schema(preset):
    # every check that runs before a command, for every command
    for command in (["train"], ["bound", "ck.json"], ["verify"], ["sweep"]):
        preset_args = ["--preset", preset] if preset else []
        cfg = resolve_config(build_parser().parse_args(preset_args + command))
        if preset is None:
            assert cfg == DEFAULT_CONFIG
        _check_config(cfg)
        _reject_ignored(cfg, command[0], preset)
        _settings(cfg, command[0])
    # the sweep's rows ignore sampling.n_r: it is refused where it is not the preset's
    cfg["sampling"]["n_r"] = 7
    with pytest.raises(UsageError, match="sampling.n_r"):
        _reject_ignored(cfg, "sweep", preset)


_NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
_SECTIONS = sorted(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict))
_OUTSIDE = st.one_of(
    _NAMES.filter(lambda key: key not in DEFAULT_CONFIG),
    st.tuples(st.sampled_from(_SECTIONS), _NAMES).filter(
        lambda t: t[1] not in DEFAULT_CONFIG[t[0]]).map(".".join),
).map(lambda path: (path, 1))
_LEAVES = [(f"{sec}.{key}", default) for sec, body in DEFAULT_CONFIG.items()
           if isinstance(body, dict) for key, default in body.items()] + [("seed", 0)]
_SCALARS = st.one_of(st.integers(-5, 5), st.floats(), st.booleans(), st.text(max_size=5))
# A value of another kind than each kind of default: a float for a count, a
# bool for a number, a string for a flag, a scalar for a list, and so on.
_OTHER_KIND = {
    int: st.one_of(st.floats(), st.booleans(), st.text(max_size=5), st.lists(st.integers(1, 9))),
    float: st.one_of(st.booleans(), st.text(max_size=5), st.lists(st.integers(1, 9))),
    bool: st.one_of(st.text(max_size=5), st.integers(), st.floats()),
    list: _SCALARS,
    str: st.one_of(st.integers(), st.floats(), st.booleans()),
    type(None): st.one_of(st.booleans(), st.text(max_size=5)),
}
_WRONG_KIND = st.sampled_from(_LEAVES).flatmap(
    lambda leaf: _OTHER_KIND[type(leaf[1])].map(lambda value: (leaf[0], value)))


@pytest.mark.parametrize("command", ["train", "bound", "verify", "sweep"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=st.one_of(_OUTSIDE, _WRONG_KIND))
def test_config_outside_the_schema_is_usage_error(command, case):
    path, value = case
    with tempfile.TemporaryDirectory() as tmp:
        ck, out = Path(tmp) / "ck.json", Path(tmp) / "out"
        save_checkpoint(init_weights(2, 3, seed=0), ActivationSpec.from_name("tanh", 1), ck)
        argv = TINY + ["--set", f"{path}={json.dumps(value)}", "--out", str(out), command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv + [str(ck)] if command == "bound" else argv)
        assert (code, stdout.getvalue()) == (1, "")
        # named: the sweep also rejects TINY's sampling.n_r, but only after the schema
        assert stderr.getvalue().startswith("usage error:") and path in stderr.getvalue()
        assert not out.exists()
