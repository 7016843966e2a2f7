import contextlib
import copy
import io
import json
import math
import multiprocessing
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pinnbound import (ActivationSpec, LossConfig, constants,
                       generalization_bound, init_weights, load_checkpoint,
                       moment_constants, save_checkpoint, weight_stats)
from pinnbound import cli, experiment
from pinnbound.cli import (DEFAULT_CONFIG, PRESETS, UsageError, build_parser, main,
                           resolve_config, _check_config, _SCHEMA, _settings)
from pinnbound.experiment import UNIT_BOX, SweepConfig

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
TINY = ["--set", "training.epochs=20", "--set", "dims.p=4",
        "--set", "sampling.n_r=8", "--set", "sampling.n_0=6",
        "--set", "training.log_every=10"]


def run(argv):
    return main(argv)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_set_overrides_types():
    # a value is JSON where it parses and the raw string otherwise
    cfg = resolve_config(build_parser().parse_args([
        "--set", "loss.nu=2.5", "--set", "activation.family=sigmoid",
        "--set", "bound.proof_variant=true", "train"]))
    assert (cfg["loss"]["nu"], cfg["activation"]["family"], cfg["bound"]["proof_variant"]) == (
        2.5, "sigmoid", True)


@pytest.mark.parametrize("assignment, command", [
    ('loss={"nu":0.5}', "train"),
    ('training={"epochs":20,"log_every":10}', "bound"),
])
def test_set_of_a_section_merges(tmp_path, assignment, command):
    # like the same leaves set one by one, and like the same object in a config file
    name, body = assignment.split("=", 1)
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({name: json.loads(body)}))
    leaves = [arg for key, val in json.loads(body).items()
              for arg in ("--set", f"{name}.{key}={json.dumps(val)}")]
    command = [command, "ck.json"] if command == "bound" else [command]
    cfgs = [resolve_config(build_parser().parse_args(way + command))
            for way in (["--set", assignment], leaves, ["--config", str(conf)])]
    assert cfgs[0] == cfgs[1] == cfgs[2]
    assert cfgs[0][name] == {**DEFAULT_CONFIG[name], **json.loads(body)}
    _settings(cfgs[0], command[0])


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
    assert err.startswith("usage error: seed must be")
    assert "Traceback" not in err


def test_section_replaced_then_partly_set_is_usage_error(tmp_path, capsys):
    # the second --set merges into the value 1, which it replaces by {"k": 1}
    out = tmp_path / "out"
    assert run(["--set", "activation=1", "--set", "activation.k=1", "--out", str(out),
                "train"]) == 1
    assert capsys.readouterr().err == "usage error: missing config keys: activation.family\n"
    assert not out.exists()


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


def test_bound_that_overflows_is_a_numerical_failure_without_an_artifact(tmp_path, capsys):
    # B_sigma * L_sigma1 = 1e400 overflows C1: inf is no number for bound.json to hold
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    override = {"L_sigma": 1e200, "L_sigma1": 1e200, "L_sigma2": 1, "B_sigma": 1e200,
                "B_sigma1": 1e200, "c0": 0, "c1": 0, "c2": 0}
    out = tmp_path / "out"
    assert run(["--set", f"bound.constants_override={json.dumps(override)}",
                "--out", str(out), "bound", str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1
    assert captured.out == "" and list(out.iterdir()) == []


# the sup of exp(-x)relu(x)^k's third derivative overflows a float from k = 140 on
EXPNEGRELU140 = ["--set", "activation.family=expnegrelu", "--set", "activation.k=140"]


def _is_one_numerical_failure_line_without_an_artifact(capsys, out):
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: the constants of expnegrelu^140 are not finite\n"
    assert captured.out == "" and list(out.iterdir()) == []


def test_bound_of_an_activation_without_finite_constants_is_a_numerical_failure(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("expnegrelu", 140), ck)
    out = tmp_path / "out"
    assert run(EXPNEGRELU140 + ["--out", str(out), "bound", str(ck)]) == 2
    _is_one_numerical_failure_line_without_an_artifact(capsys, out)


def _is_usage_error_before_any_output(tmp_path, capsys, assignments, command, key=""):
    """The sweep's fast settings, then `--set` each of `assignments`, end `command` in one usage
    error that names `key`, before anything is printed or --out is made."""
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "bad"
    sets = [arg for assignment in assignments for arg in ("--set", assignment)]
    cmd = [command, str(ck)] if command == "bound" else [command]
    assert run(SWEEP_FAST + sets + ["--out", str(out)] + cmd) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and key in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("assignment", [
    "bound=3", "bound.cz_convention=bogus", "bound.proof_variant=no",
    'bound.constants_override={"L_sigma":1}',                      # seven constants missing
    pytest.param('bound.constants_override={"L_sigma": 1.0, "L_sigma1": "0.8", "L_sigma2": 2.0,'
                 ' "B_sigma": 1.0, "B_sigma1": 1.0, "c0": 0.0, "c1": 1.0, "c2": 0.0}',
                 id="constants_override-a_string"),
])
def test_bad_bound_section_is_usage_error(tmp_path, capsys, assignment):
    _is_usage_error_before_any_output(tmp_path, capsys, [assignment], "bound",
                                      assignment.split("=")[0])


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


def test_sweep_of_an_activation_without_finite_constants_fails_before_training(
        tmp_path, capsys, monkeypatch):
    # the sweep evaluates its constants before any row, so no row trains; with
    # constants given, the same activation sweeps
    trained = []
    real_train = experiment.train
    monkeypatch.setattr(experiment, "train", lambda *args: trained.append(1) or real_train(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})    # every row in this process
    out = tmp_path / "out"
    assert run(SWEEP_FAST + EXPNEGRELU140 + ["--out", str(out), "sweep"]) == 2
    _is_one_numerical_failure_line_without_an_artifact(capsys, out)
    assert trained == []
    override = {name: 1.0 for name in ("L_sigma", "L_sigma1", "L_sigma2", "B_sigma", "B_sigma1")}
    override.update(c0=0.0, c1=0.0, c2=0.0)
    assert run(SWEEP_FAST + EXPNEGRELU140 + [
        "--set", f"bound.constants_override={json.dumps(override)}",
        "--out", str(out), "sweep"]) == 0
    assert len(trained) == 3


def test_train_and_sweep_row_share_the_seed_layout(tmp_path, monkeypatch):
    # `pinnbound train` at a sweep row's N_r and derived seed trains the
    # row's network, bit for bit.
    trained = []
    monkeypatch.setattr(experiment, "measure_gap",
                        lambda cfg, weights, *args: trained.append(weights))
    cfg = resolve_config(build_parser().parse_args(SWEEP_FAST + ["--set", "seed=4", "sweep"]))
    experiment.sweep_row(_settings(cfg, "sweep")[1], 1)
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
    try:
        proc = subprocess.run([sys.executable, "-m", "pinnbound.cli", *SWEEP_FAST,
                               "--out", str(tmp_path / "piped"), "sweep"],
                              stdout=write_end, stderr=subprocess.PIPE, env=ENV, timeout=120)
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
    assert cfg["sampling"]["box"] == [[0.0, 2.0], [0.0, 2.0], [0.0, 1.0]]
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


def test_sweep_cache_reuses_rows_whose_sweep_settings_match(tmp_path, capsys):
    # The sweep neither reads nor records the `verify` section: changing it
    # serves every row from its file and writes the same files.
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    before = _files(out)
    capsys.readouterr()
    assert run(SWEEP_FAST + ["--set", "verify.n_draws=100", "--out", str(out), "sweep"]) == 0
    assert capsys.readouterr().out.count(": cached") == 3
    assert _files(out) == before
    # a setting that a row reads recomputes it
    assert run(SWEEP_FAST + ["--set", "loss.nu=0.02", "--out", str(out), "sweep"]) == 0
    assert "cached" not in capsys.readouterr().out


def test_sweep_cache_is_shared_with_and_without_the_preset(tmp_path, capsys):
    # A row file records only the settings that the sweep reads, so the same
    # settings given by `--preset figure1` or one by one share its rows, in
    # both directions, though the preset's sampling.n_r is not the default's.
    out = tmp_path / "sweep"
    by_preset = SWEEP_FAST + ["--preset", "figure1", "--out", str(out), "sweep"]
    by_hand = SWEEP_FAST + ["--set", "sampling.box=[[0.0,2.0],[0.0,2.0],[0.0,1.0]]",
                            "--out", str(out), "sweep"]
    assert run(by_preset) == 0
    before = _files(out)
    for argv in (by_hand, by_preset):
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.count(": cached") == 3
        assert _files(out) == before


def test_sweep_cache_serves_the_preset_box_written_as_integer_intervals(tmp_path, capsys):
    # the box compares by value, and every record spells it as floats: no byte changes
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--preset", "figure1", "--out", str(out), "sweep"]) == 0
    before = _files(out)
    capsys.readouterr()
    assert run(SWEEP_FAST + ["--set", "sampling.box=[[0,2],[0,2],[0,1]]", "--out", str(out),
                             "sweep"]) == 0
    assert capsys.readouterr().out.count(": cached") == 3
    assert _files(out) == before


def test_sweep_cache_serves_its_rows_when_n_r_values_are_appended(tmp_path, capsys):
    # A row reads only its own N_r and index of the N_r values, and its file
    # name holds both: appending a value computes only the new row, and going
    # back serves every row, each run leaving the row files as they were.
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    first = _files(out)
    rows = {name: blob for name, blob in first.items() if name.name.startswith("row_")}
    assert len(rows) == 3
    capsys.readouterr()
    assert run(SWEEP_FAST + ["--set", "sweep.n_r_values=[5,10,20,40]",
                             "--out", str(out), "sweep"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["N_r=5: cached", "N_r=10: cached", "N_r=20: cached"]
    assert lines[3].startswith("N_r=40: gap=") and len(lines) == 5
    assert {name: blob for name, blob in _files(out).items() if name in rows} == rows
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == lines[:3]
    last = _files(out)
    assert {name: blob for name, blob in last.items() if name in rows} == rows
    assert last[Path("sweep.json")] == first[Path("sweep.json")]


# Another valid value for one setting of each entry of `cli._IGNORES`.
_ANOTHER = {"dims": "dims.p=5", "training": "training.epochs=21", "sampling": "sampling.n_r=9",
            "sampling.n_r": "sampling.n_r=9", "sampling.w_scale": "sampling.w_scale=0.5",
            "bound": "bound.proof_variant=true", "bound.proof_variant": "bound.proof_variant=true",
            "bound.cz_convention": "bound.cz_convention=literal",
            "verify": "verify.n_draws=100", "sweep": "sweep.population_factor=20", "seed": "seed=3"}


@pytest.mark.parametrize("command", ["train", "bound", "verify", "sweep"])
def test_settings_a_command_ignores_change_nothing_it_writes_sweep_included(tmp_path, capsys,
                                                                           command):
    # The table of ignored settings is true: changing one setting of each
    # entry of the command's row leaves its artifacts (their `config`
    # included), its printed lines and its exit code as they were.  The sweep
    # refuses the single settings that it ignores, so there only `verify.*`.
    ignored = cli._IGNORES[command]
    assert all(entry in _SCHEMA or entry in DEFAULT_CONFIG for entry in ignored)
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 3, seed=0), ActivationSpec.from_name("tanh", 3), ck)

    def outcome(sets, out):
        capsys.readouterr()
        code = run(SWEEP_FAST + VERIFY_FAST + sets + ["--out", str(out), command]
                   + [str(ck)] * (command == "bound"))
        return code, capsys.readouterr().out.replace(str(out), "OUT"), _files(out)

    base = outcome([], tmp_path / "base")
    assert base[0] == 0 and base[2]
    for entry in ignored:
        got = outcome(["--set", _ANOTHER[entry]], tmp_path / entry)
        if command == "sweep" and "." in entry:
            assert got == (1, "", {}), entry
        else:
            assert got == base, entry


DIVERGENT = ["--set", "training.learning_rate=1e307", "--set", "training.epochs=3"]


def test_nonfinite_weights_are_exit_2_without_traceback(tmp_path, capsys):
    assert run(DIVERGENT + ["--set", "dims.p=4", "--set", "sampling.n_r=4",
                            "--set", "sampling.n_0=4",
                            "--out", str(tmp_path / "div"), "train"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: training diverged" in err
    assert "Traceback" not in err


def test_sweep_records_nonfinite_weights_in_failed_rows(tmp_path):
    out = tmp_path / "div"
    assert run(SWEEP_FAST + DIVERGENT + ["--out", str(out), "sweep"]) == 2
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"] == []
    assert [row["N_r"] for row in doc["failed_rows"]] == [5, 10, 20]


def test_diverged_train_and_sweep_print_only_their_own_lines(tmp_path):
    # numpy's overflow warnings stay out of stderr, the sweep workers' too
    def stderr_lines(*argv):
        proc = subprocess.run([sys.executable, "-m", "pinnbound.cli", *argv],
                              capture_output=True, text=True, env=ENV, timeout=120)
        assert proc.returncode == 2
        return proc.stderr.splitlines()

    train = stderr_lines(*DIVERGENT, "--set", "dims.p=4", "--set", "sampling.n_r=4",
                         "--set", "sampling.n_0=4", "--out", str(tmp_path / "train"), "train")
    assert len(train) == 1 and train[0].startswith("numerical failure: training diverged")
    sweep = stderr_lines(*SWEEP_FAST, *DIVERGENT, "--out", str(tmp_path / "sweep"), "sweep")
    assert [line.split(": ")[0] for line in sweep] == ["N_r=5", "N_r=10", "N_r=20"]
    assert all(line.split(": ", 1)[1].startswith("training diverged (") for line in sweep)


def test_sweep_of_two_rows_left_says_why_r_is_undefined(tmp_path, monkeypatch, capsys):
    def first_row_diverges(s, idx):
        if idx == 0:
            raise RuntimeError("row 0 diverged")
        return experiment.sweep_row(s, idx)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "sweep_row", first_row_diverges)
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert len({row["gap"] for row in rows}) == len({row["bound"]["total"] for row in rows}) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "pearson_r undefined (fewer than 3 rows or a constant column)")


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
    for n in (1, 2, 3):               # three workers on two cores, too
        forks = _on_cpus(monkeypatch, n)
        assert run(SWEEP_FAST + ["--out", str(tmp_path / str(n)), "sweep"]) == 0
        assert len(forks) == (0 if n == 1 else n)
        assert multiprocessing.active_children() == []
        made[n] = _files(tmp_path / str(n)), capsys.readouterr()
    assert made[1] == made[2] == made[3]
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_row_file_that_cannot_be_written_is_one_line_and_leaves_no_worker(
        tmp_path, monkeypatch, capsys, cpus):
    # Neither a failed row nor a numerical failure: the OSError of a row,
    # computed here or in a worker, ends the sweep once the rows handed to
    # workers are back; only the rows before it are reported.
    _on_cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    blocked = out / "row_01_nr10.json"
    blocked.mkdir(parents=True)
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:") and captured.err.count("\n") == 1
    assert f"Is a directory: '{blocked}'" in captured.err
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["N_r=5"]
    assert multiprocessing.active_children() == []


_INTERRUPTED_SWEEP = """
import os, sys
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        os.write(2, b"forked %d\\n" % pid)
    return pid
os.fork = fork
os.sched_getaffinity = lambda pid: {0, 1}
from pinnbound.cli import main
sys.exit(main(sys.argv[1:]))
"""


@contextlib.contextmanager
def _long_sweep(tmp_path):
    """A sweep whose rows train for hours, with two workers, in a session of its own: yields
    the process, its workers' pids in fork order and its stderr so far once both are training,
    and then checks that no process is left in its group."""
    long_rows = ["--set", "sweep.n_r_values=[5,10,20]", "--set", "sampling.n_0=8",
                 "--set", "dims.p=4", "--set", "training.epochs=1000000"]
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTED_SWEEP, *long_rows,
                             "--out", str(tmp_path / "sweep"), "sweep"],
                            stderr=subprocess.PIPE, env=ENV, start_new_session=True)
    try:
        # both workers started: one line per fork, each within 30 s
        seen = b""
        while seen.count(b"forked ") < 2:
            assert select.select([proc.stderr], [], [], 30)[0], f"no worker was forked: {seen}"
            chunk = os.read(proc.stderr.fileno(), 4096)
            assert chunk, f"the sweep ended before it forked: {seen}"
            seen += chunk
        time.sleep(0.5)                     # the workers are training
        yield proc, [int(line.split()[1]) for line in seen.splitlines()], seen
        deadline = time.monotonic() + 10
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break                       # no process is left in the group
            assert time.monotonic() < deadline, "a sweep worker outlived the command"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()


def _stops_the_sweep_and_its_workers(tmp_path, interrupt):
    """Start a long sweep, `interrupt(pid)` it once both workers are training, and check that
    it says so, exits 130, and leaves no process behind."""
    with _long_sweep(tmp_path) as (proc, workers, seen):
        interrupt(proc.pid)
        rest = proc.communicate(timeout=60)[1]
        assert proc.returncode == 130
        assert b"Traceback" not in seen + rest and rest.endswith(b"interrupted\n")


def test_sweep_worker_killed_from_outside_ends_the_sweep_and_its_workers(tmp_path):
    # `kill -9` of a worker, or the kernel's OOM killer: the first worker forked computes the
    # largest N_r.  The sweep names the row it lost and the worker's exit code, exits 1, and
    # kills the other worker, instead of waiting forever for the lost row
    with _long_sweep(tmp_path) as (proc, workers, seen):
        os.kill(workers[0], signal.SIGKILL)
        rest = proc.communicate(timeout=60)[1]
        assert proc.returncode == 1
        assert b"Traceback" not in seen + rest
        assert rest == b"lost sweep worker: N_r=20, exit code -9\n"


def test_ctrl_c_stops_the_sweep_and_its_workers(tmp_path):
    # Ctrl-C sends SIGINT to the whole process group
    _stops_the_sweep_and_its_workers(tmp_path, lambda pid: os.killpg(pid, signal.SIGINT))


def test_sigterm_stops_the_sweep_and_its_workers(tmp_path):
    # `kill` sends SIGTERM to the main process alone: it must stop its workers itself
    _stops_the_sweep_and_its_workers(tmp_path, lambda pid: os.kill(pid, signal.SIGTERM))


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
    ("training.eps_adam=-1e-3", "train"),               # AdamW takes neither negative
    ("training.weight_decay=-5", "train"),
])
def test_bad_config_is_usage_error_before_training(tmp_path, capsys, assignment, command):
    _is_usage_error_before_any_output(tmp_path, capsys, assignment.split(), command)


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
    _is_usage_error_before_any_output(tmp_path, capsys, [assignment], command)


@pytest.mark.parametrize("assignment, command, key", [
    ("sampling.nr=10", "train", "sampling.nr"),        # a typo for sampling.n_r
    ("bogus_section.x=1", "train", "bogus_section"),
    ("verify.bogus=3", "verify", "verify.bogus"),
    ("bound.moment_sample=1", "sweep", "bound.moment_sample"),   # gone: C_z is exact
    ("dims.d=2", "train", "dims.d"),                    # gone: the vortex is 2-dimensional
])
def test_unknown_config_key_is_usage_error_before_any_output(tmp_path, capsys, assignment,
                                                             command, key):
    _is_usage_error_before_any_output(tmp_path, capsys, [assignment], command, key)


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
])
def test_config_defects_are_usage_errors_before_any_output(tmp_path, capsys, assignment,
                                                           command):
    _is_usage_error_before_any_output(tmp_path, capsys, [assignment], command)


_HUGE = "1" + "0" * 400             # an integer too large for a float


@pytest.mark.parametrize("assignment, command, key", [
    (f"loss.nu={_HUGE}", "train", "loss.nu"),
    (f"sampling.w_scale={_HUGE}", "train", "sampling.w_scale"),
    (f"sampling.box=[[0,1],[0,{_HUGE}],[0,1]]", "train", "a box must be"),
    (f'bound.constants_override={{"L_sigma":{_HUGE},"L_sigma1":1,"L_sigma2":1,"B_sigma":1,'
     f'"B_sigma1":1,"c0":0,"c1":0,"c2":0}}', "bound", "bound.constants_override"),
], ids=["loss.nu", "sampling.w_scale", "sampling.box", "bound.constants_override"])
def test_integer_too_large_for_a_float_is_usage_error_before_any_output(tmp_path, capsys,
                                                                          assignment, command,
                                                                          key):
    _is_usage_error_before_any_output(tmp_path, capsys, [assignment], command, key)


@pytest.mark.parametrize("command", ["train", "bound", "verify", "sweep"])
@pytest.mark.parametrize("name", ["unit", "figure1"])
def test_box_by_name_is_usage_error_before_any_output(tmp_path, capsys, name, command):
    # a box is its intervals, in every config and artifact
    _is_usage_error_before_any_output(tmp_path, capsys, [f"sampling.box={name}"], command,
                                      "sampling.box")


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


_LONG = "a" * 300                  # a longer file name than any file system takes


@pytest.mark.parametrize("command, out", [
    ("train", _LONG), ("bound", _LONG), ("verify", _LONG), ("sweep", _LONG),
    ("train", f"x/{_LONG}/y"),
], ids=["train", "bound", "verify", "sweep", "train-below_a_long_name"])
def test_out_that_cannot_be_made_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys,
                                                                 command, out):
    def ran(*args):
        raise AssertionError(f"{command} ran")

    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    monkeypatch.setattr(cli, f"cmd_{command}", ran)
    monkeypatch.chdir(tmp_path)
    assert run(["--out", out, command] + [str(ck)] * (command == "bound")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --out") and captured.err.count("\n") == 1
    assert "File name too long" in captured.err and captured.out == ""
    # mkdir leaves the parents it made before the long name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"] + ["x"] * ("/" in out)


@pytest.mark.parametrize("command, blocked", [("train", "checkpoint.json"),
                                              ("sweep", "sweep.json")])
def test_artifact_that_cannot_be_written_is_one_line_and_exit_1(tmp_path, capsys, command,
                                                                blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert run(SWEEP_FAST + ["--out", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error:") and captured.err.count("\n") == 1
    assert f"Is a directory: '{out / blocked}'" in captured.err
    # the sweep's rows were done, and the files written before the failure stay
    assert captured.out.count("\n") == (3 if command == "sweep" else 0)
    assert len(list(out.iterdir())) == (6 if command == "sweep" else 1)


# numpy refuses each of these arrays at once (1.7-2.8 EiB, beyond any 64-bit address space),
# so nothing is allocated
@pytest.mark.parametrize("argv, cpus", [
    (["--set", "sampling.n_r=100000000000000000", "train"], 1),
    (["--set", "verify.n_points=40", "--set", "verify.n_draws=10000000000000000", "verify"], 1),
    (SWEEP_FAST + ["--set", "sweep.population_factor=10000000000000000", "sweep"], 1),
    (SWEEP_FAST + ["--set", "sweep.population_factor=10000000000000000", "sweep"], 2)])
def test_array_too_large_is_one_line_and_exit_1_sweep_included(tmp_path, monkeypatch, capsys,
                                                               argv, cpus):
    _on_cpus(monkeypatch, cpus)
    assert run(argv[:-1] + ["--out", str(tmp_path / "out"), argv[-1]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


_SIGMA_INTEGERS = {"L_sigma": 1, "L_sigma1": 1, "L_sigma2": 2, "B_sigma": 1, "B_sigma1": 1,
                   "c0": 0, "c1": 1, "c2": 0}
# Two spellings of one config, and the commands that read the settings they spell.
_SPELLINGS = [
    # loss.delta and loss.lambda0 default to 1.0
    ([], ["loss.delta=1", "loss.lambda0=1"], ("train", "bound", "sweep")),
    (["sampling.w_scale=1.0"], ["sampling.w_scale=1"], ("train",)),
    ([], ["sampling.box=[[0,1],[0,1],[0,1]]"], ("train", "bound", "sweep")),
    ([f"bound.constants_override={json.dumps({k: float(v) for k, v in _SIGMA_INTEGERS.items()})}"],
     [f"bound.constants_override={json.dumps(_SIGMA_INTEGERS)}"], ("bound", "sweep")),
]


@pytest.mark.parametrize("command", ["train", "bound", "sweep"])
def test_integer_spelling_of_a_float_setting_writes_the_same_bytes(tmp_path, capsys, command):
    # a real-valued setting reads its integers as floats: 1 and 1.0 are one config
    settings, inputs = (SWEEP_FAST if command == "sweep" else TINY), []
    if command == "bound":
        assert run(TINY + ["--out", str(tmp_path / "trained"), "train"]) == 0
        inputs = [str(tmp_path / "trained" / "checkpoint.json")]
        capsys.readouterr()
    for floats, integers, commands in _SPELLINGS:
        if command not in commands:
            continue
        made = []
        for spelling in (floats, integers):
            out = tmp_path / f"out{len(made)}"
            sets = [arg for assignment in spelling for arg in ("--set", assignment)]
            assert run(settings + sets + ["--out", str(out), command, *inputs]) == 0
            made.append((_files(out), capsys.readouterr().out.replace(str(out), "out")))
            shutil.rmtree(out)
        assert made[0] == made[1], integers


@pytest.mark.parametrize("doc", ["[1, 2]", "3", "null", '"desk"'])
def test_config_file_that_is_not_an_object_is_usage_error(tmp_path, capsys, doc):
    conf = tmp_path / "c.json"
    conf.write_text(doc)
    out = tmp_path / "out"
    assert run(["--config", str(conf), "--out", str(out), "train"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bound", "verify", "sweep"])
def test_default_config_gives_the_library_defaults(command):
    # DEFAULT_CONFIG reads its run defaults from SweepConfig; _settings maps
    # a null constants_override back to the library's
    assert _settings(copy.deepcopy(DEFAULT_CONFIG), command)[1] == SweepConfig()


@pytest.mark.parametrize("preset", [None] + sorted(PRESETS))
def test_default_config_and_presets_pass_the_schema(preset):
    # every check that runs before a command, for every command
    for command in (["train"], ["bound", "ck.json"], ["verify"], ["sweep"]):
        preset_args = ["--preset", preset] if preset else []
        cfg = resolve_config(build_parser().parse_args(preset_args + command))
        if preset is None:
            assert cfg == DEFAULT_CONFIG
        _check_config(cfg)
        _settings(cfg, command[0], preset)
    # the sweep's rows ignore sampling.n_r: it is refused where it is not the preset's
    cfg["sampling"]["n_r"] = 7
    with pytest.raises(UsageError, match="sampling.n_r"):
        _settings(cfg, "sweep", preset)


@pytest.mark.parametrize("command, sets", [
    ("train", []), ("bound", []), ("verify", []), ("sweep", []),
    ("train", ["--set", "training.learning_rate=-1"]),   # a usage error after the schema check
], ids=["train", "bound", "verify", "sweep", "usage_error"])
def test_each_command_checks_the_config_once(tmp_path, monkeypatch, command, sets):
    calls = []
    check = cli._check_config
    monkeypatch.setattr(cli, "_check_config", lambda cfg: calls.append(cfg) or check(cfg))
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 3, seed=0), ActivationSpec.from_name("tanh", 3), ck)
    code = run(SWEEP_FAST + VERIFY_FAST + sets + ["--out", str(tmp_path / "out"), command]
               + [str(ck)] * (command == "bound"))
    assert code == (1 if sets else 0) and len(calls) == 1


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


def test_sweep_recomputes_a_row_file_it_cannot_rebuild(tmp_path):
    # the row file holds the same config but not a whole row
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    before = _files(out)
    row_file = out / "row_01_nr10.json"
    row_file.write_text(json.dumps({**json.loads(row_file.read_text()), "row": {"N_r": 10}}))
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    assert _files(out) == before


@pytest.mark.parametrize("path, value", [
    (("row", "train_risk"), "x"),
    (("row", "bound", "term_interior"), "1"),
    (("row", "bound", "term_initial"), "2"),
    (("config",), []),
    (("config", "loss"), {"nu": 0.01}),
])
def test_sweep_recomputes_a_row_file_of_wrong_value_types(tmp_path, capsys, path, value):
    # a row that does not rebuild to itself, or whose config is not a valid
    # one, is computed again and its file rewritten
    out = tmp_path / "sweep"
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    before = _files(out)
    row_file = out / "row_01_nr10.json"
    doc = json.loads(row_file.read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    row_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(SWEEP_FAST + ["--out", str(out), "sweep"]) == 0
    assert capsys.readouterr().out.count(": cached") == 2
    assert _files(out) == before


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "c.json"
    conf.write_bytes(b'{"seed": "\xff"}')
    out = tmp_path / "out"
    assert run(["--config", str(conf), "--out", str(out), "train"]) == 1
    assert capsys.readouterr().err.startswith(f"usage error: cannot read config {conf}")
    assert not out.exists()


def test_checkpoint_of_infinite_size_cannot_be_loaded(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 3, seed=0), ActivationSpec.from_name("tanh", 3), ck)
    ck.write_text(ck.read_text().replace('"d": 2', '"d": 1e400'))
    out = tmp_path / "out"
    assert run(["--out", str(out), "bound", str(ck)]) == 1
    assert capsys.readouterr().err.startswith("usage error: cannot load checkpoint:")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    (("activation", "k"), 3.9), (("activation", "k"), True), (("activation", "k"), "3"),
    (("d",), 2.5), (("p",), "4"),
], ids=["k_3.9", "k_true", "k_string", "d_2.5", "p_string"])
def test_checkpoint_header_of_another_kind_cannot_be_loaded(tmp_path, capsys, key, value):
    # the checkpoint's counts meet the config's rule: none is truncated or parsed
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 4, seed=0), ActivationSpec.from_name("tanh", 3), ck)
    doc = json.loads(ck.read_text())
    (doc["activation"] if len(key) == 2 else doc)[key[-1]] = value
    ck.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["--out", str(out), "bound", str(ck)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: cannot load checkpoint:")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["--bogus", "train"], 1), (["bound"], 1), (["--preset", "nope", "train"], 1), (["--help"], 0)])
def test_command_line_usage_error_is_exit_1(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert list(tmp_path.iterdir()) == []


# A run of each command that takes milliseconds; the generated settings come
# after it, and a config file before it.
_TINY_RUN = [f"--set={key}={val}" for key, val in [
    ("training.epochs", 3), ("training.log_every", 1), ("dims.p", 2), ("sampling.n_0", 4),
    ("sweep.n_r_values", "[2,3,4]"), ("verify.n_instances", 1), ("verify.n_draws", 2),
    ("verify.n_points", 2), ("verify.grid_size", 2), ("verify.sym_classes", 1),
    ("verify.sym_trials", 2), ("verify.sym_points", 2)]]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 8) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_PATHS = st.sampled_from(sorted(_SCHEMA) + _SECTIONS) | st.lists(
    st.text("abgnsx_.", max_size=5), min_size=1, max_size=3).map(".".join)
# a count, any JSON value, or a string that --set keeps raw
_VALUES = st.integers(1, 8).map(str) | _JSON.map(json.dumps) | st.text(max_size=4)
_TOKENS = st.sampled_from(["--bogus", "-h", "--help", "--preset", "nope", "figure1", "--set",
                           "--config", "train", "bound", "x=1", "--"]) | st.text("abcdeh-=.",
                                                                                max_size=6)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=st.none() | _JSON.map(json.dumps).map(str.encode) | st.binary(max_size=12),
       sets=st.just([]) | st.lists(st.tuples(_PATHS, _VALUES), min_size=1, max_size=2),
       extra=st.just([]) | st.lists(_TOKENS, min_size=1, max_size=2),
       out=st.sampled_from(["out", "file", "file/below", "missing/parent/out"]),
       command=st.sampled_from(["train", "bound", "verify", "sweep"]))
def test_generated_command_lines_end_in_a_documented_exit_code(config, sets, extra, out,
                                                               command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        save_checkpoint(init_weights(2, 2, seed=0), ActivationSpec.from_name("tanh", 3),
                        root / "ck.json")
        (root / "file").write_text("kept\n")
        argv = extra + (["--config", str(root / "c.json")] if config is not None else [])
        if config is not None:
            (root / "c.json").write_bytes(config)
        argv += _TINY_RUN + [f"--set={path}={val}" for path, val in sets]
        argv += ["--out", str(root / out), command] + ([str(root / "ck.json")] * (command == "bound"))
        before = _tree(root)
        cwd = os.getcwd()
        os.chdir(root)                  # where a relative path in `extra` would land
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        event(f"exit {code} {command}")
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert _tree(root) == before


def test_readme_copies_the_ignored_settings_and_the_keys_with_their_own_rule():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| command | ignores |\n| --- | --- |\n")[1].split("\n\n")[0]
    names = [re.findall(r"`([\w.]+)`", line) for line in table.splitlines()]
    assert {command: tuple(ignored) for command, *ignored in names} == cli._IGNORES
    own_rule = " ".join(readme.split()).split("have their own rule:")[1].split(". ")[0]
    assert set(re.findall(r"`([\w.]+)`", own_rule)) & _SCHEMA.keys() == cli._RULES.keys()
