import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnbound import (ActivationSpec, LossConfig, constants,
                       generalization_bound, init_weights, load_checkpoint,
                       moment_constants, save_checkpoint, weight_stats)
from pinnbound.cli import (DEFAULT_CONFIG, PRESETS, build_parser, main, resolve_config,
                           _apply_set, _check_config)
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


SWEEP_FAST = ["--set", "sweep.n_r_values=[5,10,20]", "--set", "sampling.n_0=8",
              "--set", "dims.p=4", "--set", "training.epochs=15",
              "--set", "training.log_every=5"]


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
    ("dims.d=1 sampling.box=[[0,1],[0,1]]", "bound"),       # 2 axes, but a d = 2 checkpoint
    ("sampling.box=[[0,1],[0,1],[1,0]]", "bound"),          # a degenerate interval
    ("sampling.box=[[0,1],[0,1],[1,0]]", "sweep"),
    ("sampling.box=[[0,1],[0],[0,1]]", "sweep"),            # a ragged box
    ("sampling.box=[[0,1],[0,1]]", "sweep"),
    ("sampling.w_scale=abc", "sweep"),
    ("sampling.w_scale=0.5", "sweep"),                      # the sweep ignores it
    ("dims.d=3", "sweep"),
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


@pytest.mark.parametrize("preset", [None] + sorted(PRESETS))
def test_default_config_and_presets_pass_the_schema(preset):
    if preset is None:
        _check_config(copy.deepcopy(DEFAULT_CONFIG))
    else:
        _check_config(resolve_config(build_parser().parse_args(["--preset", preset, "train"])))


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
        assert stderr.getvalue().startswith("usage error:")
        assert not out.exists()
