import json

import numpy as np
import pytest

from pinnbound import (ActivationSpec, LossConfig, constants,
                       generalization_bound, init_weights, load_checkpoint,
                       save_checkpoint, weight_stats)
from pinnbound.cli import (DEFAULT_CONFIG, build_parser, main,
                           resolve_config, _apply_set, _moment_constants_for)

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
    cfg = doc["config"]
    C_z, C_z0 = _moment_constants_for(cfg, ((0, 1), (0, 1), (0, 1)))
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
    assert b["C_z"] == pytest.approx(a["C_z"] ** 2, rel=1e-12)
    assert b["C_z0"] == pytest.approx(a["C_z0"] ** 2, rel=1e-12)


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
                                        "bound.proof_variant=no", "bound.moment_sample=abc",
                                        "bound.moment_sample=0"])
def test_bad_bound_section_is_usage_error(tmp_path, capsys, assignment):
    ck = tmp_path / "ck.json"
    save_checkpoint(init_weights(2, 5, seed=2), ActivationSpec.from_name("tanh", 1), ck)
    out = tmp_path / "o"
    assert run(["--set", assignment, "--out", str(out), "bound", str(ck)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not out.exists()


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
    ("bound.moment_sample=1", "sweep"),
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
])
def test_unknown_config_key_is_usage_error_before_any_output(tmp_path, capsys, assignment,
                                                             command, key):
    out = tmp_path / "bad"
    assert run(TINY + ["--set", assignment, "--out", str(out), command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and captured.out == ""
    assert key in captured.err
    assert not out.exists()
