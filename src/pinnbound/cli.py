"""Command-line entry point: train / bound / verify / sweep.

One JSON config file is the single source of truth; --set key=value
applies dot-path overrides on top.  Every artifact embeds the fully
resolved config and the artifact version string, and contains no
timestamps, so identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.  A closed stdout drops the rest of the report
and changes neither the work, the artifacts nor the exit code.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, bounds, verify
from .activations import ActivationSpec, SigmaConstants, constants
from .experiment import (FIGURE1_BOX, UNIT_BOX, GapReport, SweepConfig, _check_box,
                         moment_constants, sweep_experiment, sweep_row, train_vortex)
from .network import load_checkpoint, save_checkpoint
from .residual import LossConfig
from .training import TrainConfig

DEFAULT_CONFIG = {
    "activation": {"family": "tanh", "k": 3},
    "dims": {"p": 64},
    "loss": {"delta": 1.0, "lambda0": 1.0, "lambda1": 0.3, "nu": 0.01},
    "training": {"epochs": 2000, "learning_rate": 1e-3, "beta1": 0.9,
                 "beta2": 0.999, "eps_adam": 1e-8, "weight_decay": 0.01,
                 "log_every": 100},
    "sampling": {"n_r": 125, "n_0": 500, "box": "unit", "w_scale": None},
    "bound": {"cz_convention": "sqrt", "proof_variant": False, "constants_override": None},
    "sweep": {"n_r_values": [27, 64, 125, 216], "population_factor": 10},
    "verify": {"n_instances": 20, "n_draws": 4000, "n_points": 8,
               "grid_size": 40, "sym_classes": 5, "sym_trials": 300,
               "sym_points": 10},
    "seed": 0,
}

PRESETS = {
    "desk": {},
    "figure1": {"sampling": {"box": "figure1", "n_r": 1000, "n_0": 2500},
                "training": {"epochs": 20000}},
}

_BOXES = {"unit": UNIT_BOX, "figure1": FIGURE1_BOX}


class UsageError(Exception):
    pass


def _deep_update(base: dict, override: dict) -> dict:
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise UsageError(f"--set expects key=value, got {assignment!r}")
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise UsageError(f"--set {key}: {part!r} holds a value, not a section")
    node[parts[-1]] = value


def resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.preset:
        _deep_update(cfg, copy.deepcopy(PRESETS[args.preset]))
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {args.config} must hold a JSON object, "
                             f"not a {type(doc).__name__}")
        _deep_update(cfg, doc)
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
    return cfg


def _count(least: int):
    return lambda v: type(v) is int and v >= least


def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


# The value each kind of default asks for: DEFAULT_CONFIG is the schema.
_KINDS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_count(1), "an integer >= 1"),
    float: (_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_count(1), v)), "a list of integers >= 1"),
}
# The keys whose values are not of their default's kind.
_RULES = {
    "seed": (_count(0), "an integer >= 0"),
    "verify.sym_trials": (_count(2), "an integer >= 2"),   # a standard error needs two draws
    "verify.n_draws": (_count(2), "an integer >= 2"),
    "bound.cz_convention": (lambda v: v in ("sqrt", "literal"), "'sqrt' or 'literal'"),
    "bound.constants_override": (lambda v: v is None or isinstance(v, dict), "null or a section"),
    "sampling.w_scale": (lambda v: v is None or _number(v), "null or a finite number"),
    "sampling.box": (lambda v: isinstance(v, list) or isinstance(v, str) and v in _BOXES,
                     f"one of {sorted(_BOXES)} or a list of intervals"),
}


def _leaves(cfg: dict) -> dict:
    """Dot path -> value of every setting; a section is a dict in DEFAULT_CONFIG."""
    flat = {}
    for key, val in cfg.items():
        if not isinstance(DEFAULT_CONFIG.get(key), dict):
            flat[key] = val
        elif not isinstance(val, dict):
            raise UsageError(f"{key} must be a section, got {val!r}")
        else:
            flat.update((f"{key}.{sub}", v) for sub, v in val.items())
    return flat


_SCHEMA = _leaves(DEFAULT_CONFIG)


def _check_config(cfg: dict) -> None:
    """`cfg` has the keys of DEFAULT_CONFIG, and every value is of its
    default's kind or, for the keys in _RULES, as the rule asks."""
    leaves = _leaves(cfg)
    for word, paths in (("unknown", leaves.keys() - _SCHEMA.keys()),
                        ("missing", _SCHEMA.keys() - leaves.keys())):
        if paths:
            raise UsageError(f"{word} config keys: {', '.join(sorted(paths))}")
    for path, val in leaves.items():
        ok, wants = _RULES.get(path) or _KINDS[type(_SCHEMA[path])]
        if not ok(val):
            raise UsageError(f"{path} must be {wants}, got {val!r}")


def _settings(cfg: dict, command: str) -> SweepConfig:
    """Every typed setting of a checked config, built once; the library's
    range checks (the box's too) become usage errors.  The sweep's config
    holds them all: the activation, loss, training, constants override and
    box.  Only the sweep reads the `sweep` section, so the other commands take
    its defaults.  `train` and `sweep` solve the 2-dimensional vortex."""
    try:
        name = cfg["sampling"]["box"]
        box = _BOXES[name] if isinstance(name, str) else tuple(map(tuple, name))
        if len(_check_box(box)) != 3 and command in ("train", "sweep"):
            raise ValueError(f"the vortex needs a sampling.box of three intervals "
                             f"(x, y, t), got {name!r}")
        override = cfg["bound"]["constants_override"]
        sweep = cfg["sweep"] if command == "sweep" else DEFAULT_CONFIG["sweep"]
        return SweepConfig(
            n_r_values=tuple(sweep["n_r_values"]), n_0=cfg["sampling"]["n_0"],
            width=cfg["dims"]["p"], box=box, seed=cfg["seed"],
            activation=ActivationSpec.from_name(cfg["activation"]["family"],
                                                cfg["activation"]["k"]),
            loss=LossConfig(**cfg["loss"]), train=TrainConfig(**cfg["training"]),
            population_factor=sweep["population_factor"],
            sigma_constants=SigmaConstants(**override) if override else None)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}")


def _reject_ignored(cfg: dict, command: str, preset: str | None) -> None:
    """Reject the settings that the sweep ignores: its rows take N_r from
    `sweep.n_r_values`, the paper's bound with sqrt C_z and the default W
    scale.  A setting counts as given where it differs from the preset's."""
    given = {**_SCHEMA, **_leaves(PRESETS.get(preset, {}))}
    changed = [path for path, val in _leaves(cfg).items() if val != given[path] and path in (
        "bound.cz_convention", "bound.proof_variant", "sampling.n_r", "sampling.w_scale")]
    if command == "sweep" and changed:
        raise UsageError(f"the sweep ignores {', '.join(changed)}: they apply to "
                         "`pinnbound bound` or `train` only")


def _say(text: str) -> None:
    """Print one line of the report.  Once the reader has closed stdout, point
    it at the null device, so that the rest of the report (and the flush at
    exit) is dropped without an error and the command still finishes."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = {**payload, "config": cfg, "version": __version__}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """A header line, then one line per row, with floats as their repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def cmd_train(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    try:
        weights, history, _, _ = train_vortex(s, cfg["sampling"]["n_r"], s.seed,
                                              w_scale=cfg["sampling"]["w_scale"])
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(weights, s.activation, out_dir / "checkpoint.json")
    _write_csv(out_dir / "history.csv",
               ["epoch", "momentum_term", "divergence_term", "initial_term", "total"],
               [(epoch, rb.momentum_term, rb.divergence_term, rb.initial_term, rb.total)
                for epoch, rb in history])
    _write_json(out_dir / "train_run.json",
                {"final_risk": history[-1][1].total, "epochs": s.train.epochs}, cfg)
    _say(f"trained {s.train.epochs} epochs; final risk {history[-1][1].total:.6g}; "
         f"artifacts in {out_dir}")
    return 0


def cmd_bound(cfg: dict, s: SweepConfig, out_dir: Path, checkpoint: str) -> int:
    try:
        weights, spec = load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return 1
    if cfg["activation"] != DEFAULT_CONFIG["activation"] and s.activation != spec:
        raise UsageError(f"activation {s.activation.family.value}^{s.activation.k} does not "
                         f"match the checkpoint's {spec.family.value}^{spec.k}")
    if len(s.box) != weights.d + 1:
        raise UsageError(f"the checkpoint needs a sampling.box of d + 1 = {weights.d + 1} axes")
    C_z, C_z0 = moment_constants(s.box)
    if cfg["bound"]["cz_convention"] == "literal":
        # second-moment values themselves, not their square roots
        C_z, C_z0 = C_z**2, C_z0**2
    report = bounds.generalization_bound(bounds.weight_stats(weights),
                                         s.sigma_constants or constants(spec), s.loss,
                                         cfg["sampling"]["n_r"], cfg["sampling"]["n_0"], C_z, C_z0,
                                         proof_variant=cfg["bound"]["proof_variant"])
    doc = report.to_dict()
    # the constants are the checkpoint's, and so is the activation recorded
    used = {**cfg, "activation": {"family": spec.family.value, "k": spec.k}}
    _write_json(out_dir / "bound.json", doc, used)
    keys = ["N_r", "N_0", "C1", "C2", "C_z", "C_z0", "term_interior", "term_initial", "total"]
    _write_csv(out_dir / "bound.csv", keys, [[doc[k] for k in keys]])
    _say(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def cmd_verify(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    reports = verify.suite(s.activation, s.loss, cfg["seed"], **cfg["verify"])
    by_name: dict[str, list] = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep.to_dict())
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, reps in by_name.items():
        n_pass = sum(r["verdict"] == "PASS" for r in reps)
        _write_json(out_dir / f"verify_{name}.json",
                    {"checks": reps, "all_pass": n_pass == len(reps)}, cfg)
        _say(f"{name}: {n_pass}/{len(reps)} PASS")
    return 0 if all(rep.passed for rep in reports) else 3


_SWEEP_COLUMNS = ["N_r", "N_0", "activation", "nu", "delta", "lambda0", "lambda1",
                  "train_risk", "population_estimate", "gap", "C1", "C2", "C_z",
                  "C_z0", "term_interior", "term_initial", "bound_total", "seed"]


def _row_csv_record(cfg: dict, row: dict) -> list:
    act = f"{cfg['activation']['family']}^{cfg['activation']['k']}"
    vals = {**row["bound"], **row, **cfg["loss"], "activation": act,
            "bound_total": row["bound"]["total"]}
    return [vals[k] for k in _SWEEP_COLUMNS]


def _row_path(out_dir: Path, s: SweepConfig, idx: int) -> Path:
    return out_dir / f"row_{idx:02d}_nr{s.n_r_values[idx]}.json"


def _cached_rows(cfg: dict, s: SweepConfig, out_dir: Path) -> dict:
    """Index -> GapReport of the rows whose files hold `cfg`.  A row file is
    reused only when the config embedded in it equals `cfg`; any other row
    is computed again and its file overwritten."""
    cached = {}
    for idx in range(len(s.n_r_values)):
        try:
            doc = json.loads(_row_path(out_dir, s, idx).read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("config") == cfg:
            cached[idx] = GapReport.from_dict(doc["row"])
    return cached


def _computed_row(cfg: dict, out_dir: Path, s: SweepConfig, idx: int) -> GapReport:
    """`sweep_row`, written to its row file (in a sweep worker)."""
    report = sweep_row(s, idx)
    _write_json(_row_path(out_dir, s, idx), {"row": report.to_dict()}, cfg)
    return report


def cmd_sweep(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    cached = _cached_rows(cfg, s, out_dir)

    def progress(idx: int, row) -> None:   # a diverged row is reported after the sweep
        if idx in cached:
            _say(f"N_r={s.n_r_values[idx]}: cached")
        elif isinstance(row, GapReport):
            _say(f"N_r={s.n_r_values[idx]}: gap={row.gap:.4g} bound={row.bound.total:.4g}")

    report = sweep_experiment(s, functools.partial(_computed_row, cfg, out_dir), cached, progress)
    for fail in report.failed_rows:
        print(f"N_r={fail['N_r']}: training diverged ({fail['error']})", file=sys.stderr)
    doc = report.to_dict()
    _write_csv(out_dir / "sweep.csv", _SWEEP_COLUMNS,
               [_row_csv_record(cfg, row) for row in doc["rows"]])
    with open(out_dir / "bound_vs_gap.dat", "w") as fh:
        fh.write("# bound_total gap\n")
        for row in doc["rows"]:
            fh.write(f"{row['bound']['total']!r} {row['gap']!r}\n")
    _write_json(out_dir / "sweep.json", doc, cfg)
    r = report.pearson_r
    _say(f"pearson_r = {r}" if r is not None else "pearson_r undefined (constant column)")
    return 2 if report.failed_rows and not report.rows else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnbound",
        description="Train depth-2 flow networks, evaluate their "
                    "norm-based generalization bound, verify the supporting "
                    "inequalities, and run the bound-vs-gap sweep.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dot-path config override")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named config preset")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train a network; writes checkpoint + history CSV")
    sub.add_parser("bound", help="evaluate the bound for a checkpoint").add_argument("checkpoint")
    sub.add_parser("verify", help="run the inequality check suite")
    sub.add_parser("sweep", help="run the bound-vs-gap correlation sweep")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        _check_config(cfg)
        _reject_ignored(cfg, args.command, args.preset)
        s = _settings(cfg, args.command)
        out_dir = Path(args.out)
        # the commands create --out; its first existing ancestor must be a directory
        first = next((path for path in (out_dir, *out_dir.parents) if path.exists()), out_dir)
        if not first.is_dir():
            raise UsageError(f"--out {out_dir}: {first} is not a directory")
        if args.command == "train":
            return cmd_train(cfg, s, out_dir)
        if args.command == "bound":
            return cmd_bound(cfg, s, out_dir, args.checkpoint)
        if args.command == "verify":
            return cmd_verify(cfg, s, out_dir)
        return cmd_sweep(cfg, s, out_dir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
