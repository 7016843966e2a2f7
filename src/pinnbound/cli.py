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
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, verify
from .activations import ActivationSpec, SigmaConstants, constants
from .experiment import (FIGURE1_BOX, UNIT_BOX, GapReport, SweepConfig, TaylorGreenParams,
                         moment_constants, sample_initial, sample_interior, sweep_experiment,
                         sweep_row, taylor_green_initial)
from .network import field_eval, init_weights, load_checkpoint, save_checkpoint
from .residual import CollocationSet, LossConfig
from .training import TrainConfig, train

DEFAULT_CONFIG = {
    "activation": {"family": "tanh", "k": 3},
    "dims": {"d": 2, "p": 64},
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
    "sweep": {"sampling": {"box": "unit"}},
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
                _deep_update(cfg, json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
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


def _settings(cfg: dict) -> SweepConfig:
    """Every typed setting of a checked config, built once; the library's
    range checks become usage errors.  The sweep's config holds them all:
    the activation, loss, training, constants override and box."""
    try:
        name, d = cfg["sampling"]["box"], cfg["dims"]["d"]
        box = _BOXES[name] if isinstance(name, str) else tuple(map(tuple, name))
        lo_hi = np.asarray(box, dtype=float)   # a ragged box raises ValueError
        if (lo_hi.shape != (d + 1, 2)
                or not np.all(np.isfinite(lo_hi) & (lo_hi[:, :1] < lo_hi[:, 1:]))):
            raise ValueError(f"sampling.box must be d + 1 = {d + 1} finite increasing "
                             f"intervals, got {name!r}")
        override = cfg["bound"]["constants_override"]
        return SweepConfig(
            n_r_values=tuple(cfg["sweep"]["n_r_values"]), n_0=cfg["sampling"]["n_0"],
            width=cfg["dims"]["p"], box=box, seed=cfg["seed"],
            activation=ActivationSpec.from_name(cfg["activation"]["family"],
                                                cfg["activation"]["k"]),
            loss=LossConfig(**cfg["loss"]), train=TrainConfig(**cfg["training"]),
            population_factor=cfg["sweep"]["population_factor"],
            sigma_constants=SigmaConstants(**override) if override else None)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}")


def _reject_ignored(cfg: dict, command: str) -> None:
    """Reject the settings that `command` ignores: train and sweep solve the
    2-dimensional vortex, and the sweep takes the paper's bound with sqrt C_z
    and the default W scale."""
    if command in ("train", "sweep") and cfg["dims"]["d"] != 2:
        raise UsageError("dims.d must be 2: the Taylor-Green initial condition is 2-dimensional")
    changed = [path for path, val in _leaves(cfg).items() if val != _SCHEMA[path] and path in (
        "bound.cz_convention", "bound.proof_variant", "sampling.w_scale")]
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


def cmd_train(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    box, seed = np.asarray(s.box, dtype=float), cfg["seed"]
    colloc = CollocationSet(interior=sample_interior(cfg["sampling"]["n_r"], box, seed),
                            initial=sample_initial(cfg["sampling"]["n_0"], box[:-1], seed + 1))
    f0 = taylor_green_initial(TaylorGreenParams(nu=s.loss.nu))
    weights0 = init_weights(cfg["dims"]["d"], cfg["dims"]["p"], seed + 2,
                            w_scale=cfg["sampling"]["w_scale"])
    try:
        weights, history = train(weights0, s.activation, s.loss, colloc, f0, s.train)
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(weights, s.activation, out_dir / "checkpoint.json")
    with open(out_dir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "momentum_term", "divergence_term",
                         "initial_term", "total"])
        for epoch, rb in history:
            writer.writerow([epoch, repr(rb.momentum_term), repr(rb.divergence_term),
                             repr(rb.initial_term), repr(rb.total)])
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
    with open(out_dir / "bound.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = ["N_r", "N_0", "C1", "C2", "C_z", "C_z0",
                "term_interior", "term_initial", "total"]
        writer.writerow(keys)
        writer.writerow([repr(doc[k]) if isinstance(doc[k], float) else doc[k]
                         for k in keys])
    _say(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _verify_reports(cfg: dict, s: SweepConfig | None = None):
    s = s or _settings(cfg)
    spec, loss_cfg, v, seed = s.activation, s.loss, cfg["verify"], cfg["seed"]
    n_points, n_draws = v["n_points"], v["n_draws"]
    reports = []
    rng = np.random.default_rng(seed)

    for i in range(v["n_instances"]):
        dim = int(rng.integers(2, 5))
        Z = np.random.default_rng((seed, 1, i)).uniform(0, 1, (n_points, dim))
        grid = verify.ConstraintGrid.random(dim, v["grid_size"], B=2.0,
                                            seed=seed + 100 + i)
        reports.append(verify.check_abs_removal(grid, Z, np.tanh, c=0.0,
                                                n_draws=n_draws, seed=seed + i))

        mats = [grid.vectors[np.random.default_rng((seed, 2, i, j)).integers(
            0, len(grid.vectors), 3)] for j in range(6)]
        heads = [np.random.default_rng((seed, 3, i, j)).uniform(-0.5, 0.5, 3)
                 for j in range(6)]
        sigma1 = lambda x: 1.0 - np.tanh(x) ** 2
        reports.append(verify.check_contraction_single(
            grid, Z, sigma1, L_phi=0.77, c=1.0, weight_mats=mats, heads=heads,
            n_draws=n_draws, seed=seed + i))

        reports.append(verify.check_contraction_product(
            grid, Z, np.tanh, np.tanh, B=1.0, B_phi1=1.0, B_phi2=1.0,
            L_phi1=1.0, L_phi2=1.0, k=0.0, n_draws=n_draws, seed=seed + i))

        est_enum = verify.rademacher_linear(Z, B=grid.B, n_draws=n_draws, seed=seed + i)
        lin_bound = grid.B * np.sqrt(np.sum(Z * Z)) / n_points
        reports.append(verify.CheckReport(
            name="rademacher_linear_bound", lhs=est_enum.mean, rhs=float(lin_bound),
            std_error=est_enum.std_error,
            passed=est_enum.mean <= lin_bound + 3 * est_enum.std_error + 1e-9,
            exact=est_enum.exact, n_draws=est_enum.n_draws, seed=est_enum.seed))

    params = TaylorGreenParams(nu=loss_cfg.nu)
    f0 = taylor_green_initial(params)

    def sampler(r, n):
        return r.uniform(0, 1, (n, 3)), r.uniform(0, 1, (n, 2))

    for i in range(v["sym_classes"]):
        nets = [init_weights(2, 4, seed=seed + 50 + i * 10 + j) for j in range(3)]
        hyps = [lambda z, w=w: field_eval(w, spec, z) for w in nets]
        reports.append(verify.check_symmetrization(
            hyps, loss_cfg, sampler, f0, n_points=v["sym_points"],
            n_trials=v["sym_trials"], seed=seed + i))
    return reports


def cmd_verify(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    reports = _verify_reports(cfg, s)
    by_name: dict[str, list] = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep.to_dict())
    out_dir.mkdir(parents=True, exist_ok=True)
    all_pass = True
    for name, reps in by_name.items():
        passed = all(r["verdict"] == "PASS" for r in reps)
        all_pass &= passed
        _write_json(out_dir / f"verify_{name}.json",
                    {"checks": reps, "all_pass": passed}, cfg)
        _say(f"{name}: {sum(r['verdict'] == 'PASS' for r in reps)}/{len(reps)} PASS")
    return 0 if all_pass else 3


_SWEEP_COLUMNS = ["N_r", "N_0", "activation", "nu", "delta", "lambda0", "lambda1",
                  "train_risk", "population_estimate", "gap", "C1", "C2", "C_z",
                  "C_z0", "term_interior", "term_initial", "bound_total", "seed"]


def _row_csv_record(cfg: dict, row: dict) -> list:
    act = f"{cfg['activation']['family']}^{cfg['activation']['k']}"
    vals = {**row["bound"], **row, **cfg["loss"], "activation": act,
            "bound_total": row["bound"]["total"]}
    return [repr(vals[k]) if isinstance(vals[k], float) else vals[k]
            for k in _SWEEP_COLUMNS]


def _cached_sweep_row(cfg: dict, out_dir: Path):
    """`sweep_row` behind one file per row.  A row file is reused only
    when the config embedded in it equals `cfg`; otherwise the row is
    computed again and its file overwritten."""
    def row(sweep_cfg: SweepConfig, idx: int) -> GapReport:
        n_r = sweep_cfg.n_r_values[idx]
        path = out_dir / f"row_{idx:02d}_nr{n_r}.json"
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            doc = {}
        if doc.get("config") == cfg:
            _say(f"N_r={n_r}: cached")
            return GapReport.from_dict(doc["row"])
        report = sweep_row(sweep_cfg, idx)
        _write_json(path, {"row": report.to_dict()}, cfg)
        _say(f"N_r={n_r}: gap={report.gap:.4g} bound={report.bound.total:.4g}")
        return report
    return row


def cmd_sweep(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = sweep_experiment(s, _cached_sweep_row(cfg, out_dir))
    for fail in report.failed_rows:
        print(f"N_r={fail['N_r']}: training diverged ({fail['error']})", file=sys.stderr)
    doc = report.to_dict()
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in doc["rows"]:
            writer.writerow(_row_csv_record(cfg, row))
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
        _reject_ignored(cfg, args.command)
        s = _settings(cfg)
        out_dir = Path(args.out)
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
