"""Command-line entry point: train / bound / verify / sweep.

One JSON config file is the single source of truth; --set key=value
applies dot-path overrides on top.  Every artifact embeds the fully
resolved config and the artifact version string, and contains no
timestamps, so identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, verify
from .activations import ActivationSpec, SigmaConstants, constants
from .experiment import (FIGURE1_BOX, UNIT_BOX, GapReport, SweepConfig,
                         TaylorGreenParams, moment_constants, sample_initial,
                         sample_interior, sweep_experiment, sweep_row,
                         taylor_green_initial)
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
    "bound": {"cz_convention": "sqrt", "proof_variant": False,
              "moment_sample": 100000, "constants_override": None},
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
    return base


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


def _check_keys(cfg: dict) -> None:
    """Every key, at the top level and in each section, is one of DEFAULT_CONFIG's."""
    unknown = [key for key in cfg if key not in DEFAULT_CONFIG]
    unknown += [f"{key}.{sub}" for key, sec in cfg.items()
                if isinstance(sec, dict) and isinstance(DEFAULT_CONFIG.get(key), dict)
                for sub in sec if sub not in DEFAULT_CONFIG[key]]
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")


# The single counts; every `verify` entry and sweep.n_r_values entry is one too.
_COUNTS = ("dims.d", "dims.p", "sampling.n_r", "sampling.n_0", "training.epochs",
           "training.log_every", "bound.moment_sample", "sweep.population_factor")
_MC_COUNTS = ("verify.sym_trials", "verify.n_draws")   # a standard error needs two draws


def _check_counts(cfg: dict) -> None:
    """Every count is an integer >= 1 (>= 2 for a Monte-Carlo sample size),
    the seed one >= 0: checked once, up front."""
    try:
        counts = [(name, cfg[sec].get(key)) for name in _COUNTS for sec, key in [name.split(".")]]
        counts += [(f"verify.{key}", n) for key, n in cfg["verify"].items()]
        counts += [("sweep.n_r_values", n) for n in cfg["sweep"]["n_r_values"]]
    except (AttributeError, TypeError) as exc:
        raise UsageError(f"a config section holds a value, or sweep.n_r_values is no list: {exc}")
    for name, n in counts:
        least = 2 if name in _MC_COUNTS else 1
        if type(n) is not int or n < least:
            raise UsageError(f"{name} must be an integer >= {least}, got {n!r}")
    if type(cfg["seed"]) is not int or cfg["seed"] < 0:
        raise UsageError(f"seed must be an integer >= 0, got {cfg['seed']!r}")


def _activation(cfg: dict) -> ActivationSpec:
    act = cfg["activation"]
    if not isinstance(act, dict) or type(act.get("k")) is not int:
        raise UsageError(f"activation must be a section with a family and an integer k, "
                         f"got {act!r}")
    try:
        return ActivationSpec.from_name(act.get("family"), act["k"])
    except ValueError as exc:
        raise UsageError(str(exc))


def _loss(cfg: dict) -> LossConfig:
    try:
        return LossConfig(**cfg["loss"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad loss config: {exc}")


def _train_cfg(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(**cfg["training"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad training config: {exc}")


def _sigma_constants(cfg: dict, spec: ActivationSpec) -> SigmaConstants:
    """Activation constants; also checks the `bound` section before any work."""
    bound = cfg["bound"]
    if (bound.get("cz_convention") not in ("sqrt", "literal")
            or not isinstance(bound.get("proof_variant"), bool)):
        raise UsageError("bound needs cz_convention 'sqrt' or 'literal' and proof_variant "
                         f"true or false, got {bound!r}")
    override = bound.get("constants_override")
    if not override:
        return constants(spec)
    try:
        return SigmaConstants(**override)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad constants_override: {exc}")


def _box(cfg: dict) -> tuple:
    name = cfg["sampling"]["box"]
    if isinstance(name, str):
        if name not in _BOXES:
            raise UsageError(f"unknown box preset {name!r}")
        return _BOXES[name]
    return tuple(tuple(pair) for pair in name)


def _write_json(path: Path, payload: dict, cfg: dict) -> None:
    payload = dict(payload)
    payload["config"] = cfg
    payload["version"] = __version__
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_train(cfg: dict, out_dir: Path) -> int:
    spec = _activation(cfg)
    loss_cfg = _loss(cfg)
    tc = _train_cfg(cfg)
    try:
        box = np.asarray(_box(cfg), dtype=float)
        d, p, seed = cfg["dims"]["d"], cfg["dims"]["p"], cfg["seed"]
        n_r, n_0 = cfg["sampling"]["n_r"], cfg["sampling"]["n_0"]
        if len(box) != d + 1:
            raise UsageError(f"box has {len(box)} axes but d+1 = {d + 1}")
        if d != 2:
            raise UsageError("the benchmark initial condition is 2-dimensional")
        colloc = CollocationSet(interior=sample_interior(n_r, box, seed),
                                initial=sample_initial(n_0, box[:-1], seed + 1))
        f0 = taylor_green_initial(TaylorGreenParams(nu=loss_cfg.nu, domain=_box(cfg)))
        weights0 = init_weights(d, p, seed + 2, w_scale=cfg["sampling"]["w_scale"])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad train config: {exc}")
    try:
        weights, history = train(weights0, spec, loss_cfg, colloc, f0, tc)
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(weights, spec, out_dir / "checkpoint.json")
    with open(out_dir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "momentum_term", "divergence_term",
                         "initial_term", "total"])
        for epoch, rb in history:
            writer.writerow([epoch, repr(rb.momentum_term), repr(rb.divergence_term),
                             repr(rb.initial_term), repr(rb.total)])
    _write_json(out_dir / "train_run.json",
                {"final_risk": history[-1][1].total, "epochs": tc.epochs}, cfg)
    print(f"trained {tc.epochs} epochs; final risk {history[-1][1].total:.6g}; "
          f"artifacts in {out_dir}")
    return 0


def _moment_constants_for(cfg: dict, box) -> tuple[float, float]:
    box = np.asarray(box, dtype=float)
    n, seed = cfg["bound"]["moment_sample"], cfg["seed"]
    C_z, C_z0 = moment_constants(sample_interior(n, box, seed),
                                 sample_initial(n, box[:-1], seed + 1))
    if cfg["bound"]["cz_convention"] == "literal":
        # second-moment values themselves, not their square roots
        C_z, C_z0 = C_z**2, C_z0**2
    return C_z, C_z0


def cmd_bound(cfg: dict, out_dir: Path, checkpoint: str) -> int:
    try:
        weights, spec = load_checkpoint(checkpoint)
    except (OSError, ValueError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return 1
    loss_cfg = _loss(cfg)
    sc = _sigma_constants(cfg, spec)
    C_z, C_z0 = _moment_constants_for(cfg, _box(cfg))
    report = bounds.generalization_bound(bounds.weight_stats(weights), sc, loss_cfg,
                                         cfg["sampling"]["n_r"], cfg["sampling"]["n_0"], C_z, C_z0,
                                         proof_variant=cfg["bound"]["proof_variant"])
    doc = report.to_dict()
    _write_json(out_dir / "bound.json", doc, cfg)
    with open(out_dir / "bound.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = ["N_r", "N_0", "C1", "C2", "C_z", "C_z0",
                "term_interior", "term_initial", "total"]
        writer.writerow(keys)
        writer.writerow([repr(doc[k]) if isinstance(doc[k], float) else doc[k]
                         for k in keys])
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _verify_reports(cfg: dict):
    v = cfg["verify"]
    spec = _activation(cfg)
    loss_cfg = _loss(cfg)
    seed = cfg["seed"]
    n_points = v["n_points"]
    n_draws = v["n_draws"]
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


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    reports = _verify_reports(cfg)
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
        print(f"{name}: {sum(r['verdict'] == 'PASS' for r in reps)}/{len(reps)} PASS")
    return 0 if all_pass else 3


def _sweep_config(cfg: dict) -> SweepConfig:
    spec = _activation(cfg)
    sc = _sigma_constants(cfg, spec)
    bound = cfg["bound"]
    if (bound["cz_convention"] != "sqrt" or bound["proof_variant"]
            or bound["moment_sample"] != DEFAULT_CONFIG["bound"]["moment_sample"]):
        raise UsageError("bound.cz_convention, bound.proof_variant and bound.moment_sample "
                         "apply to `pinnbound bound` only; the sweep uses sqrt C_z of its "
                         "population")
    return SweepConfig(
        n_r_values=tuple(cfg["sweep"]["n_r_values"]),
        n_0=cfg["sampling"]["n_0"],
        width=cfg["dims"]["p"],
        activation=spec,
        loss=_loss(cfg),
        train=_train_cfg(cfg),
        box=_box(cfg),
        seed=cfg["seed"],
        population_factor=cfg["sweep"]["population_factor"],
        sigma_constants=sc,
    )


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
            print(f"N_r={n_r}: cached")
            return GapReport.from_dict(doc["row"])
        report = sweep_row(sweep_cfg, idx)
        _write_json(path, {"row": report.to_dict()}, cfg)
        print(f"N_r={n_r}: gap={report.gap:.4g} bound={report.bound.total:.4g}")
        return report
    return row


def cmd_sweep(cfg: dict, out_dir: Path) -> int:
    try:
        sweep_cfg = _sweep_config(cfg)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sweep config: {exc}")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = sweep_experiment(sweep_cfg, _cached_sweep_row(cfg, out_dir))
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
    print(f"pearson_r = {r}" if r is not None else "pearson_r undefined (constant column)")
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
    p_bound = sub.add_parser("bound", help="evaluate the bound for a checkpoint")
    p_bound.add_argument("checkpoint")
    sub.add_parser("verify", help="run the inequality check suite")
    sub.add_parser("sweep", help="run the bound-vs-gap correlation sweep")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        _check_keys(cfg)
        _check_counts(cfg)
        out_dir = Path(args.out)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "bound":
            return cmd_bound(cfg, out_dir, args.checkpoint)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
