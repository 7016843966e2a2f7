"""Command-line entry point: train / bound / verify / sweep.

One JSON config is the single source of truth: the preset, the --config
file, then each --set a.b=v (the document {"a": {"b": v}}) merge into
DEFAULT_CONFIG, a section key by key and any other value by replacing it.
Every artifact embeds the settings its command reads and the version string,
and no timestamps, so identical configs produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, an artifact that cannot be written or
a lost sweep worker, 2 numerical failure, 3 verification failure, 130
interrupted (Ctrl-C or SIGTERM).  A closed stdout drops the rest of the
report and changes neither the work, the artifacts nor the exit code.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import signal
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__, bounds, verify
from .activations import ActivationSpec, SigmaConstants, constants
from .experiment import (FIGURE1_BOX, GapReport, SweepConfig, WorkerLost, _check_box,
                         moment_constants, sweep_experiment, sweep_row, train_vortex)
from .network import load_checkpoint, save_checkpoint
from .residual import LossConfig
from .training import TrainConfig

_RUN = SweepConfig()   # the library's run defaults, written once there
DEFAULT_CONFIG = {
    "activation": {"family": _RUN.activation.family.value, "k": _RUN.activation.k},
    "dims": {"p": _RUN.width},
    "loss": asdict(_RUN.loss),
    "training": asdict(_RUN.train),
    "sampling": {"n_r": 125, "n_0": _RUN.n_0, "box": list(map(list, _RUN.box)), "w_scale": None},
    "bound": {"cz_convention": "sqrt", "proof_variant": False, "constants_override": None},
    "sweep": {"n_r_values": list(_RUN.n_r_values), "population_factor": _RUN.population_factor},
    "verify": {"n_instances": 20, "n_draws": 4000, "n_points": 8,
               "grid_size": 40, "sym_classes": 5, "sym_trials": 300,
               "sym_points": 10},
    "seed": _RUN.seed,
}

PRESETS = {
    "desk": {},
    "figure1": {"sampling": {"box": list(map(list, FIGURE1_BOX)), "n_r": 1000, "n_0": 2500},
                "training": {"epochs": 20000}},
}

# The settings each command ignores (a section stands for all its keys): it records and builds
# only the others.  The sweep's rows take N_r from `sweep.n_r_values`, sqrt C_z, the paper's
# bound and the default W scale.
_IGNORES = {
    "train": ("bound", "verify", "sweep"),
    "bound": ("dims", "training", "sampling.w_scale", "verify", "sweep", "seed"),
    "verify": ("dims", "training", "sampling", "bound", "sweep"),
    "sweep": ("sampling.n_r", "sampling.w_scale", "bound.cz_convention",
              "bound.proof_variant", "verify"),
}


class UsageError(Exception):
    pass


def _deep_update(base: dict, override: dict) -> dict:
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def resolve_config(args) -> dict:
    cfg = _deep_update(copy.deepcopy(DEFAULT_CONFIG), copy.deepcopy(PRESETS.get(args.preset, {})))
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:      # ValueError: not UTF-8, or not JSON
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"config {args.config} must hold a JSON object, "
                             f"not a {type(doc).__name__}")
        _deep_update(cfg, doc)
    for assignment in args.set or []:
        if "=" not in assignment:
            raise UsageError(f"--set expects key=value, got {assignment!r}")
        key, doc = assignment.split("=", 1)
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError:
            pass                                    # v is kept as the raw string
        for part in reversed(key.split(".")):
            doc = {part: doc}
        _deep_update(cfg, doc)
    return cfg


def _count(least: int):
    return lambda v: type(v) is int and v >= least


def _number(v) -> bool:
    return type(v) is float and math.isfinite(v)


# The value each kind of default asks for: DEFAULT_CONFIG is the schema.
_KINDS = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (_count(1), "an integer >= 1"),
    float: (_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_count(1), v)), "a list of integers >= 1"),
}
_SIGMA_NAMES = [f.name for f in fields(SigmaConstants)]
# The keys whose values are not of their default's kind.
_RULES = {
    "seed": (_count(0), "an integer >= 0"),
    "verify.sym_trials": (_count(2), "an integer >= 2"),   # a standard error needs two draws
    "verify.n_draws": (_count(2), "an integer >= 2"),
    "bound.cz_convention": (lambda v: v in ("sqrt", "literal"), "'sqrt' or 'literal'"),
    "bound.constants_override": (
        lambda v: v is None or isinstance(v, dict) and set(v) == set(_SIGMA_NAMES)
        and all(map(_number, v.values())),
        f"null or a section of exactly {', '.join(_SIGMA_NAMES)}, each a finite number"),
    "sampling.w_scale": (lambda v: v is None or _number(v), "null or a finite number"),
    "sampling.box": (lambda v: isinstance(v, list), "a list of [low, high] intervals"),
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


def _check_config(cfg: dict) -> dict:
    """`cfg` has exactly the keys of DEFAULT_CONFIG, and every value is of its default's kind or,
    for the keys in _RULES, as the rule asks.  Returns the dot path -> value of every setting,
    with its integers read as floats where its rule accepts that (1 and 1.0 are one setting)."""
    leaves = _leaves(cfg)
    for which, paths in (("unknown", leaves.keys() - _SCHEMA.keys()),
                         ("missing", _SCHEMA.keys() - leaves.keys())):
        if paths:
            raise UsageError(f"{which} config keys: {', '.join(sorted(paths))}")
    for path, val in leaves.items():
        ok, wants = _RULES.get(path) or _KINDS[type(_SCHEMA[path])]
        real = json.loads(json.dumps(val), parse_int=float)   # an integer past a float is inf
        leaves[path] = real if ok(real) else val
        if not ok(leaves[path]):
            raise UsageError(f"{path} must be {wants}, got {val!r}")
    return leaves


def _settings(cfg: dict, command: str, preset: str | None = None) -> tuple[dict, SweepConfig]:
    """One schema check of the whole config, read two ways: the settings `command` records (those
    it reads, each as `_check_config` reads it) and the typed ones, where those it ignores keep
    their defaults.  The sweep refuses its single ignored keys that differ from the preset's.
    Range errors are usage errors.  `train` and `sweep` solve the 2-d vortex."""
    ignored, flat = _IGNORES[command], _check_config(cfg)
    if command == "sweep":
        given = {**_SCHEMA, **_leaves(PRESETS.get(preset, {}))}
        changed = [path for path, val in flat.items() if path in ignored and val != given[path]]
        if changed:
            raise UsageError(f"the sweep ignores {', '.join(changed)}: they apply to "
                             "`pinnbound bound` or `train` only")
    recorded = {key: {sub: flat[f"{key}.{sub}"] for sub in v if f"{key}.{sub}" not in ignored}
                if isinstance(v, dict) else flat[key]
                for key, v in cfg.items() if key not in ignored}
    cfg = _deep_update(copy.deepcopy(DEFAULT_CONFIG), recorded)
    try:
        box = tuple(map(tuple, _check_box(cfg["sampling"]["box"]).tolist()))
        if len(box) != 3 and command in ("train", "sweep"):
            raise ValueError(f"the vortex needs a sampling.box of three intervals "
                             f"(x, y, t), got {cfg['sampling']['box']!r}")
        override = cfg["bound"]["constants_override"]
        return recorded, SweepConfig(
            n_r_values=tuple(cfg["sweep"]["n_r_values"]), n_0=cfg["sampling"]["n_0"],
            width=cfg["dims"]["p"], box=box, seed=cfg["seed"],
            activation=ActivationSpec.from_name(cfg["activation"]["family"],
                                                cfg["activation"]["k"]),
            loss=LossConfig(**cfg["loss"]), train=TrainConfig(**cfg["training"]),
            population_factor=cfg["sweep"]["population_factor"],
            sigma_constants=SigmaConstants(**override) if override else None)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config: {exc}")


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
    weights, history, _ = train_vortex(s, cfg["sampling"]["n_r"], s.seed,
                                       w_scale=cfg["sampling"]["w_scale"])
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


def _checkpoint(cfg: dict, s: SweepConfig, path: str) -> tuple:
    """The weights and activation of the checkpoint at `path`, which the settings must fit."""
    try:
        weights, spec = load_checkpoint(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load checkpoint: {exc}")
    if cfg["activation"] != DEFAULT_CONFIG["activation"] and s.activation != spec:
        raise UsageError(f"activation {s.activation.family.value}^{s.activation.k} does not "
                         f"match the checkpoint's {spec.family.value}^{spec.k}")
    if len(s.box) != weights.d + 1:
        raise UsageError(f"the checkpoint needs a sampling.box of d + 1 = {weights.d + 1} axes")
    return weights, spec


def cmd_bound(cfg: dict, s: SweepConfig, out_dir: Path, weights, spec: ActivationSpec) -> int:
    C_z, C_z0 = moment_constants(s.box)
    if cfg["bound"]["cz_convention"] == "literal":   # the second moments, not their roots
        C_z, C_z0 = C_z**2, C_z0**2
    report = bounds.generalization_bound(bounds.weight_stats(weights),
                                         s.sigma_constants or constants(spec), s.loss,
                                         cfg["sampling"]["n_r"], s.n_0, C_z, C_z0,
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
    reports = verify.suite(s.activation, s.loss, s.seed, **cfg["verify"])
    by_name: dict[str, list] = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep.to_dict())
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
    """Index -> GapReport of the row files that embed the row settings `cfg` and whose row
    rebuilds to itself.  Any other row is computed again, its file rewritten."""
    cached = {}
    for idx in range(len(s.n_r_values)):
        try:
            doc = json.loads(_row_path(out_dir, s, idx).read_text())
            row = GapReport.from_dict(doc["row"])
            if doc["config"] == cfg and row.to_dict() == doc["row"]:
                cached[idx] = row
        except (OSError, KeyError, TypeError, ValueError):
            pass                                   # not a whole row
    return cached


def cmd_sweep(cfg: dict, s: SweepConfig, out_dir: Path) -> int:
    # of the N_r values a row reads only its own N_r and index, which its file name holds
    row_cfg = {**cfg, "sweep": {k: v for k, v in cfg["sweep"].items() if k != "n_r_values"}}
    cached = _cached_rows(row_cfg, s, out_dir)

    def computed_row(s: SweepConfig, idx: int) -> GapReport:   # in a sweep worker, or here
        report = sweep_row(s, idx)
        _write_json(_row_path(out_dir, s, idx), {"row": report.to_dict()}, row_cfg)
        return report

    def progress(idx: int, row) -> None:   # a diverged row is reported after the sweep
        if idx in cached:
            _say(f"N_r={s.n_r_values[idx]}: cached")
        elif isinstance(row, GapReport):
            _say(f"N_r={s.n_r_values[idx]}: gap={row.gap:.4g} bound={row.bound.total:.4g}")

    report = sweep_experiment(s, computed_row, cached, progress)
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
    _say(f"pearson_r = {r}" if r is not None
         else "pearson_r undefined (fewer than 3 rows or a constant column)")
    return 2 if report.failed_rows and not report.rows else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnbound",
        description="Train depth-2 flow networks, evaluate their norm-based generalization "
                    "bound, verify the supporting inequalities, and run the bound-vs-gap sweep.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dot-path config override")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named config preset")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train a network; writes checkpoint + history CSV")
    sub.add_parser("bound", help="evaluate the bound for a checkpoint").add_argument("checkpoint")
    sub.add_parser("verify", help="run the inequality check suite")
    sub.add_parser("sweep", help="run the bound-vs-gap correlation sweep")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:          # argparse exits 2 on a usage error: here that is 1
        return 0 if exc.code == 0 else 1
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)  # ends it as Ctrl-C does
    # a diverged run reports itself in its own lines, not in numpy's overflow
    # warnings; entered before any fork, so the sweep's workers inherit it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            cfg, s = _settings(resolve_config(args), args.command, args.preset)
            inputs = _checkpoint(cfg, s, args.checkpoint) if args.command == "bound" else ()
            out_dir = Path(args.out)
            try:                        # after every usage check: a usage error leaves no --out
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"--out {out_dir}: {exc.strerror}")
            return {"train": cmd_train, "bound": cmd_bound, "verify": cmd_verify,
                    "sweep": cmd_sweep}[args.command](cfg, s, out_dir, *inputs)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except (RuntimeError, ArithmeticError) as exc:   # a sweep worker's too, sent back
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:                           # an artifact that cannot be written
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:                       # numpy refuses an array this large
            print(f"out of memory: {exc}", file=sys.stderr)
            return 1
        except WorkerLost as exc:                        # killed from outside: OOM, kill -9
            print(f"lost sweep worker: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return 130
        finally:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
