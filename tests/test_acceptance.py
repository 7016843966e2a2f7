"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with its headline numbers, then
asserts.  Criteria: derivative stacks against finite differences, the
analytic vortex as a zero-residual reference, the hand-derived risk
gradient, the bound arithmetic and its sample-size scaling, the
inequality verifier suite, the desk-scale bound-vs-gap sweep, and
byte-level determinism of the command-line artifacts.
"""

import json
import math
import time

import numpy as np
import pytest

from pinnbound import (ActivationSpec, CollocationSet, LossConfig, SweepConfig,
                       TaylorGreenParams, TrainConfig, WeightStats, constants,
                       empirical_risk, eval_derivs, field_eval,
                       generalization_bound, grad_risk, init_weights, initial_targets,
                       momentum_residual, sample_initial, sample_interior,
                       sweep_experiment, taylor_green_field,
                       taylor_green_initial)
from pinnbound.experiment import UNIT_BOX
from pinnbound.cli import main as cli_main
from pinnbound.cli import resolve_config, build_parser, _verify_reports

from conftest import central_diff


def report(name, ok, detail):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_derivative_stacks():
    t0 = time.time()
    specs = [ActivationSpec.from_name("tanh", k) for k in (1, 2, 3, 4)]
    specs += [ActivationSpec.from_name("sigmoid", k) for k in (1, 2, 3)]
    specs += [ActivationSpec.from_name("expnegrelu", k) for k in (3, 4, 5)]
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(2024)
    for spec in specs:
        xs = rng.uniform(-6, 6, 120)
        if spec.family.value == "expnegrelu":
            xs = np.abs(xs) + 2 * h
        for lvl in range(3):
            exact = eval_derivs(spec, xs)[lvl + 1]
            approx = central_diff(lambda x: eval_derivs(spec, x)[lvl], xs, h)
            rel = np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-8)
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - t0
    report("1 derivative stacks", worst < 1e-6 and elapsed < 60,
           f"max rel err {worst:.3g} over {120 * 3 * len(specs)} checks, {elapsed:.1f}s")


def test_criterion_2_vortex_reference():
    worst_r = worst_d = worst_risk = 0.0
    for nu in (1e-3, 1e-2):
        params = TaylorGreenParams(nu=nu)
        cfg = LossConfig(nu=nu)
        Z = sample_interior(10000, UNIT_BOX, seed=7)
        for z in Z:
            fe = taylor_green_field(z, params)
            worst_r = max(worst_r, float(np.max(np.abs(momentum_residual(fe, nu)))))
            worst_d = max(worst_d, abs(fe.div_u))
        colloc = CollocationSet(interior=Z[:200],
                                initial=sample_initial(200, UNIT_BOX[:2], 8))
        rb = empirical_risk(lambda z: taylor_green_field(z, params), cfg, colloc,
                            initial_targets(taylor_green_initial(params), colloc.initial))
        worst_risk = max(worst_risk, rb.total)
    ok = worst_r < 1e-10 and worst_d < 1e-10 and worst_risk < 1e-10
    report("2 analytic vortex", ok,
           f"max residual {worst_r:.3g}, max divergence {worst_d:.3g}, "
           f"risk {worst_risk:.3g} at 10^4 points, nu in {{1e-3, 1e-2}}")


def test_criterion_3_risk_gradient():
    t0 = time.time()
    h = 1e-6
    worst = 0.0
    specs = [ActivationSpec.from_name("tanh", 1), ActivationSpec.from_name("tanh", 3),
             ActivationSpec.from_name("sigmoid", 1),
             ActivationSpec.from_name("expnegrelu", 3)]
    rng = np.random.default_rng(99)
    count = 0
    while count < 52:
        spec = specs[count % len(specs)]
        d = int(rng.integers(1, 4))
        p = int(rng.integers(2, 5))
        weights = init_weights(d, p, seed=int(rng.integers(1 << 30)))
        g = np.random.default_rng(count)
        colloc = CollocationSet(interior=g.uniform(0, 1, (4, d + 1)),
                                initial=g.uniform(0, 1, (3, d)))
        cfg = LossConfig(delta=float(g.uniform(0.5, 1.5)),
                         lambda0=float(g.uniform(0, 2)),
                         lambda1=float(g.uniform(0, 1)),
                         nu=float(g.uniform(0.005, 0.1)))
        f0 = lambda x: np.sin(x)
        F0 = initial_targets(f0, colloc.initial)
        G = grad_risk(weights, spec, cfg, colloc, F0)
        F = np.zeros_like(G)
        for i in range(p):
            for j in range(d + 1):
                for s, sign in ((h, 1.0), (-h, -1.0)):
                    w = weights.copy()
                    w.W[i, j] += s
                    F[i, j] += sign * empirical_risk(
                        lambda z: field_eval(w, spec, z), cfg, colloc, F0).total
        F /= 2 * h
        scale = max(float(np.max(np.abs(F))), 1e-8)
        worst = max(worst, float(np.max(np.abs(G - F))) / scale)
        count += 1
    elapsed = time.time() - t0
    report("3 risk gradient", worst < 1e-5 and elapsed < 120,
           f"max rel err {worst:.3g} over {count} instances, {elapsed:.1f}s")


def test_criterion_4_bound_arithmetic():
    stats = WeightStats(B_f1=1, B_f2=1, B_f3=1, B_f4=1, B_f5=1, B_w=1, B_a=1)
    sc = constants(ActivationSpec.from_name("tanh", 1))
    rep = generalization_bound(stats, sc, LossConfig(), N_r=100, N_0=2500,
                               C_z=1.0, C_z0=math.sqrt(2 / 3))
    err_int = abs(rep.term_interior - 3.408)
    err_tot = abs(rep.total - 3.4275959179422655)
    quad = generalization_bound(stats, sc, LossConfig(), N_r=400, N_0=2500,
                                C_z=1.0, C_z0=math.sqrt(2 / 3))
    halves = quad.term_interior == rep.term_interior / 2.0
    ok = err_int < 1e-9 and err_tot < 1e-9 and halves
    report("4 bound arithmetic", ok,
           f"interior err {err_int:.3g}, total err {err_tot:.3g}, "
           f"4x interior points exactly halves the term: {halves}")


def test_criterion_5_inequality_suite():
    t0 = time.time()
    args = build_parser().parse_args(["verify"])
    cfg = resolve_config(args)
    reports = _verify_reports(cfg)
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep)
    counts = {name: len(reps) for name, reps in by_name.items()}
    enough = (all(counts.get(n, 0) >= 20 for n in
                  ("abs_removal", "contraction_single", "contraction_product",
                   "rademacher_linear_bound"))
              and counts.get("symmetrization", 0) >= 5)
    all_pass = all(rep.passed for rep in reports)
    elapsed = time.time() - t0
    report("5 inequality suite", enough and all_pass and elapsed < 600,
           f"{sum(map(len, by_name.values()))} checks "
           f"({', '.join(f'{k}:{len(v)}' for k, v in sorted(by_name.items()))}), "
           f"all PASS: {all_pass}, {elapsed:.0f}s")


def test_criterion_6_bound_gap_sweep():
    t0 = time.time()
    cfg = SweepConfig(train=TrainConfig(epochs=2000, log_every=500))
    out = sweep_experiment(cfg)
    bounds = [row.bound.total for row in out.rows]
    gaps = [row.gap for row in out.rows]
    decreasing = all(b > a for b, a in zip(bounds, bounds[1:]))
    r = out.pearson_r
    elapsed = time.time() - t0
    ok = (out.failed_rows == [] and r is not None and r >= 0.5
          and decreasing and elapsed < 1800)
    report("6 bound-vs-gap sweep", ok,
           f"pearson r {r:.3f}, bound column {['%.4g' % b for b in bounds]} "
           f"strictly decreasing: {decreasing}, gaps {['%.3g' % g for g in gaps]}, "
           f"{elapsed:.0f}s")


def test_criterion_7_artifact_determinism(tmp_path):
    argv = ["--set", "training.epochs=40", "--set", "dims.p=6",
            "--set", "sampling.n_r=12", "--set", "sampling.n_0=10",
            "--set", "training.log_every=10"]
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(argv + ["--out", str(out), "train"]) == 0
        assert cli_main(argv + ["--out", str(out), "bound",
                                str(out / "checkpoint.json")]) == 0
        outs.append(out)
    names = ["checkpoint.json", "history.csv", "train_run.json",
             "bound.json", "bound.csv"]
    same = {name: (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            for name in names}
    report("7 artifact determinism", all(same.values()),
           f"byte-identical across two runs: {same}")
