"""Taylor-Green benchmark, collocation samplers, gap measurement and the
bound-vs-gap correlation sweep.

The decaying 2D vortex
    u(x, y, t) = -cos(pi x) sin(pi y) exp(-2 pi^2 nu t)
    v(x, y, t) =  sin(pi x) cos(pi y) exp(-2 pi^2 nu t)
    p(x, y, t) = -(1/4) (cos(2 pi x) + cos(2 pi y)) exp(-4 pi^2 nu t)
solves the incompressible momentum and divergence equations exactly
(density 1), so its residual vanishes identically and it doubles as a
zero-loss reference field in tests.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .activations import ActivationSpec, SigmaConstants, constants
from .network import FieldEval, PinnWeights, init_weights
from .residual import CollocationSet, LossConfig, initial_targets
from .training import TrainConfig, risk_breakdown, train

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
FIGURE1_BOX = ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0))


@dataclass(frozen=True)
class TaylorGreenParams:
    nu: float = 0.01

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be > 0")


def taylor_green_field(z, params: TaylorGreenParams) -> FieldEval:
    """Closed-form field and all its derivatives at z = (x, y, t); for points
    z of shape (..., 3) every entry of the result leads with the same axes."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (3,):
        raise ValueError("the vortex solution is 2-dimensional: z must be (..., 3) = (x, y, t)")
    x, y, t = z[..., 0], z[..., 1], z[..., 2]
    nu, pi = params.nu, math.pi
    E = np.exp(-2.0 * pi * pi * nu * t)
    E2 = E * E
    cx, sx = np.cos(pi * x), np.sin(pi * x)
    cy, sy = np.cos(pi * y), np.sin(pi * y)

    vel = np.stack([-cx * sy * E, sx * cy * E], axis=-1)
    p_val = -0.25 * (np.cos(2 * pi * x) + np.cos(2 * pi * y)) * E2
    jac = np.stack([
        np.stack([pi * sx * sy * E, -pi * cx * cy * E], axis=-1),
        np.stack([pi * cx * cy * E, -pi * sx * sy * E], axis=-1),
    ], axis=-2)
    grad_p = 0.5 * pi * np.stack([np.sin(2 * pi * x), np.sin(2 * pi * y)], axis=-1)
    return FieldEval(u=vel, p_val=p_val, du_dt=-2.0 * pi * pi * nu * vel, jac_u=jac,
                     grad_p=grad_p * E2[..., None], lap_u=-2.0 * pi * pi * vel,
                     div_u=jac[..., 0, 0] + jac[..., 1, 1])


def taylor_green_initial(params: TaylorGreenParams):
    """The t=0 velocity slice, as an initial-condition function mapping
    (..., 2) spatial points to (..., 2) velocities."""
    def f0(x):
        x = np.asarray(x, dtype=float)
        return taylor_green_field(np.append(x, np.zeros_like(x[..., :1]), axis=-1), params).u
    return f0


def _check_box(box) -> np.ndarray:
    """The box as a (k, 2) array of k >= 2 finite increasing [low, high]
    intervals, time last; raises ValueError for anything else."""
    try:
        lo_hi = np.asarray(box, dtype=float)
    except (TypeError, ValueError):          # ragged, or not numbers
        lo_hi = np.empty(0)
    if (lo_hi.ndim != 2 or lo_hi.shape[0] < 2 or lo_hi.shape[1] != 2
            or not np.all(np.isfinite(lo_hi) & (lo_hi[:, :1] < lo_hi[:, 1:]))):
        raise ValueError(f"a box must be k >= 2 finite increasing intervals, got {box!r}")
    return lo_hi


def sample_interior(n: int, box, seed: int) -> np.ndarray:
    """n i.i.d. uniform space-time points in the box (last axis is time)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    box = _check_box(box)
    rng = np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1], size=(n, len(box)))


def sample_initial(n: int, box, seed: int) -> np.ndarray:
    """n i.i.d. uniform spatial points (the box here is spatial only)."""
    return sample_interior(n, box, seed)


def moment_constants(box) -> tuple[float, float]:
    """Root-mean-square norms of uniform points in the box: C_z over all its
    axes and C_z0 over the spatial ones (an initial point is (x, 0)).  On
    [a, b], E z^2 = (a^2 + a b + b^2) / 3, summed exactly and rounded once."""
    from fractions import Fraction   # here, so that commands without a bound skip its import
    ends = [map(Fraction, ab) for ab in _check_box(box).tolist()]
    moments = [(a * a + a * b + b * b) / 3 for a, b in ends]
    return math.sqrt(sum(moments)), math.sqrt(sum(moments[:-1]))


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys) or len(xs) < 3:
        raise ValueError("need >= 3 paired values")
    if np.std(xs) == 0.0 or np.std(ys) == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.corrcoef(xs, ys)[0, 1])


@dataclass
class GapReport:
    N_r: int
    N_0: int
    train_risk: float
    population_estimate: float
    population_points: int
    bound: bounds.BoundReport
    seed: int

    @property
    def gap(self) -> float:
        return abs(self.train_risk - self.population_estimate)

    def to_dict(self) -> dict:
        return {"N_r": self.N_r, "N_0": self.N_0, "train_risk": self.train_risk,
                "population_estimate": self.population_estimate,
                "population_points": self.population_points, "gap": self.gap,
                "bound": self.bound.to_dict(), "seed": self.seed}

    @classmethod
    def from_dict(cls, doc: dict) -> "GapReport":
        """Inverse of to_dict."""
        keys = ("N_r", "N_0", "train_risk", "population_estimate", "population_points", "seed")
        return cls(bound=bounds.BoundReport.from_dict(doc["bound"]), **{k: doc[k] for k in keys})


def measure_gap(weights: PinnWeights, spec: ActivationSpec, loss_cfg: LossConfig,
                train_colloc: CollocationSet, train_risk: float, f0, population_points: int,
                seed: int, box=UNIT_BOX,
                sigma_constants: SigmaConstants | None = None) -> GapReport:
    """The training set's empirical risk `train_risk` (as `train` last logged
    it) vs the risk on a fresh large uniform sample, plus the bound evaluated
    at the trained weights with the box's moment constants."""
    N_r, N_0 = train_colloc.n_interior, train_colloc.n_initial
    if population_points < 10 * N_r:
        raise ValueError("population_points must be >= 10 * N_r")
    box = np.asarray(box, dtype=float)
    pop_int = sample_interior(population_points, box, seed)
    pop_init = sample_initial(population_points, box[:-1], seed + 1)
    pop_set = CollocationSet(interior=pop_int, initial=pop_init)

    pop_risk = risk_breakdown(weights, spec, loss_cfg, pop_set,
                              initial_targets(f0, pop_set.initial)).total

    sc = sigma_constants if sigma_constants is not None else constants(spec)
    C_z, C_z0 = moment_constants(box)
    report = bounds.generalization_bound(bounds.weight_stats(weights), sc, loss_cfg,
                                         N_r, N_0, C_z, C_z0)
    return GapReport(N_r=N_r, N_0=N_0, train_risk=train_risk,
                     population_estimate=pop_risk,
                     population_points=population_points, bound=report, seed=seed)


@dataclass
class SweepConfig:
    n_r_values: tuple = (27, 64, 125, 216)
    n_0: int = 500
    width: int = 64
    activation: ActivationSpec = ActivationSpec.from_name("tanh", 3)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    box: tuple = UNIT_BOX
    seed: int = 0
    population_factor: int = 10
    sigma_constants: SigmaConstants | None = None  # per-run override

    def __post_init__(self):
        if len(self.n_r_values) < 3:
            raise ValueError("need at least 3 N_r values for a correlation")
        if min(self.n_r_values) < 1 or self.n_0 < 1 or self.width < 1:
            raise ValueError("N_r values, n_0 and width must be >= 1")
        if any(self.population_factor * max(n, self.n_0) < 10 * n for n in self.n_r_values):
            raise ValueError("population_factor * max(N_r, n_0) must be >= 10 * N_r")


@dataclass
class CorrelationReport:
    rows: list
    pearson_r: float | None
    failed_rows: list

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows],
                "pearson_r": self.pearson_r,
                "failed_rows": self.failed_rows}


def train_vortex(cfg: SweepConfig, n_r: int, seed: int, w_scale: float | None = None):
    """Train one network on the vortex in cfg.box: n_r interior points drawn
    from `seed`, cfg.n_0 initial points from seed + 1, the weights from
    seed + 2.  Returns (weights, history, colloc, f0) as `train` and its
    inputs; raises RuntimeError if training diverges."""
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.loss.nu))
    box = np.asarray(cfg.box, dtype=float)
    colloc = CollocationSet(interior=sample_interior(n_r, box, seed),
                            initial=sample_initial(cfg.n_0, box[:-1], seed + 1))
    weights0 = init_weights(d=2, p=cfg.width, seed=seed + 2, w_scale=w_scale)
    weights, history = train(weights0, cfg.activation, cfg.loss, colloc, f0, cfg.train)
    return weights, history, colloc, f0


def sweep_row(cfg: SweepConfig, idx: int) -> GapReport:
    """Train and evaluate one sweep row.  Seeds derive from (cfg.seed, idx),
    so rows are independent and individually reproducible.  Raises
    RuntimeError if the row's training diverges."""
    n_r = int(cfg.n_r_values[idx])
    row_seed = int(np.random.default_rng((cfg.seed, idx)).integers(2**31))
    weights, history, colloc, f0 = train_vortex(cfg, n_r, row_seed)
    return measure_gap(weights, cfg.activation, cfg.loss, colloc, history[-1][1].total, f0,
                       population_points=cfg.population_factor * max(n_r, cfg.n_0),
                       seed=row_seed + 3, box=cfg.box,
                       sigma_constants=cfg.sigma_constants)


def correlate(bound_totals, gaps) -> float | None:
    """Pearson r, or None when it is undefined (constant column or too
    few rows)."""
    try:
        return pearson(bound_totals, gaps)
    except ValueError:
        return None


def _row_or_error(row, cfg: SweepConfig, idx: int):
    """(idx, row(cfg, idx)), or (idx, the RuntimeError) if the row diverged."""
    try:
        return idx, row(cfg, idx)
    except RuntimeError as exc:
        return idx, exc


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def sweep_experiment(cfg: SweepConfig, row=None, cached=None, progress=None) -> CorrelationReport:
    """Train one net per N_r, measure its gap, evaluate its bound, and
    correlate bound against gap across the rows.

    `row(cfg, idx)` computes one row (default `sweep_row`); `cached` maps
    the indices of rows already known to their GapReports, which are not
    computed again.  `progress(idx, result)` sees each row in index order
    as soon as it and every row before it are known: its GapReport or, if
    its training diverged, its RuntimeError.  Diverged rows are recorded in
    failed_rows and excluded from the correlation.

    Rows share nothing (their seeds come from (cfg.seed, idx)), so the ones
    to compute run in forked workers, one per CPU in this process's
    affinity and no more than there are such rows, largest N_r first;
    `row` must then be picklable, e.g. a functools.partial of a module
    function.  With one CPU or one row they run here in index order
    (`taskset -c 0` gives a serial sweep).  Forking is safe: numpy's
    OpenBLAS shuts its thread pool down before a fork, and buffered output
    is flushed first so no line is written twice.  Workers ignore SIGINT;
    Ctrl-C, or a row's exception other than RuntimeError, stops them all.
    """
    job = functools.partial(_row_or_error, row or sweep_row, cfg)
    results = dict(cached or {})
    todo = [idx for idx in range(len(cfg.n_r_values)) if idx not in results]
    workers = min(len(todo), _cpus())
    shown = 0

    def show_known_rows():
        nonlocal shown
        while shown in results:
            if progress:
                progress(shown, results[shown])
            shown += 1

    show_known_rows()
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            finished = map(job, todo)
        else:
            import multiprocessing   # here, so that a serial sweep skips its import
            import signal
            todo.sort(key=lambda idx: -cfg.n_r_values[idx])
            sys.stdout.flush()
            sys.stderr.flush()
            pool = stack.enter_context(multiprocessing.get_context("fork").Pool(
                workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)))
            finished = pool.imap_unordered(job, todo)
        for idx, result in finished:
            results[idx] = result
            show_known_rows()
    rows = [res for _, res in sorted(results.items()) if isinstance(res, GapReport)]
    failed = [{"N_r": int(cfg.n_r_values[idx]), "index": idx, "error": str(res)}
              for idx, res in sorted(results.items()) if not isinstance(res, GapReport)]
    r = correlate([row.bound.total for row in rows], [row.gap for row in rows])
    return CorrelationReport(rows=rows, pearson_r=r, failed_rows=failed)
