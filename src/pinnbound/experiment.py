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
import math
import os
import signal
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds
from .activations import ActivationSpec, SigmaConstants, constants
from .network import FieldEval, PinnWeights, init_weights
from .residual import CollocationSet, LossConfig
from .training import TrainConfig, risk_breakdown, train

UNIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
FIGURE1_BOX = ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0))


def taylor_green_field(z, nu: float) -> FieldEval:
    """Closed-form field and all its derivatives at z = (x, y, t) for the
    viscosity nu > 0; for points z of shape (..., 3) every entry of the
    result leads with the same axes."""
    if nu <= 0:
        raise ValueError("nu must be > 0")
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (3,):
        raise ValueError("the vortex solution is 2-dimensional: z must be (..., 3) = (x, y, t)")
    x, y, t = z[..., 0], z[..., 1], z[..., 2]
    pi = math.pi
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


def taylor_green_initial(nu: float):
    """The t=0 velocity slice, as an initial-condition function mapping
    (..., 2) spatial points to (..., 2) velocities."""
    def f0(x):
        x = np.asarray(x, dtype=float)
        return taylor_green_field(np.append(x, np.zeros_like(x[..., :1]), axis=-1), nu).u
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


def pearson(xs, ys) -> float | None:
    """Pearson r, or None where it is undefined: under 3 pairs, or a constant column."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("need paired values")
    if len(xs) < 3 or np.std(xs) == 0.0 or np.std(ys) == 0.0:
        return None
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
        return {**asdict(self), "gap": self.gap, "bound": self.bound.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "GapReport":
        """Inverse of to_dict."""
        keys = ("N_r", "N_0", "train_risk", "population_estimate", "population_points", "seed")
        return cls(bound=bounds.BoundReport.from_dict(doc["bound"]), **{k: doc[k] for k in keys})


def measure_gap(cfg: SweepConfig, weights: PinnWeights, train_colloc: CollocationSet,
                train_risk: float, seed: int) -> GapReport:
    """The training set's empirical risk `train_risk` (as `train` last logged
    it) vs the risk on cfg.population_factor * max(N_r, N_0) fresh uniform
    points in cfg.box, scored against the training set's f0, plus the bound
    evaluated at the trained weights with the box's moment constants and
    cfg's activation, loss and constants."""
    N_r, N_0 = train_colloc.n_interior, train_colloc.n_initial
    population_points = cfg.population_factor * max(N_r, N_0)
    if population_points < 10 * N_r:
        raise ValueError("population_factor * max(N_r, N_0) must be >= 10 * N_r")
    pop_int = sample_interior(population_points, cfg.box, seed)
    pop_init = sample_initial(population_points, cfg.box[:-1], seed + 1)
    pop_set = CollocationSet(pop_int, pop_init, train_colloc.f0)
    pop_risk = risk_breakdown(weights, cfg.activation, cfg.loss, pop_set).total

    sc = cfg.sigma_constants or constants(cfg.activation)
    C_z, C_z0 = moment_constants(cfg.box)
    report = bounds.generalization_bound(bounds.weight_stats(weights), sc, cfg.loss,
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
        return {**asdict(self), "rows": [r.to_dict() for r in self.rows]}


def train_vortex(cfg: SweepConfig, n_r: int, seed: int, w_scale: float | None = None):
    """Train one network on the vortex in cfg.box: n_r interior points drawn
    from `seed`, cfg.n_0 initial points from seed + 1, the weights from
    seed + 2.  Returns (weights, history, colloc) as `train` and its point
    set; raises RuntimeError if training diverges."""
    colloc = CollocationSet(sample_interior(n_r, cfg.box, seed),
                            sample_initial(cfg.n_0, cfg.box[:-1], seed + 1),
                            taylor_green_initial(cfg.loss.nu))
    weights0 = init_weights(d=2, p=cfg.width, seed=seed + 2, w_scale=w_scale)
    weights, history = train(weights0, cfg.activation, cfg.loss, colloc, cfg.train)
    return weights, history, colloc


def sweep_row(cfg: SweepConfig, idx: int) -> GapReport:
    """Train and evaluate one sweep row.  Seeds derive from (cfg.seed, idx),
    so rows are independent and individually reproducible.  Raises
    RuntimeError if the row's training diverges."""
    n_r = int(cfg.n_r_values[idx])
    row_seed = int(np.random.default_rng((cfg.seed, idx)).integers(2**31))
    weights, history, colloc = train_vortex(cfg, n_r, row_seed)
    return measure_gap(cfg, weights, colloc, history[-1][1].total, row_seed + 3)


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class WorkerLost(Exception):
    """A sweep worker ended without sending its row back: killed from outside, say."""


def _serve(row, cfg: SweepConfig, idx: int, conn, others) -> None:
    """A sweep worker: sends back `row(cfg, idx)`, or its exception, for idx and each idx sent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is for the main process,
    signal.signal(signal.SIGTERM, signal.SIG_DFL)   # and its SIGTERM kills
    for other in others:       # the main process's pipe ends: once it closes ours, EOF ends us
        other.close()
    with contextlib.suppress(EOFError, ConnectionError):   # the main process closed our pipe
        while idx is not None:
            try:
                result = row(cfg, idx)
            except Exception as exc:     # the main process records or raises it
                result = exc
            conn.send(result)
            idx = conn.recv()


def sweep_experiment(cfg: SweepConfig, row=None, cached=None, progress=None) -> CorrelationReport:
    """Train one net per N_r, measure its gap, evaluate its bound, and
    correlate bound against gap across the rows.

    `row(cfg, idx)` computes one row (default `sweep_row`); `cached` maps
    the indices of rows already known to their GapReports, which are not
    computed again.  `progress(idx, result)` sees each row in index order
    as soon as it and every row before it are known: its GapReport or, if
    its training diverged, its RuntimeError.  Diverged rows are recorded in
    failed_rows and excluded from the correlation.

    Rows share nothing (their seeds come from (cfg.seed, idx)), so those to
    compute go, largest N_r first, to forked workers on pipes of their own,
    one per CPU in this process's affinity and at most one per row: `row`
    need not be picklable, its results and exceptions must be.  With one CPU
    or one row to compute, each row runs here in its turn.  Any exception but
    a row's RuntimeError stops handing out rows and is raised once the rows
    handed out are back; a KeyboardInterrupt or WorkerLost kills them at once.
    """
    row = row or sweep_row
    # the rows' activation constants, once and before any row: constants that are not finite
    # raise their OverflowError here, not after every row has trained
    cfg = replace(cfg, sigma_constants=cfg.sigma_constants or constants(cfg.activation))
    results = dict(cached or {})
    todo = sorted((idx for idx in range(len(cfg.n_r_values)) if idx not in results),
                  key=lambda idx: cfg.n_r_values[idx])      # pop() takes the largest N_r
    workers, running = {}, {}     # a worker's pipe end -> its process; -> the row it computes

    def receive() -> None:
        conn = multiprocessing.connection.wait(list(running))[0]
        idx = running.pop(conn)
        try:
            results[idx] = conn.recv()
        except (EOFError, ConnectionResetError):
            workers[conn].join()
            raise WorkerLost(f"N_r={cfg.n_r_values[idx]}, exit code {workers[conn].exitcode}")
        if todo:                          # the next row, or None: the worker leaves
            running[conn] = todo.pop()
        with contextlib.suppress(BrokenPipeError):   # a dead worker's pipe then reads EOF
            conn.send(running.get(conn))

    try:
        if (n := min(len(todo), _cpus())) > 1:
            import multiprocessing.connection   # here, so that a serial sweep skips its import
            ctx = multiprocessing.get_context("fork")
            sys.stdout.flush()            # so that no buffered line is written twice
            sys.stderr.flush()
            for _ in range(n):
                here, there = ctx.Pipe()
                idx = todo.pop()
                proc = ctx.Process(target=_serve, args=(row, cfg, idx, there, [*workers, here]))
                proc.start()
                workers[here], running[here] = proc, idx
                there.close()             # so that the worker's exit reads EOF here
        for idx in range(len(cfg.n_r_values)):
            while running and idx not in results:
                receive()
            if idx not in results:        # no worker: the row is computed here
                try:
                    results[idx] = row(cfg, idx)
                except RuntimeError as exc:   # its training diverged
                    results[idx] = exc
            if isinstance(results[idx], Exception) and not isinstance(results[idx], RuntimeError):
                raise results[idx]
            if progress:
                progress(idx, results[idx])
    except Exception as exc:      # the rows handed out finish first, unless a worker is lost
        todo.clear()
        while running and not isinstance(exc, WorkerLost):
            receive()
        raise
    finally:
        for conn, proc in workers.items():
            if conn in running:           # an interrupt or a lost worker: kill the rest
                proc.kill()
            conn.close()                  # a worker waiting for a row reads EOF and leaves
            proc.join()
    rows = [res for _, res in sorted(results.items()) if isinstance(res, GapReport)]
    failed = [{"N_r": int(cfg.n_r_values[idx]), "index": idx, "error": str(res)}
              for idx, res in sorted(results.items()) if not isinstance(res, GapReport)]
    r = pearson([rep.bound.total for rep in rows], [rep.gap for rep in rows])
    return CorrelationReport(rows=rows, pearson_r=r, failed_rows=failed)
