"""Huber loss, per-point residual losses and the empirical risk.

The risk has three parts: a momentum term (Huber of each component of
the momentum residual, averaged over interior collocation points), a
divergence penalty weighted by lambda0 at the same points, and an
initial-condition term weighted by lambda1 averaged over t=0 points.

The risk takes a field evaluator, any callable from points (..., d+1) to
a FieldEval with the same leading axes, so one call per point set scores
networks, analytic solutions and test doubles.  Point sums use math.fsum,
which is exact and therefore invariant under permutation of the points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .network import FieldEval


@dataclass(frozen=True)
class LossConfig:
    delta: float = 1.0      # Huber delta; also the loss Lipschitz constant
    lambda0: float = 1.0    # divergence penalty
    lambda1: float = 0.3    # initial-condition penalty
    nu: float = 0.01        # kinematic viscosity (density fixed at 1)

    def __post_init__(self):
        if self.delta <= 0 or self.nu <= 0:
            raise ValueError("delta and nu must be > 0")
        if self.lambda0 < 0 or self.lambda1 < 0:
            raise ValueError("lambda0 and lambda1 must be >= 0")


@dataclass
class CollocationSet:
    interior: np.ndarray   # (N_r, d+1) space-time points
    initial: np.ndarray    # (N_0, d) spatial points

    def __post_init__(self):
        self.interior = np.atleast_2d(np.asarray(self.interior, dtype=float))
        self.initial = np.atleast_2d(np.asarray(self.initial, dtype=float))
        if len(self.interior) < 1 or len(self.initial) < 1:
            raise ValueError("collocation sets must be nonempty")
        if not (np.all(np.isfinite(self.interior)) and np.all(np.isfinite(self.initial))):
            raise ValueError("collocation points must be finite")
        if self.interior.shape[1] != self.initial.shape[1] + 1:
            raise ValueError("interior points must have one more coordinate (time) than initial points")

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_initial(self) -> int:
        return len(self.initial)

    @functools.cached_property
    def initial_spacetime(self) -> np.ndarray:
        """The initial points as space-time points (x, 0), (N_0, d+1)."""
        return np.hstack([self.initial, np.zeros((self.n_initial, 1))])


@dataclass
class RiskBreakdown:
    momentum_term: float
    divergence_term: float
    initial_term: float

    @property
    def total(self) -> float:
        return self.momentum_term + self.divergence_term + self.initial_term

    @classmethod
    def average(cls, momentum, divergence, initial) -> "RiskBreakdown":
        """The point averages of per-point momentum, divergence and initial losses."""
        return cls(*(math.fsum(v) / len(v) for v in (momentum, divergence, initial)))


def huber(delta: float, x):
    """Quadratic for |x| <= delta, linear beyond; delta-Lipschitz."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    a = np.abs(x)
    c = np.minimum(a, delta)  # a where quadratic, delta where linear
    return c * (a - 0.5 * c)


def huber_grad(delta: float, x):
    # Both branches agree in value and slope at |x| = delta.
    return np.clip(x, -delta, delta)


def momentum_residual(fe: FieldEval, nu: float) -> np.ndarray:
    """Component k: du_k/dt + (u . grad) u_k + dp/dx_k - nu * lap u_k; broadcasts
    over leading axes of the field, such as the N axis of `network.fields`."""
    return (fe.du_dt + np.einsum("...m,...km->...k", fe.u, fe.jac_u)
            + fe.grad_p - nu * fe.lap_u)


def interior_losses(fe: FieldEval, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Momentum loss (Huber summed over components) and weighted divergence
    loss at each point of a field; both broadcast over leading axes."""
    return (huber(cfg.delta, momentum_residual(fe, cfg.nu)).sum(axis=-1),
            cfg.lambda0 * huber(cfg.delta, fe.div_u))


def loss_res(fe: FieldEval, cfg: LossConfig) -> float:
    momentum, divergence = interior_losses(fe, cfg)
    return float(momentum + divergence)


def loss_init(u_at_t0: np.ndarray, f0_val: np.ndarray, cfg: LossConfig) -> float:
    u_at_t0 = np.asarray(u_at_t0, dtype=float)
    f0_val = np.asarray(f0_val, dtype=float)
    if u_at_t0.shape != f0_val.shape:
        raise ValueError("velocity and initial-condition vectors must have equal length")
    return float(cfg.lambda1 * huber(cfg.delta, u_at_t0 - f0_val).sum())


def initial_targets(f0, X: np.ndarray) -> np.ndarray:
    """The target table f0(X) for spatial points X (N, d), from one call."""
    F0 = np.asarray(f0(X), dtype=float)
    if F0.shape != X.shape:
        raise ValueError(f"f0 maps points {X.shape} to {F0.shape}, not to {X.shape}")
    return F0


def empirical_risk(field, cfg: LossConfig, colloc: CollocationSet, f0) -> RiskBreakdown:
    """Average the per-point losses over the collocation sets.

    `field` is a field evaluator, called once per set; `f0` maps (..., d)
    spatial points to the (..., d) target initial velocities.
    """
    u0 = field(colloc.initial_spacetime).u
    # loss_init runs once per initial point: perfbench/test_perfbench.py counts
    # one call per population point of check_symmetrization.
    initial = [loss_init(u, f0_val, cfg)
               for u, f0_val in zip(u0, initial_targets(f0, colloc.initial))]
    return RiskBreakdown.average(*interior_losses(field(colloc.interior), cfg), initial)
