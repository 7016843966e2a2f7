"""Hand-derived risk gradient with respect to W, AdamW, and the training loop.

The gradient chains the Huber derivative through the closed-form field
derivatives of `network.fields`.  Because those closed forms already
contain sigma' and sigma'', the gradient needs sigma''' (supplied
analytically by the activation module).  A1 and a2 never receive updates.
The initial-condition function f0 maps (..., d) spatial points to (..., d)
target velocities; `train` builds its table F0 = f0(colloc.initial) once
and hands it to the risk and the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec, eval_derivs  # noqa: F401  (perfbench traces it here)
from .network import PinnWeights, fields
from .residual import (CollocationSet, LossConfig, RiskBreakdown, huber, huber_grad,
                       initial_targets, interior_losses, momentum_residual)


@dataclass
class OptimState:
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, weights: PinnWeights) -> "OptimState":
        return cls(step=0, m=np.zeros_like(weights.W), v=np.zeros_like(weights.W))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    weight_decay: float = 0.01
    log_every: int = 100

    def __post_init__(self):
        if self.epochs < 1 or self.log_every < 1:
            raise ValueError("epochs and log_every must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


def risk_breakdown(weights: PinnWeights, spec: ActivationSpec, cfg: LossConfig,
                   colloc: CollocationSet, F0: np.ndarray) -> RiskBreakdown:
    """Empirical risk of the network (the value of `empirical_risk` with
    `field_eval`, computed without a Python loop over points).
    F0 is the (N_0, d) target table `initial_targets(f0, colloc.initial)`."""
    fe = fields(weights, spec, colloc.interior)[0]
    u0 = fields(weights, spec, colloc.initial_spacetime)[0].u
    initial = cfg.lambda1 * np.sum(huber(cfg.delta, u0 - F0), axis=1)
    return RiskBreakdown.average(*interior_losses(fe, cfg), initial)


def grad_risk(weights: PinnWeights, spec: ActivationSpec, cfg: LossConfig,
              colloc: CollocationSet, F0: np.ndarray) -> np.ndarray:
    """Exact gradient of the empirical risk with respect to W, for the
    target table F0 of `risk_breakdown`.

    At Huber kink points the two branch derivatives coincide, so the
    clipped derivative is used without ambiguity.
    """
    W, A1, a2 = weights.W, weights.A1, weights.a2
    d = weights.d
    Z = colloc.interior
    fe, (_, s1, s2, s3) = fields(weights, spec, Z)
    u, jac = fe.u, fe.jac_u
    w_t, Wx = W[:, d], W[:, :d]
    rowsq = np.sum(Wx * Wx, axis=1)
    g = huber_grad(cfg.delta, momentum_residual(fe, cfg.nu))  # (N, d)
    gd = cfg.lambda0 * huber_grad(cfg.delta, fe.div_u)        # (N,)

    gA = g @ A1                                    # (N, p)
    t1 = np.einsum("nk,nkm->nm", g, jac)
    dvec = np.einsum("mq,qm->q", A1, Wx)           # divergence weights per unit

    # Terms proportional to z_j, collected as alpha[n, q] * Z[n, j].
    alpha = (gA * w_t * s2
             + s1 * (t1 @ A1)
             + s2 * gA * (u @ Wx.T)
             + s2 * a2 * (g @ Wx.T)
             - cfg.nu * s3 * gA * rowsq
             + gd[:, None] * s2 * dvec)
    G = alpha.T @ Z

    # Column-specific terms (explicit W entries inside the closed forms).
    G[:, d] += np.sum(gA * s1, axis=0)
    G[:, :d] += (s1 * gA).T @ u
    G[:, :d] += (s1.T @ g) * a2[:, None]
    G[:, :d] += -2.0 * cfg.nu * np.sum(gA * s2, axis=0)[:, None] * Wx
    G[:, :d] += np.sum(gd[:, None] * s1, axis=0)[:, None] * A1.T
    G /= colloc.n_interior

    Z0 = colloc.initial_spacetime
    fe0, (_, s1_0, _, _) = fields(weights, spec, Z0)
    g0 = cfg.lambda1 * huber_grad(cfg.delta, fe0.u - F0)
    G += ((g0 @ A1) * s1_0).T @ Z0 / colloc.n_initial
    return G


def adamw_step(weights: PinnWeights, grads: np.ndarray, state: OptimState,
               tc: TrainConfig) -> tuple[PinnWeights, OptimState]:
    """One decoupled-weight-decay Adam step on W."""
    if grads.shape != weights.W.shape:
        raise ValueError("gradient shape does not match W")
    step = state.step + 1
    W = weights.W * (1.0 - tc.learning_rate * tc.weight_decay)
    m = tc.beta1 * state.m + (1.0 - tc.beta1) * grads
    v = tc.beta2 * state.v + (1.0 - tc.beta2) * grads * grads
    m_hat = m / (1.0 - tc.beta1 ** step)
    v_hat = v / (1.0 - tc.beta2 ** step)
    W = W - tc.learning_rate * m_hat / (np.sqrt(v_hat) + tc.eps_adam)
    if not np.all(np.isfinite(W)):
        raise RuntimeError(f"training diverged at epoch {step}: weights are non-finite")
    return PinnWeights(W=W, A1=weights.A1, a2=weights.a2), OptimState(step=step, m=m, v=v)


def train(weights0: PinnWeights, spec: ActivationSpec, loss_cfg: LossConfig,
          colloc: CollocationSet, f0, tc: TrainConfig):
    """Full-batch AdamW for tc.epochs epochs; fully deterministic.

    Returns the final weights and a history of (epoch, RiskBreakdown)
    sampled every log_every epochs (plus the last epoch).
    """
    weights = weights0.copy()
    state = OptimState.zeros(weights)
    history: list[tuple[int, RiskBreakdown]] = []
    F0 = initial_targets(f0, colloc.initial)
    for epoch in range(1, tc.epochs + 1):
        grads = grad_risk(weights, spec, loss_cfg, colloc, F0)
        weights, state = adamw_step(weights, grads, state, tc)
        if epoch % tc.log_every == 0 or epoch == tc.epochs:
            rb = risk_breakdown(weights, spec, loss_cfg, colloc, F0)
            if not math.isfinite(rb.total):
                raise RuntimeError(f"training diverged at epoch {epoch}: risk is non-finite")
            history.append((epoch, rb))
    return weights, history
