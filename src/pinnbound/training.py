"""Hand-derived risk gradient with respect to W, AdamW, and the training loop.

The gradient is the reverse pass of `network.fields`, with sigma''' from the
activation module besides; A1 and a2 never receive updates.  The
initial-condition targets are the collocation set's own `targets`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec, eval_derivs  # noqa: F401  (perfbench traces it here)
from .network import PinnWeights, coefficient_tables, fields
from .residual import (CollocationSet, LossConfig, RiskBreakdown, huber_grad,
                       initial_losses, interior_losses, momentum_residual)


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
        if self.eps_adam < 0 or self.weight_decay < 0:   # AdamW's denominator and decay
            raise ValueError("eps_adam and weight_decay must be >= 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


# Activations per scoring chunk: 512 points at p = 64, an L2-sized derivative stack.
_CHUNK = 32768


def risk_breakdown(weights: PinnWeights, spec: ActivationSpec, cfg: LossConfig,
                   colloc: CollocationSet) -> RiskBreakdown:
    """Empirical risk of the network (the value of `empirical_risk` with
    `field_eval`, computed without a Python loop over points).  Each set is
    scored in chunks of _CHUNK // p points, one `fields` call per chunk, so
    memory stays bounded however large the set; each point's loss reads
    only its own row and math.fsum is exact, so the chunks do not change
    the risk."""
    step = max(1, _CHUNK // weights.p)
    interior = [interior_losses(fields(weights, spec, colloc.interior[a:a + step])[0], cfg)
                for a in range(0, colloc.n_interior, step)]
    initial = [initial_losses(fields(weights, spec, colloc.initial_spacetime[a:a + step],
                                     derivatives=False)[0].u, colloc.targets[a:a + step], cfg)
               for a in range(0, colloc.n_initial, step)]
    momentum, divergence = map(np.concatenate, zip(*interior))
    return RiskBreakdown.average(momentum, divergence, np.concatenate(initial))


def _pull(table: np.ndarray, bar: np.ndarray, z: np.ndarray, s: np.ndarray, rest=()):
    """sum_{n, r} table[q, r] bar[r, n] z[j, n] s[n, q] as (p, j), the points summed first in
    one product of the rows bar (x) z with s; rows `rest` ride along and return as rest @ s."""
    r, m = len(bar), len(z)
    rows = np.empty((r * m + len(rest), z.shape[1]))
    np.multiply(bar[:, None, :], z, out=rows[:r * m].reshape(r, m, -1))
    rows[r * m:] = np.reshape(rest, (-1, z.shape[1]))
    P = rows @ s
    return (P[:r * m].reshape(r, m, -1).T @ table[:, :, None])[..., 0], P[r * m:]


def grad_risk(weights: PinnWeights, spec: ActivationSpec, cfg: LossConfig,
              colloc: CollocationSet) -> np.ndarray:
    """Exact gradient of the empirical risk in W, the reverse pass of `network.fields`: the
    adjoints of u, [du_dt | grad_p | jac_u] and lap_u reach W through sigma^(l+1)(W_q . z) z
    times A1.T, H and L, and through the W entries of H and L.  Huber's slopes agree at kinks."""
    A1, a2, d = weights.A1, weights.a2, weights.d
    H, L = coefficient_tables(weights)
    fe, (_, s1, s2, s3) = fields(weights, spec, colloc.interior)
    z = colloc.interior.T.copy()
    # The adjoints are rows (r, N), so that their products run along N; lap_u's is -nu g.
    g = huber_grad(cfg.delta, momentum_residual(fe, cfg.nu)).T.copy()
    bar_first = np.empty((2 * d + d * d, colloc.n_interior))      # [du_dt | grad_p | jac_u]
    bar_first[:d] = bar_first[d:2 * d] = g
    np.multiply(g[:, None, :], fe.u.T, out=bar_first[2 * d:].reshape(d, d, -1))  # (u . grad) u
    bar_first[2 * d::d + 1] += cfg.lambda0 * huber_grad(cfg.delta, fe.div_u)   # div_u = tr jac_u
    bar_u = np.einsum("kn,nkm->mn", g, fe.jac_u)                  # u in (u . grad) u
    G, F1 = _pull(A1.T, bar_u, z, s1, rest=bar_first)
    G2, F2 = _pull(H, bar_first, z, s2, rest=-cfg.nu * g)
    G += G2 + _pull(L, -cfg.nu * g, z, s3)[0]
    # The W entries of H (A1 W[q, d], a2 Wx, A1 Wx) and of L (A1 |Wx_q|^2).
    G[:, d] += np.einsum("kq,kq->q", A1, F1[:d])
    G[:, :d] += a2[:, None] * F1[d:2 * d].T + np.einsum("kq,kmq->qm", A1, F1[2 * d:].reshape(d, d, -1))
    G[:, :d] += 2.0 * np.einsum("kq,kq->q", A1, F2)[:, None] * weights.W[:, :d]
    G /= colloc.n_interior
    # t = 0: u through W_q . z, where z = (x, 0) has no time entry.
    fe0, (_, s1_0, _, _) = fields(weights, spec, colloc.initial_spacetime, derivatives=False)
    g0 = cfg.lambda1 * huber_grad(cfg.delta, fe0.u - colloc.targets)
    G[:, :d] += _pull(A1.T, g0.T, colloc.initial.T, s1_0)[0] / colloc.n_initial
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


@functools.cache
def _keep_freed_memory() -> None:
    """Fix glibc's mmap threshold at the 32 MiB ceiling of its own dynamic
    threshold, and the trim threshold at twice that, for the whole process.
    An epoch frees the few MB of temporaries it allocates; left to its
    defaults glibc hands them back to the kernel and the next epoch faults
    the same pages in again.  Other C libraries are left alone."""
    import ctypes
    import platform
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def train(weights0: PinnWeights, spec: ActivationSpec, loss_cfg: LossConfig,
          colloc: CollocationSet, tc: TrainConfig):
    """Full-batch AdamW for tc.epochs epochs; fully deterministic.

    Returns the final weights and a history of (epoch, RiskBreakdown)
    sampled every log_every epochs (plus the last epoch).
    """
    _keep_freed_memory()
    weights = weights0.copy()
    state = OptimState.zeros(weights)
    history: list[tuple[int, RiskBreakdown]] = []
    for epoch in range(1, tc.epochs + 1):
        grads = grad_risk(weights, spec, loss_cfg, colloc)
        weights, state = adamw_step(weights, grads, state, tc)
        if epoch % tc.log_every == 0 or epoch == tc.epochs:
            rb = risk_breakdown(weights, spec, loss_cfg, colloc)
            if not math.isfinite(rb.total):
                raise RuntimeError(f"training diverged at epoch {epoch}: risk is non-finite")
            history.append((epoch, rb))
    return weights, history
