"""Hand-derived risk gradient with respect to W, AdamW, and the training loop.

The gradient chains the Huber derivative through the closed-form field
derivatives of `network.fields`.  Because those closed forms already
contain sigma' and sigma'', the gradient needs sigma''' (supplied
analytically by the activation module).  A1 and a2 never receive updates.
The initial-condition targets are the collocation set's own `targets`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec, eval_derivs  # noqa: F401  (perfbench traces it here)
from .network import PinnWeights, fields
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


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outer products of the columns of a (i, N) and b (j, N), as a row-major (i*j, N)."""
    return np.multiply(a[:, None, :], b, order="C").reshape(-1, a.shape[-1])


def grad_risk(weights: PinnWeights, spec: ActivationSpec, cfg: LossConfig,
              colloc: CollocationSet) -> np.ndarray:
    """Exact gradient of the empirical risk with respect to W.  Each term of
    dR/dW[q, j] is sigma^(l)(W_q . z) times a product of per-point vectors
    (the clipped Huber slopes g and gd, t1 = g . grad u, (u, 1), z) times a
    coefficient of unit q, so each level l first sums over the points, in
    one product F_l @ s_l.  At Huber kinks both branch slopes agree.
    """
    W, A1, a2 = weights.W, weights.A1, weights.a2
    d, p = weights.d, weights.p
    fe, (_, s1, s2, s3) = fields(weights, spec, colloc.interior)
    Wx, z = W[:, :d], colloc.interior.T.copy()
    # The per-point vectors are rows (r, N), so that their products run along N.
    g = huber_grad(cfg.delta, momentum_residual(fe, cfg.nu)).T.copy()
    t1 = np.einsum("kn,nkm->mn", g, fe.jac_u)
    gd = cfg.lambda0 * huber_grad(cfg.delta, fe.div_u)[None]
    X = np.vstack([_outer(g, np.vstack([fe.u.T, np.ones_like(gd)])), g, gd])  # g (u, 1), g, gd

    def via_A1(P):  # sum_k A1[k, q] P[k*r + j, q] for P of shape (d*r, p)
        return np.einsum("kq,kjq->qj", A1, P.reshape(d, -1, p))

    # sigma': u in (u . grad) u through W_q . z (t1 z); the explicit W entries
    # of du/dt and grad u (g (u, 1)), of grad p (a2 g) and of div u (A1 gd).
    nz = d * (d + 1)
    P1 = np.vstack([X[:nz] + _outer(t1, z), X[nz:]]) @ s1
    G = via_A1(P1[:nz])
    G[:, :d] += (a2 * P1[nz:-1] + P1[-1] * A1).T
    # sigma'': du/dt and grad u through W_q . z (A1 times a row of W), grad p
    # (a2 Wx) and div u (the divergence weights) likewise; the W entries of
    # the Laplacian's row norms (-2 nu A1 g Wx).
    P2 = np.vstack([_outer(X, z), g]) @ s2
    coef = np.vstack([(A1[:, None, :] * W.T).reshape(nz, p), a2 * Wx.T,
                      np.einsum("kq,qk->q", A1, Wx)])
    G += np.einsum("iq,ijq->qj", coef, P2[:-d].reshape(-1, d + 1, p))
    G[:, :d] -= 2.0 * cfg.nu * via_A1(P2[-d:]) * Wx
    # sigma''': the Laplacian through W_q . z (-nu A1 g |Wx_q|^2 z).
    G -= cfg.nu * np.sum(Wx * Wx, axis=1)[:, None] * via_A1(_outer(g, z) @ s3)
    G /= colloc.n_interior
    # t = 0, sigma': u through W_q . z, where z = (x, 0) has no time entry.
    fe0, (_, s1_0, _, _) = fields(weights, spec, colloc.initial_spacetime, derivatives=False)
    g0 = cfg.lambda1 * huber_grad(cfg.delta, fe0.u - colloc.targets)
    G[:, :d] += via_A1(_outer(g0.T, colloc.initial.T) @ s1_0) / colloc.n_initial
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
