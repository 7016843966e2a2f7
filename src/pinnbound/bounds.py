"""Weight functionals, the generalization bound, and the sample-size planner.

The bound has two terms: an interior term 2*delta*(B_w*C_z*C1 + C2)/sqrt(N_r)
and an initial-condition term 4*lambda1*delta*B_a*(B_w*C_z0*L_sigma + |c0|)
/ sqrt(N_0), where C1 and C2 collect the weight functionals f1..f5 against
the activation constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .activations import SigmaConstants
from .network import PinnWeights
from .residual import LossConfig


@dataclass(frozen=True)
class WeightStats:
    """l1-type norms of the five weight functionals, plus the row-norm cap
    B_w of W and the l1 norm B_a of the summed velocity head."""

    B_f1: float
    B_f2: float
    B_f3: float
    B_f4: float
    B_f5: float
    B_w: float
    B_a: float


@dataclass
class BoundReport:
    C1: float
    C2: float
    C_z: float
    C_z0: float
    term_interior: float
    term_initial: float
    N_r: int
    N_0: int
    weight_stats: WeightStats
    sigma_constants: SigmaConstants
    loss: LossConfig

    @property
    def total(self) -> float:
        return self.term_interior + self.term_initial

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total}

    @classmethod
    def from_dict(cls, doc: dict) -> "BoundReport":
        """Inverse of to_dict."""
        keys = ("C1", "C2", "C_z", "C_z0", "term_interior", "term_initial", "N_r", "N_0")
        return cls(weight_stats=WeightStats(**doc["weight_stats"]),
                   sigma_constants=SigmaConstants(**doc["sigma_constants"]),
                   loss=LossConfig(**doc["loss"]), **{k: doc[k] for k in keys})


def weight_stats(weights: PinnWeights) -> WeightStats:
    """Reduce W, A1, a2 to the scalar caps the bound consumes.

    f1 = a1*w_t, f2m = a1*w_xm, f3 = a2*w_x, f4 = sum_m a1*w_xm^2,
    f5 = sum_m a1m*w_xm, with a1 the sum of the velocity-head rows and
    w_x the sum of the spatial columns of W.
    """
    W, A1, a2 = weights.W, weights.A1, weights.a2
    d = weights.d
    Wx = W[:, :d]
    w_t = W[:, d]
    a1 = A1.sum(axis=0)
    w_x = Wx.sum(axis=1)
    B_f1 = float(np.sum(np.abs(a1 * w_t)))
    B_f2 = float(sum(np.sum(np.abs(a1 * Wx[:, m])) * np.sum(np.abs(A1[m]))
                     for m in range(d)))
    B_f3 = float(np.sum(np.abs(a2 * w_x)))
    B_f4 = float(np.sum(np.abs((a1[:, None] * Wx * Wx).sum(axis=1))))
    B_f5 = float(np.sum(np.abs(np.einsum("mq,qm->q", A1, Wx))))
    B_w = float(np.max(np.linalg.norm(W, axis=1)))
    B_a = float(np.sum(np.abs(a1)))
    return WeightStats(B_f1=B_f1, B_f2=B_f2, B_f3=B_f3, B_f4=B_f4, B_f5=B_f5,
                       B_w=B_w, B_a=B_a)


def generalization_bound(stats: WeightStats, sc: SigmaConstants, loss_cfg: LossConfig,
                         N_r: int, N_0: int, C_z: float, C_z0: float,
                         proof_variant: bool = False) -> BoundReport:
    """The bound with its C1 and C2, or OverflowError if it is not finite.  The viscous part of
    C1 uses L_sigma'' as stated in the final bound; proof_variant=True evaluates the
    (L_sigma' + L_sigma) form that appears in the combination step instead."""
    if N_r < 1 or N_0 < 1:
        raise ValueError("N_r and N_0 must be >= 1")
    nu, lambda0 = loss_cfg.nu, loss_cfg.lambda0
    visc = (sc.L_sigma1 + sc.L_sigma) if proof_variant else sc.L_sigma2
    C1 = (2.0 * stats.B_f1 * sc.L_sigma1
          + 4.0 * stats.B_f2 * (sc.B_sigma * sc.L_sigma1 + sc.B_sigma1 * sc.L_sigma)
          + 2.0 * stats.B_f3 * sc.L_sigma1
          + 2.0 * nu * stats.B_f4 * visc
          + 2.0 * lambda0 * stats.B_f5 * sc.L_sigma1)
    C2 = (stats.B_f1 * abs(sc.c1)
          + stats.B_f2 * (2.0 * sc.B_sigma1 * abs(sc.c0) + abs(sc.c0 * sc.c1))
          + stats.B_f3 * abs(sc.c1)
          + nu * stats.B_f4 * abs(sc.c2)
          + lambda0 * stats.B_f5 * abs(sc.c1))
    report = BoundReport(
        C1=C1, C2=C2, C_z=C_z, C_z0=C_z0,
        term_interior=2.0 * loss_cfg.delta * (stats.B_w * C_z * C1 + C2) / math.sqrt(N_r),
        term_initial=(4.0 * loss_cfg.lambda1 * loss_cfg.delta * stats.B_a
                      * (stats.B_w * C_z0 * sc.L_sigma + abs(sc.c0)) / math.sqrt(N_0)),
        N_r=N_r, N_0=N_0, weight_stats=stats, sigma_constants=sc, loss=loss_cfg,
    )
    if not math.isfinite(report.total):
        raise OverflowError(f"the bound is not finite: total = {report.total}")
    return report


def sample_planner(eps: float, stats: WeightStats, sc: SigmaConstants,
                   loss_cfg: LossConfig, C_z: float, C_z0: float) -> tuple[int, int]:
    """Smallest point counts making each bound term <= eps/2 (so the total
    is <= eps), clamped to a minimum of one point each."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    # each term at one point is its coefficient: dividing by sqrt(1) is exact
    unit = generalization_bound(stats, sc, loss_cfg, 1, 1, C_z, C_z0)
    N_r = max(1, math.ceil((2.0 * unit.term_interior / eps) ** 2))
    N_0 = max(1, math.ceil((2.0 * unit.term_initial / eps) ** 2))
    return N_r, N_0
