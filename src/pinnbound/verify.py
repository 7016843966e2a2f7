"""Brute-force and Monte-Carlo verifiers for the probabilistic machinery.

Each check estimates both sides of one inequality -- symmetrization,
absolute-value removal, single-factor contraction, product contraction,
or the linear-class Rademacher bound -- with suprema taken over explicit
finite grids.  The inequalities hold a fortiori on subsets, so PASS on a
grid is sound evidence while FAIL would falsify the inequality outright.

Sign vectors are enumerated exhaustively for small n (deterministic,
seed-independent) and sampled otherwise; Monte-Carlo comparisons get
three-sigma slack, exact comparisons a 1e-9 epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .residual import (CollocationSet, LossConfig, empirical_risk, initial_targets,
                       loss_init, loss_res)

_ENUM_LIMIT = 20
_EXACT_EPS = 1e-9


@dataclass
class ConstraintGrid:
    """Finite discretization of the admissible row-vector set: a list of
    vectors of common dimension, all with 2-norm <= B, containing zero."""

    vectors: np.ndarray
    B: float

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if len(self.vectors) == 0:
            raise ValueError("grid must be nonempty")
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(norms > self.B + 1e-9):
            raise ValueError("grid vector exceeds the 2-norm cap B")
        if not np.any(norms < 1e-12):
            raise ValueError("grid must contain the zero vector")

    @classmethod
    def random(cls, dim: int, n_vectors: int, B: float, seed: int) -> "ConstraintGrid":
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n_vectors, dim))
        raw *= (B * rng.uniform(0, 1, n_vectors) ** (1 / dim)
                / np.linalg.norm(raw, axis=1))[:, None]
        return cls(np.vstack([np.zeros(dim), raw]), B)


@dataclass
class RademacherEstimate:
    mean: float
    std_error: float
    n_draws: int
    seed: int
    exact: bool = False


@dataclass
class CheckReport:
    name: str
    lhs: float
    rhs: float
    std_error: float
    passed: bool
    exact: bool
    n_draws: int
    seed: int

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "std_error": self.std_error,
                "verdict": "PASS" if self.passed else "FAIL",
                "exact": self.exact, "n_draws": self.n_draws, "seed": self.seed}


def _sign_vectors(n: int, n_draws: int, seed: int):
    """(m, n) matrix of sign vectors and a flag: exhaustive (all 2^n rows,
    in index order) when n <= 20, otherwise n_draws seeded samples."""
    if n <= _ENUM_LIMIT:
        idx = np.arange(2 ** n, dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        return 2.0 * bits.astype(float) - 1.0, True
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=(n_draws, n)), False


def _mc_stats(values: np.ndarray, exact: bool) -> tuple[float, float]:
    if len(values) < 2:
        raise ValueError(f"a Monte-Carlo estimate needs at least 2 values, got {len(values)}")
    mean = float(np.mean(values))
    if exact:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _slack(exact: bool, std_error: float) -> float:
    return _EXACT_EPS if exact else 3.0 * std_error


def rademacher_linear(points, B: float, n_draws: int = 4000, seed: int = 0,
                      force_sampling: bool = False) -> RademacherEstimate:
    """(1/n) E_eps[ sup_{||w|| <= B} sum_i eps_i <w, z_i> ], using the
    closed-form inner supremum B * ||sum_i eps_i z_i||_2."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(Z)
    if n < 1:
        raise ValueError("need at least one point")
    if force_sampling:
        rng = np.random.default_rng(seed)
        E, exact = rng.choice([-1.0, 1.0], size=(n_draws, n)), False
    else:
        E, exact = _sign_vectors(n, n_draws, seed)
    sups = B * np.linalg.norm(E @ Z, axis=1) / n
    mean, se = _mc_stats(sups, exact)
    return RademacherEstimate(mean=mean, std_error=se, n_draws=len(E), seed=seed, exact=exact)


def check_abs_removal(grid: ConstraintGrid, points, phi, c: float,
                      n_draws: int = 4000, seed: int = 0) -> CheckReport:
    """E sup_w |<eps, f_w(Z)>|  <=  2 E sup_w <eps, f_w(Z) - c> + |c| sqrt(n),
    with f_w(z) = phi(<w, z>) and the supremum over the grid."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(Z)
    F = phi(grid.vectors @ Z.T)          # (M, n)
    G = F - c
    E, exact = _sign_vectors(n, n_draws, seed)
    lhs_vals = np.max(np.abs(F @ E.T), axis=0)
    rhs_vals = 2.0 * np.max(G @ E.T, axis=0) + abs(c) * math.sqrt(n)
    lhs, _ = _mc_stats(lhs_vals, exact)
    rhs, se = _mc_stats(rhs_vals - lhs_vals, exact)
    rhs = lhs + rhs  # mean of rhs_vals, phrased via the coupled difference
    return CheckReport(name="abs_removal", lhs=lhs, rhs=rhs, std_error=se,
                       passed=lhs <= rhs + _slack(exact, se),
                       exact=exact, n_draws=len(E), seed=seed)


def check_contraction_single(grid: ConstraintGrid, points, phi, L_phi: float,
                             c: float, weight_mats, heads,
                             n_draws: int = 4000, seed: int = 0) -> CheckReport:
    """Single-factor contraction: the Rademacher average of
    <f_j, phi(W_j z)> over a finite (W, f) family is bounded by
    (2 B L_phi / n) E sup_{w in grid} sum eps <w, z> + B |c| / sqrt(n).

    Every row of every W_j must appear in the grid for the comparison to
    be sound; B is the largest head l1 norm.
    """
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(Z)
    for Wm in weight_mats:
        for row in np.atleast_2d(Wm):
            if np.min(np.linalg.norm(grid.vectors - row, axis=1)) > 1e-9:
                raise ValueError("weight-matrix row not present in the grid")
    B = max(float(np.sum(np.abs(f))) for f in heads)
    V = np.array([np.asarray(f) @ phi(np.atleast_2d(Wm) @ Z.T)
                  for Wm, f in zip(weight_mats, heads)])   # (J, n)
    P = grid.vectors @ Z.T                                  # (M, n)
    E, exact = _sign_vectors(n, n_draws, seed)
    lhs_vals = np.max(V @ E.T, axis=0) / n
    lin_vals = np.max(P @ E.T, axis=0)
    rhs_vals = 2.0 * B * L_phi * lin_vals / n + B * abs(c) / math.sqrt(n)
    lhs, _ = _mc_stats(lhs_vals, exact)
    diff, se = _mc_stats(rhs_vals - lhs_vals, exact)
    rhs = lhs + diff
    return CheckReport(name="contraction_single", lhs=lhs, rhs=rhs, std_error=se,
                       passed=lhs <= rhs + _slack(exact, se),
                       exact=exact, n_draws=len(E), seed=seed)


def check_contraction_product(grid: ConstraintGrid, points, phi1, phi2,
                              B: float, B_phi1: float, B_phi2: float,
                              L_phi1: float, L_phi2: float, k: float,
                              n_draws: int = 2000, seed: int = 0) -> CheckReport:
    """Product contraction, checked at the pair-supremum stage:
    (B/n) E sup_{w1,w2 in grid} |sum eps phi1(<w1,z>) phi2(<w2,z>)|
    <= (4B(B_phi1 L_phi2 + B_phi2 L_phi1)/n) E sup_w sum eps <w,z>
       + B (2 B_phi2 |phi1(0)| + |k|) / sqrt(n)."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(Z)
    pre = grid.vectors @ Z.T
    P1, P2 = phi1(pre), phi2(pre)        # (M, n)
    E, exact = _sign_vectors(n, n_draws, seed)
    lhs_vals = B * np.array([np.max(np.abs((P1 * eps) @ P2.T)) for eps in E]) / n
    lin_vals = np.max(pre @ E.T, axis=0)
    rhs_vals = (4.0 * B * (B_phi1 * L_phi2 + B_phi2 * L_phi1) * lin_vals / n
                + B * (2.0 * B_phi2 * abs(phi1(np.zeros(1))[0]) + abs(k)) / math.sqrt(n))
    lhs, _ = _mc_stats(lhs_vals, exact)
    diff, se = _mc_stats(rhs_vals - lhs_vals, exact)
    rhs = lhs + diff
    return CheckReport(name="contraction_product", lhs=lhs, rhs=rhs, std_error=se,
                       passed=lhs <= rhs + _slack(exact, se),
                       exact=exact, n_draws=len(E), seed=seed)


def check_symmetrization(hypotheses, loss_cfg: LossConfig, sampler, f0,
                         n_points: int = 10, n_trials: int = 400,
                         seed: int = 0, population_points: int = 4000) -> CheckReport:
    """Monte-Carlo check of the symmetrization step:
    E_S[ sup_h (Rhat(h, S) - R(h)) ] <= 2 R_res + 2 R_0.

    Each hypothesis is a field evaluator, as in `empirical_risk`; the trials
    are drawn first and scored as one point set, so it is called once on
    all their interior and once on all their initial points.
    `sampler(rng, n)` must return (interior (n, d+1), initial (n, d))
    samples; population risks use one large fixed quadrature sample.  `f0`
    maps (..., d) spatial points to (..., d) targets.
    """
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    rng_pop = np.random.default_rng((seed, 0xF00D))
    pop_int, pop_init = sampler(rng_pop, population_points)
    pop_set = CollocationSet(interior=pop_int, initial=pop_init)
    pop_risk = np.array([empirical_risk(h, loss_cfg, pop_set, f0).total
                         for h in hypotheses])

    # Draw every trial first, each from its own generator in the order
    # sampler, eps_r, eps_0; then score all trials as one point set.  The
    # per-trial draws are held by generators only, so they go once stacked.
    rngs = (np.random.default_rng((seed, t)) for t in range(n_trials))
    draws = ((*sampler(rng, n_points), rng.choice([-1.0, 1.0], n_points),
              rng.choice([-1.0, 1.0], n_points)) for rng in rngs)
    interior, initial, eps_r, eps_0 = (np.stack(a) for a in zip(*draws))   # (T, n, ...)
    S = CollocationSet(interior.reshape(-1, interior.shape[-1]),
                       initial.reshape(-1, initial.shape[-1]))
    F0 = initial_targets(f0, S.initial)
    # The per-point losses run per row because perfbench/test_perfbench.py
    # pins their counts; np.fromiter keeps no list of their Python floats.
    m = n_trials * n_points
    shape = (len(hypotheses), n_trials, n_points)
    res_losses = np.array([
        np.fromiter((loss_res(fe, loss_cfg) for fe in h(S.interior).rows()), float, m)
        for h in hypotheses]).reshape(shape)
    init_losses = np.array([
        np.fromiter((loss_init(u, f0_val, loss_cfg)
                     for u, f0_val in zip(h(S.initial_spacetime).u, F0)), float, m)
        for h in hypotheses]).reshape(shape)
    emp = res_losses.mean(axis=2) + init_losses.mean(axis=2)          # (H, T)
    gap_vals = np.max(emp - pop_risk[:, None], axis=0)
    rad_vals = (2.0 * np.max(np.einsum("htn,tn->ht", res_losses, eps_r), axis=0) / n_points
                + 2.0 * np.max(np.einsum("htn,tn->ht", init_losses, eps_0), axis=0) / n_points)
    lhs, _ = _mc_stats(gap_vals, exact=False)
    diff, se = _mc_stats(rad_vals - gap_vals, exact=False)
    rhs = lhs + diff
    return CheckReport(name="symmetrization", lhs=lhs, rhs=rhs, std_error=se,
                       passed=lhs <= rhs + 3.0 * se, exact=False,
                       n_draws=n_trials, seed=seed)
