"""Brute-force and Monte-Carlo verifiers for the probabilistic machinery.

Each check estimates both sides of one inequality -- symmetrization,
absolute-value removal, single-factor contraction, product contraction,
or the linear-class Rademacher bound -- with suprema taken over explicit
finite grids.  The inequalities hold a fortiori on subsets, so PASS on a
grid is sound evidence while FAIL would falsify the inequality outright.

Sign vectors are enumerated exhaustively for small n (deterministic,
seed-independent) and sampled otherwise.  `CheckReport.passed` is the one
PASS rule: lhs <= rhs plus three standard errors when the signs were
sampled, plus a 1e-9 epsilon when they were enumerated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .activations import ActivationSpec
from .experiment import taylor_green_initial
from .network import field_eval, init_weights
from .residual import CollocationSet, LossConfig, empirical_risk, loss_init, loss_res

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
    exact: bool
    n_draws: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + (_EXACT_EPS if self.exact else 3.0 * self.std_error)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {**asdict(self), "margin": self.margin,
                "verdict": "PASS" if self.passed else "FAIL"}


def _sign_vectors(n: int, n_draws: int, seed: int):
    """(m, n) matrix of sign vectors and a flag: exhaustive (all 2^n rows, in
    index order) when n <= _ENUM_LIMIT, else n_draws seeded samples."""
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


def _coupled_check(name: str, lhs_vals: np.ndarray, rhs_vals: np.ndarray, exact: bool,
                   seed: int) -> CheckReport:
    """Compare E lhs with E rhs through their coupled difference: lhs is the
    mean of `lhs_vals`, rhs is lhs plus the mean of rhs_vals - lhs_vals, and
    the standard error is the difference's, which `CheckReport.passed` reads."""
    lhs, _ = _mc_stats(lhs_vals, exact)
    diff, se = _mc_stats(rhs_vals - lhs_vals, exact)
    return CheckReport(name=name, lhs=lhs, rhs=lhs + diff, std_error=se, exact=exact,
                       n_draws=len(lhs_vals), seed=seed)


def _grid_draws(grid: ConstraintGrid, points, n_draws: int, seed: int):
    """What the grid checks share: the number n of points, the pre-activations
    <w, z_i> of every grid vector at every point, (M, n), and the sign
    vectors with their exactness flag, as `_sign_vectors` draws them."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    return (len(Z), grid.vectors @ Z.T, *_sign_vectors(len(Z), n_draws, seed))


def rademacher_linear(points, B: float, n_draws: int = 4000, seed: int = 0) -> RademacherEstimate:
    """(1/n) E_eps[ sup_{||w|| <= B} sum_i eps_i <w, z_i> ], using the
    closed-form inner supremum B * ||sum_i eps_i z_i||_2."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(Z)
    if n < 1:
        raise ValueError("need at least one point")
    E, exact = _sign_vectors(n, n_draws, seed)
    sups = B * np.linalg.norm(E @ Z, axis=1) / n
    mean, se = _mc_stats(sups, exact)
    return RademacherEstimate(mean=mean, std_error=se, n_draws=len(E), seed=seed, exact=exact)


def check_rademacher_linear(points, B: float, n_draws: int = 4000,
                            seed: int = 0) -> CheckReport:
    """The linear-class bound: the `rademacher_linear` average is at most
    B sqrt(sum_i ||z_i||^2) / n."""
    Z = np.atleast_2d(np.asarray(points, dtype=float))
    est = rademacher_linear(Z, B=B, n_draws=n_draws, seed=seed)
    rhs = float(B * np.sqrt(np.sum(Z * Z)) / len(Z))
    return CheckReport(name="rademacher_linear_bound", lhs=est.mean, rhs=rhs,
                       std_error=est.std_error, exact=est.exact, n_draws=est.n_draws, seed=seed)


def check_abs_removal(grid: ConstraintGrid, points, phi, c: float,
                      n_draws: int = 4000, seed: int = 0) -> CheckReport:
    """E sup_w |<eps, f_w(Z)>|  <=  2 E sup_w <eps, f_w(Z) - c> + |c| sqrt(n),
    with f_w(z) = phi(<w, z>) and the supremum over the grid."""
    n, pre, E, exact = _grid_draws(grid, points, n_draws, seed)
    F = phi(pre)                         # (M, n)
    lhs_vals = np.max(np.abs(F @ E.T), axis=0)
    rhs_vals = 2.0 * np.max((F - c) @ E.T, axis=0) + abs(c) * math.sqrt(n)
    return _coupled_check("abs_removal", lhs_vals, rhs_vals, exact, seed)


def check_contraction_single(grid: ConstraintGrid, points, phi, L_phi: float,
                             c: float, rows, heads,
                             n_draws: int = 4000, seed: int = 0) -> CheckReport:
    """Single-factor contraction: the Rademacher average of
    <f_j, phi(W_j z)> over a finite (W, f) family is bounded by
    (2 B L_phi / n) E sup_{w in grid} sum eps <w, z> + B |c| / sqrt(n).

    W_j is given by `rows[j]`, an index array into grid.vectors, so every
    row of every W_j is a grid vector, as the comparison needs to be sound;
    B is the largest head l1 norm.
    """
    n, pre, E, exact = _grid_draws(grid, points, n_draws, seed)
    B = max(float(np.sum(np.abs(f))) for f in heads)
    V = np.array([np.asarray(f) @ phi(pre[r]) for r, f in zip(rows, heads)])   # (J, n)
    lhs_vals = np.max(V @ E.T, axis=0) / n
    lin_vals = np.max(pre @ E.T, axis=0)
    rhs_vals = 2.0 * B * L_phi * lin_vals / n + B * abs(c) / math.sqrt(n)
    return _coupled_check("contraction_single", lhs_vals, rhs_vals, exact, seed)


def check_contraction_product(grid: ConstraintGrid, points, phi1, phi2,
                              B: float, B_phi1: float, B_phi2: float,
                              L_phi1: float, L_phi2: float, k: float,
                              n_draws: int = 2000, seed: int = 0) -> CheckReport:
    """Product contraction, checked at the pair-supremum stage:
    (B/n) E sup_{w1,w2 in grid} |sum eps phi1(<w1,z>) phi2(<w2,z>)|
    <= (4B(B_phi1 L_phi2 + B_phi2 L_phi1)/n) E sup_w sum eps <w,z>
       + B (2 B_phi2 |phi1(0)| + |k|) / sqrt(n)."""
    n, pre, E, exact = _grid_draws(grid, points, n_draws, seed)
    P1, P2 = phi1(pre), phi2(pre)        # (M, n)
    lhs_vals = B * np.array([np.max(np.abs((P1 * eps) @ P2.T)) for eps in E]) / n
    lin_vals = np.max(pre @ E.T, axis=0)
    rhs_vals = (4.0 * B * (B_phi1 * L_phi2 + B_phi2 * L_phi1) * lin_vals / n
                + B * (2.0 * B_phi2 * abs(phi1(np.zeros(1))[0]) + abs(k)) / math.sqrt(n))
    return _coupled_check("contraction_product", lhs_vals, rhs_vals, exact, seed)


def check_symmetrization(hypotheses, loss_cfg: LossConfig, sampler, f0,
                         n_points: int = 10, n_trials: int = 400,
                         seed: int = 0, population_points: int = 4000) -> CheckReport:
    """Monte-Carlo check of the symmetrization step:
    E_S[ sup_h (Rhat(h, S) - R(h)) ] <= 2 R_res + 2 R_0.

    Each hypothesis is a field evaluator, as in `empirical_risk`; the trials
    are drawn first and scored as one point set, so it is called once on
    all their interior and once on all their initial points.
    `sampler(rng, n)` must return (interior (n, d+1), initial (n, d))
    samples; population risks use one large fixed quadrature sample.  Both
    point sets take their targets from `f0`, as a `CollocationSet` does.
    """
    if not hypotheses:
        raise ValueError("need at least one hypothesis")
    rng_pop = np.random.default_rng((seed, 0xF00D))
    pop_set = CollocationSet(*sampler(rng_pop, population_points), f0)
    pop_risk = np.array([empirical_risk(h, loss_cfg, pop_set).total for h in hypotheses])

    # Draw every trial first, each from its own generator in the order
    # sampler, eps_r, eps_0; then score all trials as one point set.  The
    # per-trial draws are held by generators only, so they go once stacked.
    rngs = (np.random.default_rng((seed, t)) for t in range(n_trials))
    draws = ((*sampler(rng, n_points), rng.choice([-1.0, 1.0], n_points),
              rng.choice([-1.0, 1.0], n_points)) for rng in rngs)
    interior, initial, eps_r, eps_0 = (np.stack(a) for a in zip(*draws))   # (T, n, ...)
    S = CollocationSet(interior.reshape(-1, interior.shape[-1]),
                       initial.reshape(-1, initial.shape[-1]), f0)
    # The per-point losses run per row because perfbench/test_perfbench.py
    # pins their counts; np.fromiter keeps no list of their Python floats.
    m = n_trials * n_points
    shape = (len(hypotheses), n_trials, n_points)
    res_losses = np.array([
        np.fromiter((loss_res(fe, loss_cfg) for fe in h(S.interior).rows()), float, m)
        for h in hypotheses]).reshape(shape)
    init_losses = np.array([
        np.fromiter((loss_init(u, f0_val, loss_cfg)
                     for u, f0_val in zip(h(S.initial_spacetime).u, S.targets)), float, m)
        for h in hypotheses]).reshape(shape)
    emp = res_losses.mean(axis=2) + init_losses.mean(axis=2)          # (H, T)
    gap_vals = np.max(emp - pop_risk[:, None], axis=0)
    rad_vals = (2.0 * np.max(np.einsum("htn,tn->ht", res_losses, eps_r), axis=0) / n_points
                + 2.0 * np.max(np.einsum("htn,tn->ht", init_losses, eps_0), axis=0) / n_points)
    return _coupled_check("symmetrization", gap_vals, rad_vals, exact=False, seed=seed)


def suite(spec: ActivationSpec, loss_cfg: LossConfig, seed: int, *, n_instances: int,
          n_draws: int, n_points: int, grid_size: int, sym_classes: int, sym_trials: int,
          sym_points: int) -> list[CheckReport]:
    """The inequality suite of `pinnbound verify`.  Instance i holds
    n_points points uniform on the unit cube of dimension 2-4 and a grid of
    grid_size vectors with B = 2; it checks abs-value removal, single-factor
    contraction over six 3-row tanh' layers of grid vectors, product
    contraction and the linear bound.  Symmetrization class i holds three
    width-4 networks of `spec` on the unit box against the Taylor-Green
    initial condition at viscosity loss_cfg.nu."""
    reports = []
    rng = np.random.default_rng(seed)
    for i in range(n_instances):
        dim = int(rng.integers(2, 5))
        Z = np.random.default_rng((seed, 1, i)).uniform(0, 1, (n_points, dim))
        grid = ConstraintGrid.random(dim, grid_size, B=2.0, seed=seed + 100 + i)
        reports.append(check_abs_removal(grid, Z, np.tanh, c=0.0,
                                         n_draws=n_draws, seed=seed + i))
        rows = [np.random.default_rng((seed, 2, i, j)).integers(0, len(grid.vectors), 3)
                for j in range(6)]
        heads = [np.random.default_rng((seed, 3, i, j)).uniform(-0.5, 0.5, 3)
                 for j in range(6)]
        reports.append(check_contraction_single(
            grid, Z, lambda x: 1.0 - np.tanh(x) ** 2, L_phi=0.77, c=1.0, rows=rows,
            heads=heads, n_draws=n_draws, seed=seed + i))
        reports.append(check_contraction_product(
            grid, Z, np.tanh, np.tanh, B=1.0, B_phi1=1.0, B_phi2=1.0,
            L_phi1=1.0, L_phi2=1.0, k=0.0, n_draws=n_draws, seed=seed + i))
        reports.append(check_rademacher_linear(Z, B=grid.B, n_draws=n_draws, seed=seed + i))

    f0 = taylor_green_initial(loss_cfg.nu)

    def sampler(r, n):
        return r.uniform(0, 1, (n, 3)), r.uniform(0, 1, (n, 2))

    for i in range(sym_classes):
        nets = [init_weights(2, 4, seed=seed + 50 + i * 10 + j) for j in range(3)]
        hyps = [lambda z, w=w: field_eval(w, spec, z) for w in nets]
        reports.append(check_symmetrization(hyps, loss_cfg, sampler, f0, n_points=sym_points,
                                            n_trials=sym_trials, seed=seed + i))
    return reports
