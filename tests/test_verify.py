import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnbound import (ActivationSpec, CheckReport, ConstraintGrid, LossConfig,
                       check_abs_removal, check_contraction_product,
                       check_contraction_single, check_symmetrization,
                       field_eval, init_weights, rademacher_linear)
from pinnbound.experiment import TaylorGreenParams, taylor_green_initial
from pinnbound.residual import (CollocationSet, empirical_risk, initial_targets,
                                loss_init, loss_res)
from pinnbound.verify import _mc_stats


def test_sign_enumeration_is_exact_and_seedless():
    Z = np.random.default_rng(0).uniform(0, 1, (6, 3))
    a = rademacher_linear(Z, B=1.5, seed=1)
    b = rademacher_linear(Z, B=1.5, seed=99)
    assert a.exact and b.exact
    assert a.mean == b.mean
    assert a.std_error == 0.0
    assert a.n_draws == 64


def test_rademacher_single_point_closed_form():
    # one point: E sup ||w||<=B eps <w, z> = B ||z|| (sup picks the sign)
    z = np.array([[3.0, 4.0]])
    est = rademacher_linear(z, B=2.0)
    assert est.mean == pytest.approx(2.0 * 5.0, abs=1e-12)


def test_rademacher_zero_radius():
    Z = np.random.default_rng(1).uniform(-1, 1, (5, 2))
    assert rademacher_linear(Z, B=0.0).mean == 0.0


def test_rademacher_below_dimension_free_bound(rng):
    # E <= B sqrt(sum ||z_i||^2) / n for any point set
    for seed in range(10):
        g = np.random.default_rng(seed)
        Z = g.uniform(-1, 1, (int(g.integers(2, 12)), int(g.integers(1, 5))))
        est = rademacher_linear(Z, B=3.0)
        cap = 3.0 * math.sqrt(float(np.sum(Z * Z))) / len(Z)
        assert est.mean <= cap + 1e-12


def test_rademacher_sampling_tracks_enumeration():
    Z = np.random.default_rng(2).uniform(0, 1, (10, 3))
    exact = rademacher_linear(Z, B=1.0)
    approx = rademacher_linear(Z, B=1.0, force_sampling=True, n_draws=20000, seed=5)
    assert not approx.exact and approx.std_error > 0
    assert abs(approx.mean - exact.mean) < 4.0 * approx.std_error


def test_rademacher_large_n_switches_to_sampling():
    Z = np.random.default_rng(3).uniform(0, 1, (25, 2))
    est = rademacher_linear(Z, B=1.0, n_draws=500, seed=0)
    assert not est.exact
    assert est.n_draws == 500


def test_grid_validation():
    with pytest.raises(ValueError):
        ConstraintGrid(vectors=np.ones((2, 3)), B=10.0)   # no zero vector
    with pytest.raises(ValueError):
        ConstraintGrid(vectors=np.vstack([np.zeros(3), 5 * np.ones(3)]), B=1.0)
    grid = ConstraintGrid.random(dim=3, n_vectors=30, B=2.0, seed=0)
    assert np.max(np.linalg.norm(grid.vectors, axis=1)) <= 2.0 + 1e-9
    assert np.min(np.linalg.norm(grid.vectors, axis=1)) == 0.0


def test_abs_removal_randomized(rng):
    for i in range(6):
        g = np.random.default_rng(i)
        dim = int(g.integers(2, 5))
        Z = g.uniform(0, 1, (8, dim))
        grid = ConstraintGrid.random(dim, 40, B=2.0, seed=i)
        rep = check_abs_removal(grid, Z, np.tanh, c=0.0)
        assert rep.exact and rep.passed
        rep_c = check_abs_removal(grid, Z, lambda x: 1 / (1 + np.exp(-x)), c=0.5)
        assert rep_c.passed


def test_abs_removal_identity_is_tight_without_offset():
    # phi = identity, c = 0: the grid is sign-symmetric enough that the
    # factor-2 inequality holds with visible slack
    g = np.random.default_rng(0)
    Z = g.uniform(-1, 1, (7, 2))
    grid = ConstraintGrid.random(2, 60, B=1.0, seed=1)
    rep = check_abs_removal(grid, Z, lambda x: x, c=0.0)
    assert rep.passed
    assert rep.lhs <= rep.rhs + 1e-9


def test_contraction_single_randomized():
    sigma1 = lambda x: 1.0 - np.tanh(x) ** 2
    for i in range(6):
        g = np.random.default_rng(100 + i)
        dim = int(g.integers(2, 5))
        Z = g.uniform(0, 1, (8, dim))
        grid = ConstraintGrid.random(dim, 40, B=2.0, seed=200 + i)
        mats = [grid.vectors[g.integers(0, len(grid.vectors), 3)] for _ in range(5)]
        heads = [g.uniform(-1, 1, 3) for _ in range(5)]
        rep = check_contraction_single(grid, Z, sigma1, L_phi=0.77, c=1.0,
                                       weight_mats=mats, heads=heads)
        assert rep.exact and rep.passed


def test_contraction_single_rejects_off_grid_rows():
    grid = ConstraintGrid.random(2, 10, B=2.0, seed=0)
    Z = np.random.default_rng(0).uniform(0, 1, (4, 2))
    with pytest.raises(ValueError):
        check_contraction_single(grid, Z, np.tanh, L_phi=1.0, c=0.0,
                                 weight_mats=[np.array([[9.0, 9.0]])],
                                 heads=[np.ones(1)])


def test_contraction_single_zero_heads():
    grid = ConstraintGrid.random(2, 10, B=2.0, seed=0)
    Z = np.random.default_rng(0).uniform(0, 1, (5, 2))
    mats = [grid.vectors[:2]]
    rep = check_contraction_single(grid, Z, np.tanh, L_phi=1.0, c=0.0,
                                   weight_mats=mats, heads=[np.zeros(2)])
    assert rep.lhs == 0.0 and rep.passed


def test_contraction_product_randomized():
    for i in range(6):
        g = np.random.default_rng(300 + i)
        dim = int(g.integers(2, 5))
        Z = g.uniform(0, 1, (8, dim))
        grid = ConstraintGrid.random(dim, 40, B=2.0, seed=400 + i)
        rep = check_contraction_product(grid, Z, np.tanh, np.tanh, B=1.5,
                                        B_phi1=1.0, B_phi2=1.0,
                                        L_phi1=1.0, L_phi2=1.0, k=0.0)
        assert rep.exact and rep.passed


def test_contraction_product_zero_grid():
    grid = ConstraintGrid(vectors=np.zeros((1, 2)), B=0.0)
    Z = np.random.default_rng(0).uniform(0, 1, (4, 2))
    rep = check_contraction_product(grid, Z, np.tanh, np.tanh, B=1.0,
                                    B_phi1=1.0, B_phi2=1.0,
                                    L_phi1=1.0, L_phi2=1.0, k=0.0)
    # phi(0) = 0 for tanh, so both sides vanish up to the k offset
    assert rep.lhs == 0.0 and rep.passed


def make_net_hypotheses(n, spec, seed):
    nets = [init_weights(2, 4, seed=seed + j) for j in range(n)]
    return [lambda z, w=w: field_eval(w, spec, z) for w in nets]


def unit_sampler(r, n):
    return r.uniform(0, 1, (n, 3)), r.uniform(0, 1, (n, 2))


def test_symmetrization_networks():
    spec = ActivationSpec.from_name("tanh", 3)
    hyps = make_net_hypotheses(3, spec, seed=10)
    cfg = LossConfig()
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.nu))
    rep = check_symmetrization(hyps, cfg, unit_sampler, f0,
                               n_points=8, n_trials=150, seed=0,
                               population_points=2000)
    assert rep.passed
    assert rep.std_error > 0


def test_symmetrization_pinned_values():
    # lhs, rhs and std_error as computed when each hypothesis was called
    # once per point; scoring a point set in one call moves them by ulps.
    spec = ActivationSpec.from_name("tanh", 3)
    hyps = make_net_hypotheses(3, spec, seed=10)
    cfg = LossConfig()
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.nu))
    rep = check_symmetrization(hyps, cfg, unit_sampler, f0, n_points=8, n_trials=20, seed=0)
    np.testing.assert_allclose([rep.lhs, rep.rhs, rep.std_error],
                               [0.08753436639750764, 0.26635120187405237, 0.150920164926022],
                               rtol=1e-12, atol=0.0)
    assert rep.passed and rep.n_draws == 20


def test_symmetrization_single_hypothesis_gap_near_zero():
    spec = ActivationSpec.from_name("tanh", 1)
    hyps = make_net_hypotheses(1, spec, seed=4)
    cfg = LossConfig()
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.nu))
    rep = check_symmetrization(hyps, cfg, unit_sampler, f0,
                               n_points=8, n_trials=150, seed=1,
                               population_points=4000)
    # with one hypothesis the expected gap is ~0 while the symmetrized
    # side stays positive
    assert rep.passed
    assert abs(rep.lhs) < 0.2
    assert rep.rhs > 0


def reference_symmetrization(hypotheses, loss_cfg, sampler, f0, n_points, n_trials,
                             seed, population_points):
    """The symmetrization check written trial by trial, the oracle for the
    batched form: one point set, one target table and two calls of each
    hypothesis per trial.  Returns (lhs, rhs, std_error)."""
    rng_pop = np.random.default_rng((seed, 0xF00D))
    pop_set = CollocationSet(*sampler(rng_pop, population_points))
    pop_risk = np.array([empirical_risk(h, loss_cfg, pop_set, f0).total
                         for h in hypotheses])
    gap_vals = np.empty(n_trials)
    rad_vals = np.empty(n_trials)
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        trial = CollocationSet(*sampler(rng, n_points))
        F0 = initial_targets(f0, trial.initial)
        res_losses = np.array([[loss_res(fe, loss_cfg) for fe in h(trial.interior).rows()]
                               for h in hypotheses])
        init_losses = np.array([[loss_init(u, f0_val, loss_cfg)
                                 for u, f0_val in zip(h(trial.initial_spacetime).u, F0)]
                                for h in hypotheses])
        emp = res_losses.mean(axis=1) + init_losses.mean(axis=1)
        gap_vals[t] = np.max(emp - pop_risk)
        eps_r = rng.choice([-1.0, 1.0], n_points)
        eps_0 = rng.choice([-1.0, 1.0], n_points)
        rad_vals[t] = (2.0 * np.max(res_losses @ eps_r) / n_points
                       + 2.0 * np.max(init_losses @ eps_0) / n_points)
    lhs = float(np.mean(gap_vals))
    diff = rad_vals - gap_vals
    return (lhs, lhs + float(np.mean(diff)),
            float(np.std(diff, ddof=1) / math.sqrt(n_trials)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n_hyp=st.integers(1, 3), n_points=st.integers(1, 12), n_trials=st.integers(2, 40),
       seed=st.integers(0, 2**16))
def test_symmetrization_matches_per_trial_reference(n_hyp, n_points, n_trials, seed):
    spec = ActivationSpec.from_name("tanh", 3)
    hyps = make_net_hypotheses(n_hyp, spec, seed=seed)
    cfg = LossConfig()
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.nu))
    args = (hyps, cfg, unit_sampler, f0)
    kw = dict(n_points=n_points, n_trials=n_trials, seed=seed, population_points=50)
    rep = check_symmetrization(*args, **kw)
    np.testing.assert_allclose([rep.lhs, rep.rhs, rep.std_error],
                               reference_symmetrization(*args, **kw), rtol=1e-12, atol=0.0)
    assert rep.n_draws == n_trials


def test_symmetrization_peak_memory():
    # The CLI defaults: three width-4 tanh^3 nets, 10 points, 300 trials.
    # Holding all 3000 row views of a field at once would take it past 3 MiB.
    spec = ActivationSpec.from_name("tanh", 3)
    hyps = make_net_hypotheses(3, spec, seed=50)
    cfg = LossConfig()
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.nu))
    check_symmetrization(hyps, cfg, unit_sampler, f0, n_points=2, n_trials=2,
                         population_points=10)  # warm caches outside the trace
    tracemalloc.start()
    try:
        rep = check_symmetrization(hyps, cfg, unit_sampler, f0, n_points=10, n_trials=300,
                                   seed=0, population_points=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 2.5 * 2**20


def test_mc_stats_needs_two_values():
    with pytest.raises(ValueError):
        _mc_stats(np.array([1.0]), exact=False)
    with pytest.raises(ValueError):
        rademacher_linear(np.ones((25, 2)), B=1.0, n_draws=1)
    assert _mc_stats(np.array([1.0, 3.0]), exact=False) == (2.0, 1.0)


def test_symmetrization_requires_hypotheses():
    with pytest.raises(ValueError):
        check_symmetrization([], LossConfig(), unit_sampler, lambda x: np.zeros(2))


def test_report_serialization():
    rep = CheckReport(name="demo", lhs=1.0, rhs=2.0, std_error=0.1,
                      passed=True, exact=False, n_draws=10, seed=0)
    doc = rep.to_dict()
    assert doc["verdict"] == "PASS"
    assert doc["margin"] == 1.0
