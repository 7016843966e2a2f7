import math

import numpy as np
import pytest

from pinnbound import (ActivationSpec, LossConfig, PinnWeights, SigmaConstants,
                       constants, generalization_bound, init_weights,
                       sample_planner, weight_stats)

TANH_SC = constants(ActivationSpec.from_name("tanh", 1))
UNIT_STATS_KW = dict(B_f1=1.0, B_f2=1.0, B_f3=1.0, B_f4=1.0, B_f5=1.0,
                     B_w=1.0, B_a=1.0)

from pinnbound import WeightStats

UNIT_STATS = WeightStats(**UNIT_STATS_KW)
SQRT_TWO_THIRDS = math.sqrt(2.0 / 3.0)


def test_weight_stats_hand_case():
    # p = 2, d = 2, small integers so every functional is checkable by hand
    W = np.array([[1.0, 2.0, 3.0],
                  [-1.0, 0.0, 2.0]])
    A1 = np.array([[1.0, -2.0],
                   [0.5, 1.0]])
    a2 = np.array([2.0, -1.0])
    s = weight_stats(PinnWeights(W=W, A1=A1, a2=a2))
    a1 = np.array([1.5, -1.0])        # column sums of A1
    w_x = np.array([3.0, -1.0])       # row sums of the spatial block
    w_t = np.array([3.0, 2.0])
    assert s.B_f1 == np.sum(np.abs(a1 * w_t))                       # 4.5 + 2
    f2 = (np.sum(np.abs(a1 * W[:, 0])) * np.sum(np.abs(A1[0]))
          + np.sum(np.abs(a1 * W[:, 1])) * np.sum(np.abs(A1[1])))
    assert s.B_f2 == f2
    assert s.B_f3 == np.sum(np.abs(a2 * w_x))                       # 6 + 1
    f4 = abs(1.5 * (1 + 4)) + abs(-1.0 * (1 + 0))
    assert s.B_f4 == f4
    # f5_q = sum_m A1[m, q] W[q, m]
    f5 = abs(1.0 * 1.0 + 0.5 * 2.0) + abs(-2.0 * -1.0 + 1.0 * 0.0)
    assert s.B_f5 == f5
    assert s.B_w == math.sqrt(14.0)
    assert s.B_a == 2.5


def test_weight_stats_zero_net():
    s = weight_stats(init_weights(2, 4, seed=0, w_scale=0.0))
    assert (s.B_f1, s.B_f2, s.B_f3, s.B_f4, s.B_f5, s.B_w) == (0, 0, 0, 0, 0, 0)
    assert s.B_a > 0  # frozen head survives


def bound_constants(stats, sc, nu, lambda0, proof_variant=False):
    """C1 and C2 as `generalization_bound` reports them."""
    rep = generalization_bound(stats, sc, LossConfig(nu=nu, lambda0=lambda0),
                               N_r=1, N_0=1, C_z=1.0, C_z0=1.0, proof_variant=proof_variant)
    return rep.C1, rep.C2


def test_bound_constants_unit_stats():
    C1, C2 = bound_constants(UNIT_STATS, TANH_SC, nu=0.01, lambda0=1.0)
    assert abs(C1 - 14.04) < 1e-12
    assert abs(C2 - 3.0) < 1e-12


def test_bound_constants_lambda_and_nu_linear():
    C1a, C2a = bound_constants(UNIT_STATS, TANH_SC, nu=0.01, lambda0=0.0)
    C1b, C2b = bound_constants(UNIT_STATS, TANH_SC, nu=0.01, lambda0=2.0)
    assert abs((C1b - C1a) - 2.0 * 2.0) < 1e-12   # 2 lambda0 B_f5 L_sigma'
    assert abs((C2b - C2a) - 2.0) < 1e-12
    # affine in nu, with slopes 2 B_f4 L_sigma'' and B_f4 |c2|; sigmoid^2 has c2 != 0
    stats = WeightStats(**{**UNIT_STATS_KW, "B_f4": 2.5})
    for sc in (TANH_SC, constants(ActivationSpec.from_name("sigmoid", 2))):
        (C1a, C2a), (C1b, C2b), (C1c, C2c) = (bound_constants(stats, sc, nu=nu, lambda0=1.0)
                                              for nu in (0.01, 0.5, 2.0))
        for lo, mid, hi, slope in ((C1a, C1b, C1c, 2.0 * 2.5 * sc.L_sigma2),
                                   (C2a, C2b, C2c, 2.5 * abs(sc.c2))):
            assert mid - lo == pytest.approx(0.49 * slope, rel=1e-12, abs=1e-12)
            assert hi - mid == pytest.approx(1.5 * slope, rel=1e-12, abs=1e-12)
    assert sc.c2 != 0


def test_bound_constants_proof_variant():
    C1, _ = bound_constants(UNIT_STATS, TANH_SC, nu=0.5, lambda0=1.0)
    C1v, _ = bound_constants(UNIT_STATS, TANH_SC, nu=0.5, lambda0=1.0,
                               proof_variant=True)
    # viscous factor switches from L_sigma'' = 2 to L_sigma' + L_sigma = 2
    assert abs(C1 - C1v) < 1e-12
    sc3 = constants(ActivationSpec.from_name("tanh", 3))
    C1, _ = bound_constants(UNIT_STATS, sc3, nu=0.5, lambda0=1.0)
    C1v, _ = bound_constants(UNIT_STATS, sc3, nu=0.5, lambda0=1.0,
                               proof_variant=True)
    assert abs((C1 - C1v) - 2 * 0.5 * (6.0 - 2.15)) < 1e-12


def test_bound_reference_values():
    report = generalization_bound(UNIT_STATS, TANH_SC, LossConfig(),
                                  N_r=100, N_0=2500, C_z=1.0, C_z0=SQRT_TWO_THIRDS)
    assert abs(report.term_interior - 3.408) < 1e-9
    assert abs(report.total - 3.4275959179422655) < 1e-9
    assert report.C1 == pytest.approx(14.04, abs=1e-12)
    assert report.C2 == pytest.approx(3.0, abs=1e-12)


def test_bound_quadrupling_interior_points_halves_term():
    a = generalization_bound(UNIT_STATS, TANH_SC, LossConfig(),
                             N_r=100, N_0=2500, C_z=1.0, C_z0=SQRT_TWO_THIRDS)
    b = generalization_bound(UNIT_STATS, TANH_SC, LossConfig(),
                             N_r=400, N_0=2500, C_z=1.0, C_z0=SQRT_TWO_THIRDS)
    assert b.term_interior == a.term_interior / 2.0
    assert b.term_initial == a.term_initial


def test_bound_monotone_in_weights(rng):
    cfg = LossConfig()
    base = generalization_bound(UNIT_STATS, TANH_SC, cfg, 100, 100, 1.0, 1.0).total
    for field in ("B_f1", "B_f3", "B_f4", "B_f5", "B_a"):
        kw = dict(UNIT_STATS_KW)
        kw[field] = 2.0
        grown = generalization_bound(WeightStats(**kw), TANH_SC, cfg,
                                     100, 100, 1.0, 1.0).total
        assert grown > base


def test_bound_input_validation():
    with pytest.raises(ValueError):
        generalization_bound(UNIT_STATS, TANH_SC, LossConfig(), 0, 10, 1.0, 1.0)
    with pytest.raises(ValueError):
        generalization_bound(UNIT_STATS, TANH_SC, LossConfig(), 10, 0, 1.0, 1.0)


def test_bound_to_dict_total():
    report = generalization_bound(UNIT_STATS, TANH_SC, LossConfig(),
                                  100, 2500, 1.0, SQRT_TWO_THIRDS)
    doc = report.to_dict()
    assert doc["total"] == report.term_interior + report.term_initial
    assert doc["weight_stats"]["B_f1"] == 1.0


def test_planner_reference_case():
    # asking for exactly twice the interior term at N_r = 100 returns 100
    N_r, N_0 = sample_planner(2.0 * 3.408, UNIT_STATS, TANH_SC, LossConfig(),
                              C_z=1.0, C_z0=SQRT_TWO_THIRDS)
    assert N_r == 100
    assert N_0 == 1  # the initial coefficient is tiny at these stats


def test_planner_achieves_eps(rng):
    cfg = LossConfig()
    for _ in range(20):
        eps = float(rng.uniform(0.05, 5.0))
        kw = {k: float(rng.uniform(0.1, 3.0)) for k in UNIT_STATS_KW}
        stats = WeightStats(**kw)
        C_z = float(rng.uniform(0.5, 2.0))
        C_z0 = float(rng.uniform(0.5, 2.0))
        N_r, N_0 = sample_planner(eps, stats, TANH_SC, cfg, C_z, C_z0)
        report = generalization_bound(stats, TANH_SC, cfg, N_r, N_0, C_z, C_z0)
        assert report.total <= eps + 1e-9
        if N_r > 1:
            shy = generalization_bound(stats, TANH_SC, cfg, N_r - 1, N_0, C_z, C_z0)
            assert shy.term_interior > eps / 2.0 - 1e-9


def test_planner_quartering():
    # halving eps multiplies both counts by ~4 (exactly, modulo ceiling)
    stats = WeightStats(**{k: 1.3 for k in UNIT_STATS_KW})
    n1 = sample_planner(0.5, stats, TANH_SC, LossConfig(), 1.0, 1.0)
    n2 = sample_planner(0.25, stats, TANH_SC, LossConfig(), 1.0, 1.0)
    for a, b in zip(n1, n2):
        assert 4 * a - 4 <= b <= 4 * a + 4


def test_planner_rejects_bad_eps():
    with pytest.raises(ValueError):
        sample_planner(0.0, UNIT_STATS, TANH_SC, LossConfig(), 1.0, 1.0)


def test_planner_ratio_equalizes_the_terms():
    # The planner's N_r / N_0 is the ratio at which the two terms are equal,
    # (interior coefficient / initial coefficient)^2, up to ceiling effects.
    cfg = LossConfig()
    C1, C2 = bound_constants(UNIT_STATS, TANH_SC, cfg.nu, cfg.lambda0)
    interior = 2.0 * cfg.delta * (1.0 * 1.0 * C1 + C2)
    initial = (4.0 * cfg.lambda1 * cfg.delta * 1.0
               * (1.0 * SQRT_TWO_THIRDS * TANH_SC.L_sigma + abs(TANH_SC.c0)))
    N_r, N_0 = sample_planner(0.01, UNIT_STATS, TANH_SC, cfg, 1.0, SQRT_TWO_THIRDS)
    assert N_r / N_0 == pytest.approx((interior / initial) ** 2, rel=1e-2)


def test_stats_scale_homogeneity(rng):
    # scaling W by c scales B_w by c, B_f1/B_f2/B_f3/B_f5 by c, B_f4 by c^2
    weights = init_weights(2, 5, seed=3)
    s1 = weight_stats(weights)
    c = 2.5
    scaled = PinnWeights(W=c * weights.W, A1=weights.A1, a2=weights.a2)
    s2 = weight_stats(scaled)
    assert s2.B_w == pytest.approx(c * s1.B_w, rel=1e-12)
    assert s2.B_f1 == pytest.approx(c * s1.B_f1, rel=1e-12)
    assert s2.B_f2 == pytest.approx(c * s1.B_f2, rel=1e-12)
    assert s2.B_f3 == pytest.approx(c * s1.B_f3, rel=1e-12)
    assert s2.B_f4 == pytest.approx(c * c * s1.B_f4, rel=1e-12)
    assert s2.B_f5 == pytest.approx(c * s1.B_f5, rel=1e-12)
    assert s2.B_a == s1.B_a
