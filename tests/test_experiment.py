import math
from fractions import Fraction

import numpy as np
import pytest

from pinnbound import (ActivationSpec, CollocationSet, LossConfig, SweepConfig,
                       TaylorGreenParams, TrainConfig, empirical_risk,
                       init_weights, initial_targets, measure_gap, moment_constants, pearson,
                       risk_breakdown, sample_initial, sample_interior, sweep_experiment,
                       taylor_green_field, taylor_green_initial)
from pinnbound import experiment, training
from pinnbound.experiment import FIGURE1_BOX, UNIT_BOX, correlate, sweep_row
from pinnbound.residual import loss_res, momentum_residual

PI = math.pi


def test_vortex_values_at_reference_points():
    params = TaylorGreenParams(nu=0.01)
    fe = taylor_green_field(np.array([0.0, 0.0, 0.0]), params)
    assert np.allclose(fe.u, [0.0, 0.0], atol=1e-15)
    assert fe.p_val == -0.5
    fe = taylor_green_field(np.array([0.5, 0.5, 0.0]), params)
    assert np.allclose(fe.u, [-math.cos(PI / 2), math.cos(PI / 2)], atol=1e-15)
    assert fe.p_val == pytest.approx(0.5, abs=1e-15)
    # time decay of the velocity magnitude
    a = taylor_green_field(np.array([0.3, 0.7, 0.0]), params)
    b = taylor_green_field(np.array([0.3, 0.7, 1.0]), params)
    decay = math.exp(-2 * PI * PI * 0.01)
    assert np.allclose(b.u, decay * a.u, atol=1e-14)


def test_vortex_derivatives_match_finite_differences():
    params = TaylorGreenParams(nu=0.05)
    g = np.random.default_rng(0)
    h = 1e-6

    def vel(z):
        return taylor_green_field(z, params).u

    def pres(z):
        return taylor_green_field(z, params).p_val

    for _ in range(20):
        z = g.uniform(0, 1, 3)
        fe = taylor_green_field(z, params)
        for j, col in enumerate(("x", "y", "t")):
            e = np.zeros(3)
            e[j] = h
            dv = (vel(z + e) - vel(z - e)) / (2 * h)
            if j < 2:
                assert np.allclose(fe.jac_u[:, j], dv, atol=1e-8)
                dp = (pres(z + e) - pres(z - e)) / (2 * h)
                assert abs(fe.grad_p[j] - dp) < 1e-8
            else:
                assert np.allclose(fe.du_dt, dv, atol=1e-8)
        lap = sum((vel(z + e) - 2 * vel(z) + vel(z - e)) / h**2
                  for e in (np.array([h, 0, 0]), np.array([0, h, 0])))
        assert np.allclose(fe.lap_u, lap, atol=2e-3)


@pytest.mark.parametrize("nu", [1e-3, 1e-2])
def test_vortex_solves_the_equations(nu):
    params = TaylorGreenParams(nu=nu)
    g = np.random.default_rng(42)
    worst_r, worst_div = 0.0, 0.0
    for _ in range(500):
        z = g.uniform(0, 1, 3)
        fe = taylor_green_field(z, params)
        worst_r = max(worst_r, float(np.max(np.abs(momentum_residual(fe, nu)))))
        worst_div = max(worst_div, abs(fe.div_u))
    assert worst_r < 1e-10
    assert worst_div < 1e-10


def test_vortex_zero_empirical_risk():
    params = TaylorGreenParams(nu=0.01)
    cfg = LossConfig(nu=0.01)
    colloc = CollocationSet(interior=sample_interior(50, UNIT_BOX, 0),
                            initial=sample_initial(30, UNIT_BOX[:2], 1))
    field = lambda z: taylor_green_field(z, params)
    rb = empirical_risk(field, cfg, colloc,
                        initial_targets(taylor_green_initial(params), colloc.initial))
    assert rb.total < 1e-12


def test_vortex_input_validation():
    with pytest.raises(ValueError):
        TaylorGreenParams(nu=0.0)
    with pytest.raises(ValueError):
        taylor_green_field(np.zeros(4), TaylorGreenParams())


def test_samplers_respect_box_and_seed():
    box = FIGURE1_BOX
    a = sample_interior(200, box, seed=3)
    b = sample_interior(200, box, seed=3)
    assert np.array_equal(a, b)
    assert a.shape == (200, 3)
    lo = np.array(box)[:, 0]
    hi = np.array(box)[:, 1]
    assert np.all(a >= lo) and np.all(a <= hi)
    c = sample_initial(100, box[:2], seed=4)
    assert c.shape == (100, 2)
    with pytest.raises(ValueError):
        sample_interior(0, box, seed=0)
    with pytest.raises(ValueError):
        sample_interior(5, ((0, 0), (0, 1), (0, 1)), seed=0)


# Boxes with E ||z||^2 and E ||x||^2 worked by hand, E z^2 = (a^2 + ab + b^2)/3 per axis.
MOMENT_CASES = [
    (UNIT_BOX, Fraction(1), Fraction(2, 3)),
    (FIGURE1_BOX, Fraction(3), Fraction(8, 3)),
    # (1 - 2 + 4)/3 + (1/4 + 3/4 + 9/4)/3 + 9/3 = 1 + 13/12 + 3
    (((-1, 2), (0.5, 1.5), (0, 3)), Fraction(61, 12), Fraction(25, 12)),
]


@pytest.mark.parametrize("box, second_z, second_z0", MOMENT_CASES,
                         ids=["unit", "figure1", "negative_end"])
def test_moment_constants_closed_form(box, second_z, second_z0):
    # exact: the square roots of the correctly rounded second moments
    assert moment_constants(box) == (math.sqrt(second_z), math.sqrt(second_z0))
    # and what a large uniform sample of the box estimates, within 1%
    Z = sample_interior(200000, box, seed=0)
    X = sample_initial(200000, np.asarray(box)[:-1], seed=1)
    sampled = [math.sqrt(np.mean(np.sum(P * P, axis=1))) for P in (Z, X)]
    assert sampled == pytest.approx([math.sqrt(second_z), math.sqrt(second_z0)], rel=0.01)
    with pytest.raises(ValueError):
        moment_constants(((0, 1), (1, 1), (0, 1)))


def test_pearson_reference_cases():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])
    assert correlate([1, 1, 1], [1, 2, 3]) is None


def test_measure_gap_zero_weight_network():
    # zero W with tanh^3: the network outputs zero everywhere, so train and
    # population risks agree up to sampling and the bound interior term is
    # driven by the frozen heads only
    spec = ActivationSpec.from_name("tanh", 3)
    weights = init_weights(2, 8, seed=0, w_scale=0.0)
    cfg = LossConfig()
    params = TaylorGreenParams(nu=cfg.nu)
    colloc = CollocationSet(interior=sample_interior(20, UNIT_BOX, 5),
                            initial=sample_initial(15, UNIT_BOX[:2], 6))
    f0 = taylor_green_initial(params)
    train_risk = risk_breakdown(weights, spec, cfg, colloc,
                                initial_targets(f0, colloc.initial)).total
    rep = measure_gap(weights, spec, cfg, colloc, train_risk, f0, population_points=400, seed=9)
    assert rep.N_r == 20 and rep.N_0 == 15 and rep.train_risk == train_risk
    assert rep.gap == abs(rep.train_risk - rep.population_estimate)
    assert rep.gap < 0.05
    assert rep.bound.term_interior == 0.0  # all weight functionals vanish
    assert rep.bound.term_initial == 0.0   # B_w = 0 and c0 = 0
    assert (rep.bound.C_z, rep.bound.C_z0) == moment_constants(UNIT_BOX)
    with pytest.raises(ValueError):
        measure_gap(weights, spec, cfg, colloc, train_risk, f0, population_points=50, seed=9)


def test_sweep_config_needs_three_rows():
    with pytest.raises(ValueError):
        SweepConfig(n_r_values=(10, 20))


def tiny_sweep_config():
    return SweepConfig(n_r_values=(6, 12, 24), n_0=10, width=6,
                       train=TrainConfig(epochs=30, log_every=10), seed=1)


def test_sweep_rows_reproducible():
    cfg = tiny_sweep_config()
    a = sweep_row(cfg, 1)
    b = sweep_row(cfg, 1)
    assert a.train_risk == b.train_risk
    assert a.population_estimate == b.population_estimate
    assert a.bound.total == b.bound.total
    assert a.N_r == 12


def test_sweep_experiment_end_to_end():
    cfg = tiny_sweep_config()
    report = sweep_experiment(cfg)
    assert len(report.rows) == 3
    assert report.failed_rows == []
    assert [row.N_r for row in report.rows] == [6, 12, 24]
    r = report.pearson_r
    assert r is None or -1.0 <= r <= 1.0
    doc = report.to_dict()
    assert len(doc["rows"]) == 3
    # repeat run gives identical numbers
    again = sweep_experiment(cfg)
    assert [row.gap for row in again.rows] == [row.gap for row in report.rows]
    assert again.pearson_r == report.pearson_r


def test_sweep_row_scores_its_training_set_once(monkeypatch):
    # `train` logs the risk of the final weights on the training set; the row
    # reuses it, so it scores that set once and then only its population sample
    calls = []

    def counted(weights, spec, cfg, colloc, F0):
        calls.append((weights, colloc))
        return risk_breakdown(weights, spec, cfg, colloc, F0)

    monkeypatch.setattr(training, "risk_breakdown", counted)
    monkeypatch.setattr(experiment, "risk_breakdown", counted)
    cfg = SweepConfig(n_r_values=(6, 12, 24), n_0=10, width=6,
                      train=TrainConfig(epochs=30, log_every=30), seed=1)
    row = sweep_row(cfg, 1)
    assert len(calls) == 2
    weights, colloc = calls[0]
    f0 = taylor_green_initial(TaylorGreenParams(nu=cfg.loss.nu))
    assert colloc.n_interior == row.N_r == 12
    assert row.train_risk == risk_breakdown(weights, cfg.activation, cfg.loss, colloc,
                                            initial_targets(f0, colloc.initial)).total
    assert (row.bound.C_z, row.bound.C_z0) == moment_constants(cfg.box)
