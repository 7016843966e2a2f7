import math

import numpy as np
import pytest

from pinnbound import (ActivationSpec, CollocationSet, FieldEval, LossConfig,
                       empirical_risk, field_eval, huber, huber_grad,
                       init_weights, initial_losses, loss_init, loss_res,
                       momentum_residual)


def still_field(u, z):
    """Constant velocity field with all derivatives zero, at points z of
    shape (..., d+1): every entry leads with the axes of z before its last."""
    lead, d = np.shape(z)[:-1], len(u)
    return FieldEval(u=np.broadcast_to(np.asarray(u, dtype=float), lead + (d,)),
                     p_val=np.zeros(lead), du_dt=np.zeros(lead + (d,)),
                     jac_u=np.zeros(lead + (d, d)), grad_p=np.zeros(lead + (d,)),
                     lap_u=np.zeros(lead + (d,)), div_u=np.zeros(lead))


def test_huber_values():
    assert huber(1.0, 0.0) == 0.0
    assert huber(1.0, 0.5) == 0.125
    assert huber(1.0, 1.0) == 0.5
    assert huber(1.0, 3.0) == 2.5
    assert huber(2.0, -5.0) == 2.0 * (5.0 - 1.0)
    assert np.array_equal(huber(1.0, np.array([-2.0, 2.0])), np.array([1.5, 1.5]))


def huber_two_branches(delta, x):
    """The Huber loss written as its two branches."""
    x = np.abs(x)
    return np.where(x <= delta, 0.5 * x * x, delta * (x - 0.5 * delta))


@pytest.mark.parametrize("delta", [1.0, 0.3, 2.5, 1e-3])
def test_huber_bit_identical_to_two_branches(delta):
    special = [0.0, -0.0, delta, -delta, np.nextafter(delta, 0.0), np.nextafter(delta, np.inf),
               -np.nextafter(delta, np.inf), 5e-324, -5e-324, 1e-300, 1e308, -1e308,
               np.inf, -np.inf, np.nan, -np.nan]
    x = np.concatenate([np.random.default_rng(7).standard_normal(200_000) * 3 * delta, special])
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = huber(delta, x), huber_two_branches(delta, x)
    # Compared as bit patterns, so the signs of zeros and the NaNs count too.
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_huber_grad_matches_finite_difference(rng):
    xs = rng.uniform(-3, 3, 200)
    h = 1e-7
    fd = (huber(1.3, xs + h) - huber(1.3, xs - h)) / (2 * h)
    assert np.allclose(huber_grad(1.3, xs), fd, atol=1e-6)


def test_huber_basic_properties(rng):
    delta = 0.8
    xs = rng.uniform(-5, 5, 500)
    ys = rng.uniform(-5, 5, 500)
    vals = huber(delta, xs)
    assert np.all(vals >= 0)
    assert np.array_equal(vals, huber(delta, -xs))
    # delta-Lipschitz
    assert np.all(np.abs(vals - huber(delta, ys)) <= delta * np.abs(xs - ys) + 1e-12)


def test_momentum_residual_hand_case():
    d = 2
    fe = FieldEval(u=np.array([1.0, 2.0]), p_val=0.0,
                   du_dt=np.array([0.5, -0.5]),
                   jac_u=np.array([[1.0, 0.0], [0.0, 3.0]]),
                   grad_p=np.array([0.1, 0.2]),
                   lap_u=np.array([10.0, 20.0]),
                   div_u=4.0)
    r = momentum_residual(fe, nu=0.1)
    # r_k = du_k/dt + sum_m (du_k/dx_m) u_m + dp/dx_k - nu lap u_k
    assert np.allclose(r, [0.5 + 1.0 + 0.1 - 1.0, -0.5 + 6.0 + 0.2 - 2.0], atol=1e-15)
    cfg = LossConfig(delta=10.0, lambda0=2.0, nu=0.1)
    expected = 0.5 * (r[0] ** 2 + r[1] ** 2) + 2.0 * 0.5 * 16.0
    assert abs(loss_res(fe, cfg) - expected) < 1e-12


def test_loss_init_hand_case():
    cfg = LossConfig(lambda1=0.5)
    val = loss_init(np.array([1.0, 0.0]), np.array([0.0, 3.0]), cfg)
    assert abs(val - 0.5 * (0.5 + (3.0 - 0.5))) < 1e-15
    with pytest.raises(ValueError):
        loss_init(np.zeros(2), np.zeros(3), cfg)


def test_initial_losses_are_loss_init_per_point(rng):
    cfg = LossConfig(delta=0.6, lambda1=0.7)
    u0, targets = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    assert initial_losses(u0, targets, cfg).tolist() == [loss_init(u, f, cfg) for u, f in zip(u0, targets)]


def test_empirical_risk_still_field():
    # constant field: zero residual and divergence, only the initial miss
    cfg = LossConfig(delta=1.0, lambda0=1.0, lambda1=0.3)
    colloc = CollocationSet(interior=np.zeros((4, 3)), initial=np.zeros((2, 2)), f0=np.zeros_like)
    field = lambda z: still_field([0.5, 0.0], z)
    rb = empirical_risk(field, cfg, colloc)
    assert rb.momentum_term == 0.0
    assert rb.divergence_term == 0.0
    assert abs(rb.initial_term - 0.3 * 0.5 * 0.25) < 1e-15
    assert rb.total == rb.momentum_term + rb.divergence_term + rb.initial_term


def test_empirical_risk_averages():
    cfg = LossConfig(delta=10.0, lambda0=0.0, lambda1=1.0)
    colloc = CollocationSet(interior=np.zeros((3, 3)),
                            initial=np.array([[0.0, 0.0], [1.0, 0.0]]),
                            f0=lambda x: x * [1.0, 0.0])  # miss grows with x
    field = lambda z: still_field([0.0, 0.0], z)
    rb = empirical_risk(field, cfg, colloc)
    assert abs(rb.initial_term - 0.5 * (0.0 + 0.5)) < 1e-15


def test_empirical_risk_permutation_invariant(rng):
    spec = ActivationSpec.from_name("tanh", 1)
    weights = init_weights(2, 4, seed=9)
    field = lambda z: field_eval(weights, spec, z)
    f0 = lambda x: x * [1.0, -1.0]
    cfg = LossConfig()
    interior = rng.uniform(0, 1, (17, 3))
    initial = rng.uniform(0, 1, (13, 2))
    base = empirical_risk(field, cfg, CollocationSet(interior, initial, f0))
    for _ in range(3):
        pi = rng.permutation(17)
        pj = rng.permutation(13)
        shuf = empirical_risk(field, cfg, CollocationSet(interior[pi], initial[pj], f0))
        assert shuf.momentum_term == base.momentum_term
        assert shuf.divergence_term == base.divergence_term
        assert shuf.initial_term == base.initial_term


def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(delta=0.0)
    with pytest.raises(ValueError):
        LossConfig(nu=-0.1)
    with pytest.raises(ValueError):
        LossConfig(nu=0.0)
    with pytest.raises(ValueError):
        LossConfig(lambda0=-1.0)
    with pytest.raises(ValueError):
        CollocationSet(interior=np.zeros((0, 3)), initial=np.zeros((1, 2)), f0=np.zeros_like)
    with pytest.raises(ValueError):
        CollocationSet(interior=np.zeros((2, 3)), initial=np.zeros((1, 3)), f0=np.zeros_like)
    bad = np.zeros((2, 3))
    bad[0, 0] = math.inf
    with pytest.raises(ValueError):
        CollocationSet(interior=bad, initial=np.zeros((1, 2)), f0=np.zeros_like)


def test_collocation_set_targets_come_from_one_f0_call():
    calls = []

    def f0(x):
        calls.append(x)
        return x * [2.0, -1.0]
    initial = np.random.default_rng(4).uniform(0, 1, (6, 2))
    colloc = CollocationSet(interior=np.zeros((2, 3)), initial=initial, f0=f0)
    assert len(calls) == 1 and colloc.f0 is f0
    assert np.array_equal(colloc.targets, initial * [2.0, -1.0])
    # an f0 whose output shape is not that of the initial points is rejected
    for wrong in (lambda x: x[:, :1], lambda x: x[:-1], lambda x: x.sum()):
        with pytest.raises(ValueError, match=r"f0 maps points \(6, 2\) to"):
            CollocationSet(interior=np.zeros((2, 3)), initial=initial, f0=wrong)


def test_initial_spacetime_built_once():
    initial = np.random.default_rng(3).uniform(0, 1, (5, 2))
    colloc = CollocationSet(interior=np.zeros((2, 3)), initial=initial, f0=np.zeros_like)
    z0 = colloc.initial_spacetime
    assert colloc.initial_spacetime is z0
    assert np.array_equal(z0, np.hstack([initial, np.zeros((5, 1))]))
