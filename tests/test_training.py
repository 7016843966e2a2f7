import numpy as np
import pytest

from pinnbound import (ActivationSpec, FieldEval, LossConfig, OptimState, PinnWeights,
                       TrainConfig, adamw_step, empirical_risk, field_eval,
                       grad_risk, init_weights, initial_targets, risk_breakdown,
                       train)

from conftest import FAMILIES, random_colloc, random_net

TANH = ActivationSpec.from_name("tanh", 1)


def f0_demo(x):
    return np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1)


def fd_grad(weights, spec, cfg, colloc, f0, h=1e-6):
    G = np.zeros_like(weights.W)
    for i in range(weights.p):
        for j in range(weights.d + 1):
            for s, sign in ((h, 1.0), (-h, -1.0)):
                w = weights.copy()
                w.W[i, j] += s
                field = lambda z: field_eval(w, spec, z)
                G[i, j] += sign * empirical_risk(field, cfg, colloc, f0).total
    return G / (2 * h)


def per_point_field(weights, spec):
    """Reference field evaluator: the one-point `field_eval` at each row of
    Z, stacked, so no batched matmul touches more than one point."""
    def field(Z):
        rows = [vars(field_eval(weights, spec, z)) for z in Z]
        return FieldEval(**{name: np.array([row[name] for row in rows]) for name in rows[0]})
    return field


def test_risk_breakdown_matches_generic_evaluator(rng):
    for seed in range(5):
        weights = random_net(seed, d=2, p=5)
        colloc = random_colloc(seed + 100, d=2, n_r=7, n_0=5)
        cfg = LossConfig(delta=0.7, lambda0=1.3, lambda1=0.4, nu=0.05)
        batched = risk_breakdown(weights, TANH, cfg, colloc,
                                 initial_targets(f0_demo, colloc.initial))
        looped = empirical_risk(per_point_field(weights, TANH), cfg, colloc, f0_demo)
        assert abs(batched.momentum_term - looped.momentum_term) < 1e-12
        assert abs(batched.divergence_term - looped.divergence_term) < 1e-12
        assert abs(batched.initial_term - looped.initial_term) < 1e-12


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
def test_gradient_matches_finite_differences(spec, rng):
    for seed in range(2):
        weights = random_net(seed, d=2, p=3)
        colloc = random_colloc(seed + 7, d=2, n_r=5, n_0=4)
        cfg = LossConfig(delta=0.9, lambda0=0.8, lambda1=0.5, nu=0.02)
        G = grad_risk(weights, spec, cfg, colloc, initial_targets(f0_demo, colloc.initial))
        F = fd_grad(weights, spec, cfg, colloc, f0_demo)
        scale = max(np.max(np.abs(F)), 1e-8)
        assert np.max(np.abs(G - F)) / scale < 1e-5


def test_gradient_one_dimensional_case(rng):
    # d = 1 exercises the column bookkeeping at its smallest size
    weights = init_weights(1, 3, seed=2)
    g = np.random.default_rng(3)
    colloc_int = g.uniform(0, 1, (4, 2))
    colloc_init = g.uniform(0, 1, (3, 1))
    from pinnbound import CollocationSet
    colloc = CollocationSet(interior=colloc_int, initial=colloc_init)
    cfg = LossConfig(delta=1.0, lambda0=0.6, lambda1=0.2, nu=0.05)
    f0 = np.sin
    G = grad_risk(weights, TANH, cfg, colloc, initial_targets(f0, colloc.initial))
    F = fd_grad(weights, TANH, cfg, colloc, f0)
    assert np.max(np.abs(G - F)) / max(np.max(np.abs(F)), 1e-8) < 1e-5


def test_gradient_zero_at_exact_fit():
    # zero W with tanh^3 gives zero velocity everywhere; against a zero
    # initial condition the risk is identically flat in the linear region
    spec = ActivationSpec.from_name("tanh", 3)
    weights = init_weights(2, 4, seed=0, w_scale=0.0)
    colloc = random_colloc(1, d=2, n_r=6, n_0=4)
    cfg = LossConfig()
    f0 = np.zeros_like
    G = grad_risk(weights, spec, cfg, colloc, initial_targets(f0, colloc.initial))
    assert np.all(G == 0.0)


def test_adamw_first_step_magnitude():
    weights = init_weights(2, 3, seed=0)
    tc = TrainConfig(learning_rate=1e-3, weight_decay=0.0)
    g = np.ones_like(weights.W)
    new, state = adamw_step(weights, g, OptimState.zeros(weights), tc)
    # bias correction makes m_hat = g, v_hat = g*g, so the step is ~lr
    step = weights.W - new.W
    assert np.allclose(step, 1e-3 * 1.0 / (1.0 + 1e-8), atol=1e-12)
    assert state.step == 1


def test_adamw_decoupled_decay():
    weights = init_weights(2, 3, seed=0)
    tc = TrainConfig(learning_rate=0.1, weight_decay=0.5)
    new, _ = adamw_step(weights, np.zeros_like(weights.W), OptimState.zeros(weights), tc)
    # zero gradient: only the multiplicative decay acts
    assert np.allclose(new.W, weights.W * (1.0 - 0.1 * 0.5), atol=1e-15)


def test_adamw_zero_lr_is_identity():
    weights = init_weights(2, 3, seed=1)
    tc = TrainConfig(learning_rate=0.0)
    new, _ = adamw_step(weights, np.ones_like(weights.W), OptimState.zeros(weights), tc)
    assert np.array_equal(new.W, weights.W)


def test_adamw_frozen_layers_untouched():
    weights = init_weights(2, 3, seed=1)
    tc = TrainConfig(learning_rate=0.1, weight_decay=0.1)
    new, _ = adamw_step(weights, np.ones_like(weights.W), OptimState.zeros(weights), tc)
    assert np.array_equal(new.A1, weights.A1)
    assert np.array_equal(new.a2, weights.a2)


def test_adamw_shape_check():
    weights = init_weights(2, 3, seed=0)
    with pytest.raises(ValueError):
        adamw_step(weights, np.zeros((1, 1)), OptimState.zeros(weights), TrainConfig())


def test_train_decreases_risk_and_is_deterministic():
    spec = ActivationSpec.from_name("tanh", 3)
    weights0 = init_weights(2, 8, seed=5)
    colloc = random_colloc(6, d=2, n_r=16, n_0=8)
    cfg = LossConfig()
    tc = TrainConfig(epochs=200, log_every=50)
    w1, h1 = train(weights0, spec, cfg, colloc, f0_demo, tc)
    w2, h2 = train(weights0, spec, cfg, colloc, f0_demo, tc)
    assert np.array_equal(w1.W, w2.W)
    assert [(e, rb.total) for e, rb in h1] == [(e, rb.total) for e, rb in h2]
    assert h1[-1][1].total < h1[0][1].total
    assert h1[-1][0] == 200
    # the input weights are untouched
    assert np.array_equal(weights0.W, init_weights(2, 8, seed=5).W)


def test_train_history_epochs():
    spec = ActivationSpec.from_name("tanh", 1)
    weights0 = init_weights(2, 4, seed=0)
    colloc = random_colloc(0, d=2, n_r=4, n_0=3)
    _, hist = train(weights0, spec, LossConfig(), colloc, f0_demo,
                    TrainConfig(epochs=7, log_every=3))
    assert [e for e, _ in hist] == [3, 6, 7]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_divergence():
    spec = ActivationSpec.from_name("tanh", 1)
    weights0 = init_weights(2, 4, seed=0)
    colloc = random_colloc(0, d=2, n_r=4, n_0=3)
    tc = TrainConfig(epochs=5, learning_rate=1e160, weight_decay=0.0, log_every=1)
    with pytest.raises(RuntimeError):
        train(weights0, spec, LossConfig(), colloc, f0_demo, tc)
