import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinnbound
from pinnbound import training
from pinnbound import (ActivationSpec, FieldEval, LossConfig, OptimState, PinnWeights,
                       TrainConfig, adamw_step, empirical_risk, field_eval,
                       grad_risk, init_weights, risk_breakdown, train)

from conftest import FAMILIES, random_colloc, random_net

TANH = ActivationSpec.from_name("tanh", 1)


def f0_demo(x):
    return np.stack([np.sin(x[..., 0]), np.cos(x[..., 1])], axis=-1)


def fd_grad(weights, spec, cfg, colloc, h=1e-6):
    G = np.zeros_like(weights.W)
    for i in range(weights.p):
        for j in range(weights.d + 1):
            for s, sign in ((h, 1.0), (-h, -1.0)):
                w = weights.copy()
                w.W[i, j] += s
                field = lambda z: field_eval(w, spec, z)
                G[i, j] += sign * empirical_risk(field, cfg, colloc).total
    return G / (2 * h)


def per_point_field(weights, spec):
    """Reference field evaluator: the one-point `field_eval` at each row of
    Z, stacked, so no batched matmul touches more than one point."""
    def field(Z):
        rows = [vars(field_eval(weights, spec, z)) for z in Z]
        return FieldEval(**{name: np.array([row[name] for row in rows]) for name in rows[0]})
    return field


def test_risk_breakdown_matches_generic_evaluator():
    # Set sizes around the scoring chunk c, the two sets at different sizes,
    # so that each chunk boundary falls inside, at and past a set's end.
    p = 64
    c = training._CHUNK // p
    sizes = [c - 1, c, c + 1, 3 * c + 7]
    cfg = LossConfig(delta=0.7, lambda0=1.3, lambda1=0.4, nu=0.05)
    for spec in FAMILIES:
        for seed, (n_r, n_0) in enumerate(zip(sizes, sizes[1:] + sizes[:1])):
            weights = random_net(seed, d=2, p=p)
            colloc = random_colloc(seed + 100, f0_demo, d=2, n_r=n_r, n_0=n_0)
            batched = risk_breakdown(weights, spec, cfg, colloc)
            looped = empirical_risk(per_point_field(weights, spec), cfg, colloc)
            assert abs(batched.momentum_term - looped.momentum_term) < 1e-12
            assert abs(batched.divergence_term - looped.divergence_term) < 1e-12
            assert abs(batched.initial_term - looped.initial_term) < 1e-12


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
def test_gradient_matches_finite_differences(spec, rng):
    for seed in range(2):
        weights = random_net(seed, d=2, p=3)
        colloc = random_colloc(seed + 7, f0_demo, d=2, n_r=5, n_0=4)
        cfg = LossConfig(delta=0.9, lambda0=0.8, lambda1=0.5, nu=0.02)
        G = grad_risk(weights, spec, cfg, colloc)
        F = fd_grad(weights, spec, cfg, colloc)
        scale = max(np.max(np.abs(F)), 1e-8)
        assert np.max(np.abs(G - F)) / scale < 1e-5


def test_gradient_one_dimensional_case(rng):
    # d = 1 exercises the column bookkeeping at its smallest size
    weights = init_weights(1, 3, seed=2)
    g = np.random.default_rng(3)
    colloc_int = g.uniform(0, 1, (4, 2))
    colloc_init = g.uniform(0, 1, (3, 1))
    from pinnbound import CollocationSet
    colloc = CollocationSet(interior=colloc_int, initial=colloc_init, f0=np.sin)
    cfg = LossConfig(delta=1.0, lambda0=0.6, lambda1=0.2, nu=0.05)
    G = grad_risk(weights, TANH, cfg, colloc)
    F = fd_grad(weights, TANH, cfg, colloc)
    assert np.max(np.abs(G - F)) / max(np.max(np.abs(F)), 1e-8) < 1e-5


def test_gradient_zero_at_exact_fit():
    # zero W with tanh^3 gives zero velocity everywhere; against a zero
    # initial condition the risk is identically flat in the linear region
    spec = ActivationSpec.from_name("tanh", 3)
    weights = init_weights(2, 4, seed=0, w_scale=0.0)
    colloc = random_colloc(1, np.zeros_like, d=2, n_r=6, n_0=4)
    G = grad_risk(weights, spec, LossConfig(), colloc)
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
    colloc = random_colloc(6, f0_demo, d=2, n_r=16, n_0=8)
    cfg = LossConfig()
    tc = TrainConfig(epochs=200, log_every=50)
    w1, h1 = train(weights0, spec, cfg, colloc, tc)
    w2, h2 = train(weights0, spec, cfg, colloc, tc)
    assert np.array_equal(w1.W, w2.W)
    assert [(e, rb.total) for e, rb in h1] == [(e, rb.total) for e, rb in h2]
    assert h1[-1][1].total < h1[0][1].total
    assert h1[-1][0] == 200
    # the input weights are untouched
    assert np.array_equal(weights0.W, init_weights(2, 8, seed=5).W)


def test_train_history_epochs():
    spec = ActivationSpec.from_name("tanh", 1)
    weights0 = init_weights(2, 4, seed=0)
    colloc = random_colloc(0, f0_demo, d=2, n_r=4, n_0=3)
    _, hist = train(weights0, spec, LossConfig(), colloc, TrainConfig(epochs=7, log_every=3))
    assert [e for e, _ in hist] == [3, 6, 7]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(eps_adam=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(weight_decay=-5.0)
    TrainConfig(eps_adam=0.0, weight_decay=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_reports_divergence():
    spec = ActivationSpec.from_name("tanh", 1)
    weights0 = init_weights(2, 4, seed=0)
    colloc = random_colloc(0, f0_demo, d=2, n_r=4, n_0=3)
    tc = TrainConfig(epochs=5, learning_rate=1e160, weight_decay=0.0, log_every=1)
    with pytest.raises(RuntimeError):
        train(weights0, spec, LossConfig(), colloc, tc)


# The desk `train` (tanh^3, p = 64, N_r = 216, N_0 = 500) run for 20 epochs,
# then for 100; prints the minor page faults per epoch of the second run.
FAULT_PROBE = """
import resource
import numpy as np
from pinnbound import (ActivationSpec, CollocationSet, LossConfig, TrainConfig,
                       init_weights, sample_initial, sample_interior, taylor_green_initial,
                       train)
box = np.array([(0.0, 1.0)] * 3)
colloc = CollocationSet(interior=sample_interior(216, box, 0),
                        initial=sample_initial(500, box[:-1], 1), f0=taylor_green_initial(0.01))
args = (init_weights(2, 64, seed=2), ActivationSpec.from_name("tanh", 3), LossConfig(), colloc)
train(*args, TrainConfig(epochs=20))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(*args, TrainConfig(epochs=100))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_training_epochs_reuse_freed_memory():
    # A fresh process, because the test runner's own heap history can hide
    # the pages an epoch hands back to the kernel and faults in again.
    src = str(Path(pinnbound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert float(out) < 10
