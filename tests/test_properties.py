"""Property-based tests of the batched closed forms and the risk.

Examples are derandomized, so every run draws the same cases; the draws
pick shapes, activation families and seeds, and numpy generators seeded
from them supply the arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnbound import (CollocationSet, LossConfig, TaylorGreenParams, field_eval,
                       fields, grad_risk, init_weights, risk_breakdown,
                       taylor_green_field, taylor_green_initial)

from conftest import FAMILIES

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

dims = st.integers(1, 3)
widths = st.integers(1, 6)
families = st.sampled_from(FAMILIES)
seeds = st.integers(0, 2**31 - 1)


def f0_sin(x):
    return np.sin(x)


def colloc_for(seed, d, n_r, n_0):
    g = np.random.default_rng(seed)
    return CollocationSet(interior=g.uniform(-1, 1, (n_r, d + 1)),
                          initial=g.uniform(-1, 1, (n_0, d)))


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds, n=st.integers(1, 7))
def test_fields_rows_match_field_eval(d, p, spec, seed, n):
    weights = init_weights(d, p, seed=seed)
    Z = np.random.default_rng(seed).uniform(0.05, 1.0, (n, d + 1))
    batch, stack = fields(weights, spec, Z)
    assert len(stack) == 4 and all(s.shape == (n, p) for s in stack)
    for i, z in enumerate(Z):
        one = field_eval(weights, spec, z)
        for name, val in vars(one).items():
            row = getattr(batch, name)[i]
            assert np.shape(val) == np.shape(row), name
            np.testing.assert_allclose(val, row, rtol=1e-12, atol=1e-13, err_msg=name)


@PROPERTY
@given(seed=seeds, n=st.integers(1, 9), nu=st.floats(1e-3, 0.1))
def test_batched_vortex_matches_per_point_calls(seed, n, nu):
    params = TaylorGreenParams(nu=nu)
    Z = np.random.default_rng(seed).uniform(0, 2, (n, 3))
    batch = taylor_green_field(Z, params)
    for i, z in enumerate(Z):
        one = taylor_green_field(z, params)
        for name, val in vars(one).items():
            np.testing.assert_allclose(val, getattr(batch, name)[i],
                                       rtol=1e-14, atol=1e-15, err_msg=name)
    f0 = taylor_green_initial(params)
    X = Z[:, :2]
    F0 = f0(X)
    assert F0.shape == X.shape
    for x, row in zip(X, F0):
        np.testing.assert_allclose(f0(x), row, rtol=1e-14, atol=1e-15)
    # leading axes of any rank broadcast
    assert taylor_green_field(Z.reshape(n, 1, 3), params).jac_u.shape == (n, 1, 2, 2)


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds,
       n_r=st.integers(1, 12), n_0=st.integers(1, 12))
def test_risk_breakdown_permutation_invariant(d, p, spec, seed, n_r, n_0):
    weights = init_weights(d, p, seed=seed)
    colloc = colloc_for(seed + 1, d, n_r, n_0)
    cfg = LossConfig(delta=0.5, lambda0=1.2, lambda1=0.7, nu=0.03)
    base = risk_breakdown(weights, spec, cfg, colloc, f0_sin)
    g = np.random.default_rng(seed + 2)
    shuffled = CollocationSet(interior=colloc.interior[g.permutation(n_r)],
                              initial=colloc.initial[g.permutation(n_0)])
    again = risk_breakdown(weights, spec, cfg, shuffled, f0_sin)
    assert again.momentum_term == base.momentum_term
    assert again.divergence_term == base.divergence_term
    assert again.initial_term == base.initial_term


@settings(max_examples=20, derandomize=True, deadline=None)
@given(d=dims, p=st.integers(1, 4), spec=families, seed=seeds,
       delta=st.floats(0.3, 2.0), lambda0=st.floats(0.0, 2.0),
       lambda1=st.floats(0.0, 1.0), nu=st.floats(0.005, 0.1))
def test_grad_risk_matches_finite_differences(d, p, spec, seed, delta, lambda0,
                                              lambda1, nu):
    weights = init_weights(d, p, seed=seed)
    colloc = colloc_for(seed + 1, d, 5, 4)
    cfg = LossConfig(delta=delta, lambda0=lambda0, lambda1=lambda1, nu=nu)
    G = grad_risk(weights, spec, cfg, colloc, f0_sin)
    h = 1e-6
    F = np.zeros_like(G)
    for i in range(p):
        for j in range(d + 1):
            for step in (h, -h):
                w = weights.copy()
                w.W[i, j] += step
                F[i, j] += np.sign(step) * risk_breakdown(w, spec, cfg, colloc, f0_sin).total
    F /= 2 * h
    scale = max(float(np.max(np.abs(F))), 1e-6)
    assert float(np.max(np.abs(G - F))) / scale < 1e-5
