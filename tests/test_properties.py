"""Property-based tests of the batched closed forms and the risk.

Examples are derandomized, so every run draws the same cases; the draws
pick shapes, activation families and seeds, and numpy generators seeded
from them supply the arrays.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as P

from pinnbound import (ActivationSpec, CollocationSet, LossConfig, PinnWeights,
                       TaylorGreenParams, eval_derivs, field_eval, fields, grad_risk,
                       init_weights, initial_targets, load_checkpoint, risk_breakdown,
                       save_checkpoint, taylor_green_field, taylor_green_initial)

from conftest import FAMILIES

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

dims = st.integers(1, 3)
widths = st.integers(1, 6)
families = st.sampled_from(FAMILIES)
seeds = st.integers(0, 2**31 - 1)


def f0_sin(x):
    return np.sin(x)


def power_sum_stack(spec, x):
    """sigma..sigma''' of `spec` at x, each summed term by term as c_m s^m,
    and the sums of the terms' magnitudes, which scale the rounding error
    of any evaluation order.  The derivative polynomials come from
    numpy.polynomial: p(s)' = p'(s) ds/dx for s = tanh x or sigmoid x, and
    (e^{-x} q(x))' = e^{-x} (q' - q) for exp(-x)relu(x)^k."""
    x = np.asarray(x, dtype=float)
    k = spec.k
    if spec.family.value == "expnegrelu":
        step, var = (lambda q: P.polysub(P.polyder(q), q)), np.where(x > 0, x, 1.0)
        weight = np.where(x > 0, np.exp(-var), 0.0)
    else:
        ds = [1.0, 0.0, -1.0] if spec.family.value == "tanh" else [0.0, 1.0, -1.0]
        step, weight = (lambda q: P.polymul(P.polyder(q), ds)), 1.0
        var = np.tanh(x) if spec.family.value == "tanh" else 1.0 / (1.0 + np.exp(-x))
    q = np.zeros(k + 1)
    q[k] = 1.0
    values, scales = [], []
    for _ in range(4):
        values.append(weight * sum(c * var**m for m, c in enumerate(q)))
        scales.append(np.abs(weight) * sum(abs(c) * np.abs(var)**m for m, c in enumerate(q)))
        q = step(q)
    return values, scales


stack_specs = st.one_of(
    st.builds(ActivationSpec.from_name, st.sampled_from(["tanh", "sigmoid"]), st.integers(1, 6)),
    st.builds(ActivationSpec.from_name, st.just("expnegrelu"), st.integers(3, 6)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=stack_specs,
       x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                    elements=st.floats(-30.0, 30.0)))
def test_eval_derivs_matches_power_sums(spec, x):
    values, scales = power_sum_stack(spec, x)
    got = eval_derivs(spec, x)
    assert len(got) == 4
    for n, (g, ref, scale) in enumerate(zip(got, values, scales)):
        g = np.asarray(g)
        assert g.dtype == np.float64 and g.shape == np.shape(ref) == x.shape, n
        # Subnormal terms (x near 0 for expnegrelu) carry no relative
        # precision, so errors below the smallest normal float are allowed.
        assert np.all(np.abs(g - ref) <= 1e-12 * scale + np.finfo(float).tiny), n


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds, n=st.integers(1, 9))
def test_fields_jacobian_matches_einsum(d, p, spec, seed, n):
    weights = init_weights(d, p, seed=seed)
    Z = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d + 1))
    s1 = eval_derivs(spec, Z @ weights.W.T)[1]
    ref = np.einsum("nq,kq,qm->nkm", s1, weights.A1, weights.W[:, :d])
    np.testing.assert_allclose(fields(weights, spec, Z)[0].jac_u, ref, rtol=1e-13, atol=1e-13)


def colloc_for(seed, d, n_r, n_0):
    g = np.random.default_rng(seed)
    return CollocationSet(interior=g.uniform(-1, 1, (n_r, d + 1)),
                          initial=g.uniform(-1, 1, (n_0, d)))


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds, a=st.integers(1, 3), b=st.integers(1, 3))
def test_fields_rows_match_field_eval(d, p, spec, seed, a, b):
    n = a * b
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
    # One call on points with one or two leading axes: the same `fields`
    # rows, bit for bit, each entry leading with those axes.
    for lead in ((n,), (a, b)):
        many = field_eval(weights, spec, Z.reshape(lead + (d + 1,)))
        for name, val in vars(many).items():
            rows = getattr(batch, name)
            assert np.shape(val) == lead + rows.shape[1:], name
            np.testing.assert_array_equal(np.reshape(val, rows.shape), rows, err_msg=name)


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
    base = risk_breakdown(weights, spec, cfg, colloc, initial_targets(f0_sin, colloc.initial))
    g = np.random.default_rng(seed + 2)
    shuffled = CollocationSet(interior=colloc.interior[g.permutation(n_r)],
                              initial=colloc.initial[g.permutation(n_0)])
    again = risk_breakdown(weights, spec, cfg, shuffled,
                           initial_targets(f0_sin, shuffled.initial))
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
    F0 = initial_targets(f0_sin, colloc.initial)
    G = grad_risk(weights, spec, cfg, colloc, F0)
    h = 1e-6
    F = np.zeros_like(G)
    for i in range(p):
        for j in range(d + 1):
            for step in (h, -h):
                w = weights.copy()
                w.W[i, j] += step
                F[i, j] += np.sign(step) * risk_breakdown(w, spec, cfg, colloc, F0).total
    F /= 2 * h
    scale = max(float(np.max(np.abs(F))), 1e-6)
    assert float(np.max(np.abs(G - F))) / scale < 1e-5


@PROPERTY
@given(d=dims, p=widths, spec=stack_specs, data=st.data())
def test_checkpoint_round_trip_is_bit_exact(d, p, spec, data):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    weights = PinnWeights(*(data.draw(hnp.arrays(np.float64, shape, elements=finite))
                            for shape in ((p, d + 1), (d, p), (p,))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        save_checkpoint(weights, spec, path)
        loaded, loaded_spec = load_checkpoint(path)
    assert loaded_spec == spec
    for name in ("W", "A1", "a2"):
        before, after = getattr(weights, name), getattr(loaded, name)
        assert after.dtype == np.float64 and after.shape == before.shape, name
        # Compared as bit patterns, so -0.0 and subnormals must survive too.
        assert np.array_equal(before.view(np.uint64), after.view(np.uint64)), name
