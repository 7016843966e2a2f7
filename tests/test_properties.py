"""Property-based tests of the batched closed forms, the risk, and the
bound's independence of the width and of an unused dimension.

Examples are derandomized, so every run draws the same cases; the draws
pick shapes, activation families and seeds, and numpy generators seeded
from them supply the arrays.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import polynomial as P

from pinnbound import (ActivationSpec, CollocationSet, LossConfig, PinnWeights, constants,
                       eval_derivs, field_eval, fields, generalization_bound, grad_risk,
                       huber_grad, init_weights, load_checkpoint,
                       momentum_residual, risk_breakdown, save_checkpoint,
                       taylor_green_field, taylor_green_initial, weight_stats)
from pinnbound.activations import _BLOCK
from pinnbound.experiment import FIGURE1_BOX, UNIT_BOX, sample_initial, sample_interior

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


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_eval_derivs_across_blocks(spec, size):
    # eval_derivs works in blocks of _BLOCK points; the property test
    # above never draws enough points to cross one.
    draw = np.random.default_rng(size).uniform(-30.0, 30.0, 3 * size)
    draw[:3] = 0.0, -0.0, -30.0
    for x in (draw[:size], draw.reshape(3, size).T):  # 1-d, and a 2-d strided view
        values, scales = power_sum_stack(spec, x)
        for n, (g, ref, scale) in enumerate(zip(eval_derivs(spec, x), values, scales)):
            assert g.dtype == np.float64 and g.shape == x.shape, n
            assert np.all(np.abs(g - ref) <= 1e-12 * scale + np.finfo(float).tiny), n
            if spec.family.value == "expnegrelu":
                assert np.all(g[x <= 0] == 0.0), n


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds, n=st.integers(1, 9))
def test_fields_jacobian_matches_einsum(d, p, spec, seed, n):
    weights = init_weights(d, p, seed=seed)
    Z = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d + 1))
    _, s1, s2, _ = eval_derivs(spec, Z @ weights.W.T)
    W, A1, a2 = weights.W, weights.A1, weights.a2
    Wx = W[:, :d]
    fe = fields(weights, spec, Z)[0]
    refs = {"jac_u": np.einsum("nq,kq,qm->nkm", s1, A1, Wx),
            "du_dt": np.einsum("nq,kq,q->nk", s1, A1, W[:, d]),
            "grad_p": np.einsum("nq,q,qm->nm", s1, a2, Wx),
            "lap_u": np.einsum("nq,kq,qm,qm->nk", s2, A1, Wx, Wx)}
    for name, ref in refs.items():
        np.testing.assert_allclose(getattr(fe, name), ref, rtol=1e-13, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
@settings(max_examples=10, derandomize=True, deadline=None)
@given(d=dims, p=widths, seed=seeds, n=st.integers(1, 9))
def test_fields_values_only_matches_full_call(spec, d, p, seed, n):
    weights = init_weights(d, p, seed=seed)
    Z = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d + 1))
    full, full_stack = fields(weights, spec, Z)
    values, stack = fields(weights, spec, Z, derivatives=False)
    assert len(stack) == 4
    for got, ref in zip(stack, full_stack):
        np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(values.u, full.u)
    np.testing.assert_array_equal(values.p_val, full.p_val)
    assert all(val is None for name, val in vars(values).items()
               if name not in ("u", "p_val"))


def field_scales(weights, spec, Z):
    """The size of the terms that each `fields` entry sums, which scales its
    rounding error: the closed form with every head by its magnitude and
    every activation level by its power-sum scale, plus the next level's
    scale times the size of the pre-activation's terms."""
    _, scales = power_sum_stack(spec, Z @ weights.W.T)
    size = np.abs(Z) @ np.abs(weights.W.T)
    S0, S1, S2 = (scales[n] + scales[n + 1] * size for n in range(3))
    W, A1, a2 = np.abs(weights.W), np.abs(weights.A1), np.abs(weights.a2)
    Wx = W[:, :weights.d]
    jac = np.einsum("nq,kq,qm->nkm", S1, A1, Wx)
    return {"u": S0 @ A1.T, "p_val": S0 @ a2, "du_dt": S1 @ (W[:, -1:] * A1.T),
            "grad_p": S1 @ (a2[:, None] * Wx), "jac_u": jac,
            "lap_u": S2 @ (np.sum(Wx * Wx, axis=1)[:, None] * A1.T),
            "div_u": jac.trace(axis1=1, axis2=2)}


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds, n=st.integers(1, 9))
def test_splitting_every_hidden_unit_leaves_the_field_and_the_bound(d, p, spec, seed, n):
    # The bound does not depend on the width: two copies of every unit, each
    # with half its heads, are the same network at twice the width.  The
    # fields agree to 1e-14 of their terms' size, the bound to 1e-14 of itself.
    weights = init_weights(d, p, seed=seed)
    split = PinnWeights(W=np.repeat(weights.W, 2, axis=0), A1=np.repeat(weights.A1, 2, axis=1) / 2,
                        a2=np.repeat(weights.a2, 2) / 2)
    Z = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, d + 1))
    fe, fe_split = fields(weights, spec, Z)[0], fields(split, spec, Z)[0]
    scales = field_scales(weights, spec, Z)
    for name, ref in vars(fe).items():
        assert np.all(np.abs(getattr(fe_split, name) - ref) <= 1e-14 * scales[name]), name
    ref, got = (generalization_bound(weight_stats(w), constants(spec), LossConfig(),
                                     N_r=64, N_0=100, C_z=1.0, C_z0=0.8) for w in (weights, split))
    for name in ("C1", "C2", "term_interior", "term_initial", "total"):
        assert abs(getattr(got, name) - getattr(ref, name)) <= 1e-14 * abs(getattr(ref, name)), name


@PROPERTY
@given(d=dims, p=widths, seed=seeds)
def test_a_zero_spatial_axis_leaves_the_weight_functionals(d, p, seed):
    # The sample complexity does not depend on the dimension: a spatial axis
    # that no unit reads (a zero column of W before t, a zero row of A1)
    # leaves every weight functional bit-identical.
    weights = init_weights(d, p, seed=seed)
    wider = PinnWeights(W=np.insert(weights.W, d, 0.0, axis=1),
                        A1=np.vstack([weights.A1, np.zeros(p)]), a2=weights.a2)
    assert wider.d == d + 1
    assert weight_stats(wider) == weight_stats(weights)


def colloc_for(seed, d, n_r, n_0):
    g = np.random.default_rng(seed)
    return CollocationSet(interior=g.uniform(-1, 1, (n_r, d + 1)),
                          initial=g.uniform(-1, 1, (n_0, d)), f0=f0_sin)


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
    Z = np.random.default_rng(seed).uniform(0, 2, (n, 3))
    batch = taylor_green_field(Z, nu)
    for i, z in enumerate(Z):
        one = taylor_green_field(z, nu)
        for name, val in vars(one).items():
            np.testing.assert_allclose(val, getattr(batch, name)[i],
                                       rtol=1e-14, atol=1e-15, err_msg=name)
    f0 = taylor_green_initial(nu)
    X = Z[:, :2]
    targets = f0(X)
    assert targets.shape == X.shape
    for x, row in zip(X, targets):
        np.testing.assert_allclose(f0(x), row, rtol=1e-14, atol=1e-15)
    # leading axes of any rank broadcast
    assert taylor_green_field(Z.reshape(n, 1, 3), nu).jac_u.shape == (n, 1, 2, 2)


@PROPERTY
@given(d=dims, p=widths, spec=families, seed=seeds,
       n_r=st.integers(1, 12), n_0=st.integers(1, 12))
def test_risk_breakdown_permutation_invariant(d, p, spec, seed, n_r, n_0):
    weights = init_weights(d, p, seed=seed)
    colloc = colloc_for(seed + 1, d, n_r, n_0)
    cfg = LossConfig(delta=0.5, lambda0=1.2, lambda1=0.7, nu=0.03)
    base = risk_breakdown(weights, spec, cfg, colloc)
    g = np.random.default_rng(seed + 2)
    shuffled = CollocationSet(interior=colloc.interior[g.permutation(n_r)],
                              initial=colloc.initial[g.permutation(n_0)], f0=f0_sin)
    again = risk_breakdown(weights, spec, cfg, shuffled)
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
    G = grad_risk(weights, spec, cfg, colloc)
    h = 1e-6
    F = np.zeros_like(G)
    for i in range(p):
        for j in range(d + 1):
            for step in (h, -h):
                w = weights.copy()
                w.W[i, j] += step
                F[i, j] += np.sign(step) * risk_breakdown(w, spec, cfg, colloc).total
    F /= 2 * h
    scale = max(float(np.max(np.abs(F))), 1e-6)
    assert float(np.max(np.abs(G - F))) / scale < 1e-5


def reference_grad_risk(weights, spec, cfg, colloc):
    """dR/dW term by term over (N, p) arrays: the terms proportional to
    z_j, collected as alpha[n, q] * Z[n, j], then the terms of the
    explicit W entries inside the closed forms, then the t = 0 term."""
    W, A1, a2 = weights.W, weights.A1, weights.a2
    d = weights.d
    Z = colloc.interior
    fe, (_, s1, s2, s3) = fields(weights, spec, Z)
    u, jac = fe.u, fe.jac_u
    w_t, Wx = W[:, d], W[:, :d]
    rowsq = np.sum(Wx * Wx, axis=1)
    g = huber_grad(cfg.delta, momentum_residual(fe, cfg.nu))  # (N, d)
    gd = cfg.lambda0 * huber_grad(cfg.delta, fe.div_u)        # (N,)
    gA = g @ A1                                    # (N, p)
    t1 = np.einsum("nk,nkm->nm", g, jac)
    dvec = np.einsum("mq,qm->q", A1, Wx)           # divergence weights per unit
    alpha = (gA * w_t * s2
             + s1 * (t1 @ A1)
             + s2 * gA * (u @ Wx.T)
             + s2 * a2 * (g @ Wx.T)
             - cfg.nu * s3 * gA * rowsq
             + gd[:, None] * s2 * dvec)
    G = alpha.T @ Z
    G[:, d] += np.sum(gA * s1, axis=0)
    G[:, :d] += (s1 * gA).T @ u
    G[:, :d] += (s1.T @ g) * a2[:, None]
    G[:, :d] += -2.0 * cfg.nu * np.sum(gA * s2, axis=0)[:, None] * Wx
    G[:, :d] += np.sum(gd[:, None] * s1, axis=0)[:, None] * A1.T
    G /= colloc.n_interior
    Z0 = colloc.initial_spacetime
    fe0, (_, s1_0, _, _) = fields(weights, spec, Z0, derivatives=False)
    g0 = cfg.lambda1 * huber_grad(cfg.delta, fe0.u - colloc.targets)
    return G + ((g0 @ A1) * s1_0).T @ Z0 / colloc.n_initial


@settings(max_examples=60, derandomize=True, deadline=None)
@given(d=dims, p=st.integers(1, 12), spec=families, seed=seeds,
       n_r=st.integers(1, 30), n_0=st.integers(1, 30),
       delta=st.floats(0.05, 3.0), lambda0=st.floats(0.0, 2.0),
       lambda1=st.floats(0.0, 1.0), nu=st.floats(0.001, 0.5))
def test_grad_risk_matches_term_by_term_reference(d, p, spec, seed, n_r, n_0, delta,
                                                  lambda0, lambda1, nu):
    weights = init_weights(d, p, seed=seed)
    colloc = colloc_for(seed + 1, d, n_r, n_0)
    cfg = LossConfig(delta=delta, lambda0=lambda0, lambda1=lambda1, nu=nu)
    G = grad_risk(weights, spec, cfg, colloc)
    ref = reference_grad_risk(weights, spec, cfg, colloc)
    assert G.shape == ref.shape == (p, d + 1)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("family", ["tanh", "expnegrelu"])
@pytest.mark.parametrize("n_r, n_0, box", [(216, 500, UNIT_BOX), (216, 2500, FIGURE1_BOX)],
                         ids=["desk", "figure1"])
def test_grad_risk_matches_term_by_term_reference_at_run_sizes(family, n_r, n_0, box):
    # the sizes that train: width 64, and point sums long enough for blocked BLAS
    weights = init_weights(2, 64, seed=5)
    spec = ActivationSpec.from_name(family, 3)
    colloc = CollocationSet(sample_interior(n_r, box, 6), sample_initial(n_0, box[:-1], 7),
                            taylor_green_initial(0.01))
    G = grad_risk(weights, spec, LossConfig(), colloc)
    ref = reference_grad_risk(weights, spec, LossConfig(), colloc)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


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
