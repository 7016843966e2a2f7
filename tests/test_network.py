import numpy as np
import pytest

from pinnbound import (ActivationSpec, PinnWeights, eval_derivs, field_eval,
                       init_weights, load_checkpoint, save_checkpoint)

from conftest import FAMILIES

TANH = ActivationSpec.from_name("tanh", 1)


def fd_field(weights, spec, z, h=1e-5):
    """Finite-difference oracle for every FieldEval entry."""
    d = weights.d

    def uv(pt):
        return field_eval(weights, spec, pt).u

    def pv(pt):
        return field_eval(weights, spec, pt).p_val

    def shift(j, s):
        out = np.array(z, dtype=float)
        out[j] += s
        return out

    du_dt = (uv(shift(d, h)) - uv(shift(d, -h))) / (2 * h)
    jac = np.stack([(uv(shift(m, h)) - uv(shift(m, -h))) / (2 * h)
                    for m in range(d)], axis=1)
    grad_p = np.array([(pv(shift(m, h)) - pv(shift(m, -h))) / (2 * h)
                       for m in range(d)])
    lap = sum((uv(shift(m, h)) - 2 * uv(z) + uv(shift(m, -h))) / h**2
              for m in range(d))
    return du_dt, jac, grad_p, lap


def test_single_unit_hand_case():
    # p = 1, d = 1: u = a tanh(w1 x + w2 t), all derivatives by hand
    w1, w2, a, b = 0.7, -0.3, 2.0, 1.5
    weights = PinnWeights(W=np.array([[w1, w2]]), A1=np.array([[a]]),
                          a2=np.array([b]))
    z = np.array([0.4, 0.9])
    pre = w1 * z[0] + w2 * z[1]
    s, s1, s2, _ = eval_derivs(TANH, pre)
    fe = field_eval(weights, TANH, z)
    assert abs(fe.u[0] - a * s) < 1e-15
    assert abs(fe.p_val - b * s) < 1e-15
    assert abs(fe.du_dt[0] - a * w2 * s1) < 1e-15
    assert abs(fe.jac_u[0, 0] - a * w1 * s1) < 1e-15
    assert abs(fe.grad_p[0] - b * w1 * s1) < 1e-15
    assert abs(fe.lap_u[0] - a * w1 * w1 * s2) < 1e-15
    assert abs(fe.div_u - fe.jac_u[0, 0]) < 1e-15


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
def test_field_eval_matches_finite_differences(spec, rng):
    for _ in range(8):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 6))
        weights = init_weights(d, p, seed=int(rng.integers(1 << 30)))
        z = rng.uniform(0.1, 1.0, d + 1)
        fe = field_eval(weights, spec, z)
        du_dt, jac, grad_p, lap = fd_field(weights, spec, z)
        assert np.allclose(fe.du_dt, du_dt, rtol=1e-6, atol=1e-7)
        assert np.allclose(fe.jac_u, jac, rtol=1e-6, atol=1e-7)
        assert np.allclose(fe.grad_p, grad_p, rtol=1e-6, atol=1e-7)
        assert np.allclose(fe.lap_u, lap, rtol=1e-4, atol=1e-4)
        assert abs(fe.div_u - np.trace(fe.jac_u)) == 0.0


def test_init_weights_deterministic_and_scaled():
    a = init_weights(2, 8, seed=3)
    b = init_weights(2, 8, seed=3)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.A1, b.A1)
    assert np.array_equal(a.a2, b.a2)
    c = init_weights(2, 8, seed=4)
    assert not np.array_equal(a.W, c.W)
    z = init_weights(2, 8, seed=3, w_scale=0.0)
    assert np.all(z.W == 0.0)
    assert np.array_equal(z.A1, a.A1)  # frozen layers ignore w_scale


def test_init_weights_scale_default():
    big = init_weights(2, 2000, seed=0)
    assert abs(np.std(big.W) - 1 / np.sqrt(3)) < 0.02


def test_shape_validation():
    with pytest.raises(ValueError):
        PinnWeights(W=np.zeros((3, 3)), A1=np.zeros((2, 4)), a2=np.zeros(3))
    with pytest.raises(ValueError):
        PinnWeights(W=np.zeros((3, 3)), A1=np.zeros((2, 3)), a2=np.zeros(4))
    with pytest.raises(ValueError):
        init_weights(0, 4, seed=0)
    weights = init_weights(2, 3, seed=0)
    with pytest.raises(ValueError):
        field_eval(weights, TANH, np.zeros(4))


def test_nonfinite_weights_rejected():
    W = np.zeros((3, 3))
    W[0, 0] = np.nan
    with pytest.raises(ValueError):
        PinnWeights(W=W, A1=np.zeros((2, 3)), a2=np.zeros(3))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    weights = init_weights(2, 6, seed=11)
    spec = ActivationSpec.from_name("sigmoid", 2)
    path = tmp_path / "ck.json"
    save_checkpoint(weights, spec, path)
    loaded, loaded_spec = load_checkpoint(path)
    assert loaded_spec == spec
    assert np.array_equal(loaded.W, weights.W)
    assert np.array_equal(loaded.A1, weights.A1)
    assert np.array_equal(loaded.a2, weights.a2)
    # saving the loaded weights reproduces the file byte for byte
    path2 = tmp_path / "ck2.json"
    save_checkpoint(loaded, loaded_spec, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_text('{"d": 2}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_nan(tmp_path):
    weights = init_weights(2, 3, seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(weights, ActivationSpec.from_name("tanh", 1), path)
    doc = path.read_text().replace(repr(float(weights.W[0][0])), "NaN", 1)
    assert "NaN" in doc
    path.write_text(doc)
    with pytest.raises(ValueError):
        load_checkpoint(path)
