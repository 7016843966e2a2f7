import math

import numpy as np
import pytest

from pinnbound import (ActivationSpec, SigmaConstants, constants, eval_derivs,
                       exact_constants)
from pinnbound.activations import _stack_coefficients

from conftest import FAMILIES, central_diff


def test_tanh_values_at_zero():
    s0, s1, s2, s3 = eval_derivs(ActivationSpec.from_name("tanh", 1), 0.0)
    assert (s0, s1, s2, s3) == (0.0, 1.0, 0.0, -2.0)


def test_tanh_cubed_values_at_zero():
    s0, s1, s2, s3 = eval_derivs(ActivationSpec.from_name("tanh", 3), 0.0)
    assert (s0, s1, s2, s3) == (0.0, 0.0, 0.0, 6.0)


def test_sigmoid_values_at_zero():
    s0, s1, s2, s3 = eval_derivs(ActivationSpec.from_name("sigmoid", 1), 0.0)
    assert (s0, s1) == (0.5, 0.25)
    assert s2 == 0.0
    # sigma''' = sigma''(1 - 2 sigma) - 2 (sigma')^2 at 0 is -2 * 0.25^2
    assert abs(s3 - (-0.125)) < 1e-15


def test_tanh_matches_numpy():
    xs = np.linspace(-4, 4, 41)
    s0, s1, _, _ = eval_derivs(ActivationSpec.from_name("tanh", 1), xs)
    assert np.allclose(s0, np.tanh(xs), atol=1e-15)
    assert np.allclose(s1, 1.0 - np.tanh(xs) ** 2, atol=1e-15)


def test_powers_match_plain_power():
    xs = np.linspace(-3, 3, 31)
    for k in (2, 3, 5):
        s0 = eval_derivs(ActivationSpec.from_name("tanh", k), xs)[0]
        assert np.allclose(s0, np.tanh(xs) ** k, atol=1e-14)
        g0 = eval_derivs(ActivationSpec.from_name("sigmoid", k), xs)[0]
        assert np.allclose(g0, (1 / (1 + np.exp(-xs))) ** k, atol=1e-14)


def test_exp_neg_relu_base_values():
    spec = ActivationSpec.from_name("expnegrelu", 3)
    xs = np.array([-1.0, -0.1, 0.0])
    s = eval_derivs(spec, xs)
    for comp in s:
        assert np.all(comp == 0.0)
    s0, s1, _, _ = eval_derivs(spec, 2.0)
    assert abs(s0 - math.exp(-2) * 8) < 1e-14
    assert abs(s1 - math.exp(-2) * (3 * 4 - 8)) < 1e-14


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
def test_derivative_stack_consistency(spec, rng):
    # each level matches a central finite difference of the level below
    h = 1e-5
    xs = rng.uniform(-5, 5, 40)
    if spec.family.value == "expnegrelu":
        xs = np.abs(xs) + 2 * h  # the kink at 0 breaks symmetric differencing
    for lvl in range(3):
        f = lambda x: eval_derivs(spec, x)[lvl]
        exact = eval_derivs(spec, xs)[lvl + 1]
        approx = central_diff(f, xs, h)
        denom = np.maximum(np.abs(exact), 1e-8)
        assert np.max(np.abs(approx - exact) / denom) < 1e-6


def test_tabulated_tanh_constants():
    sc = constants(ActivationSpec.from_name("tanh", 1))
    assert (sc.L_sigma, sc.L_sigma1, sc.L_sigma2) == (1.0, 1.0, 2.0)
    assert (sc.B_sigma, sc.B_sigma1) == (1.0, 1.0)
    assert (sc.c0, sc.c1, sc.c2) == (0.0, 1.0, 0.0)
    sc3 = constants(ActivationSpec.from_name("tanh", 3))
    assert (sc3.L_sigma, sc3.L_sigma1, sc3.L_sigma2) == (0.75, 1.4, 6.0)
    assert (sc3.B_sigma, sc3.B_sigma1) == (1.0, 0.75)
    assert (sc3.c0, sc3.c1, sc3.c2) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family.value}^{s.k}")
def test_constants_dominate_samples(spec, rng):
    # sup bounds and Lipschitz constants hold on random pairs
    sc = constants(spec)
    xs = rng.uniform(-8, 8, 300)
    ys = rng.uniform(-8, 8, 300)
    s0x, s1x, s2x, _ = eval_derivs(spec, xs)
    s0y, s1y, s2y, _ = eval_derivs(spec, ys)
    tol = 1e-9
    assert np.max(np.abs(s0x)) <= sc.B_sigma + tol
    assert np.max(np.abs(s1x)) <= sc.B_sigma1 + tol
    gap = np.abs(xs - ys)
    assert np.all(np.abs(s0x - s0y) <= sc.L_sigma * gap + tol)
    assert np.all(np.abs(s1x - s1y) <= sc.L_sigma1 * gap + tol)
    assert np.all(np.abs(s2x - s2y) <= sc.L_sigma2 * gap + tol)


EXACT_SPECS = ([ActivationSpec.from_name(f, k) for f in ("tanh", "sigmoid")
                for k in range(1, 7)]
               + [ActivationSpec.from_name("expnegrelu", k) for k in range(3, 7)])

# each sup bound and Lipschitz constant is the sup of |sigma^(n)| for this n
_SUP_ORDER = {"B_sigma": 0, "B_sigma1": 1, "L_sigma": 1, "L_sigma1": 2, "L_sigma2": 3}


@pytest.mark.parametrize("spec", EXACT_SPECS, ids=lambda s: f"{s.family.value}^{s.k}")
def test_exact_constants_match_a_fine_grid(spec):
    # A grid max cannot exceed the true sup, and misses it by about the
    # step squared; the 1e-12 below it is float rounding, not slack.
    xs = np.concatenate([np.arange(-40.0, 40.0 + 5e-5, 1e-4), [-1e-12, 1e-12]])
    stack = eval_derivs(spec, xs)
    sc = exact_constants(spec)
    for field, n in _SUP_ORDER.items():
        grid_max = float(np.max(np.abs(stack[n])))
        assert grid_max * (1 - 1e-12) <= getattr(sc, field) <= grid_max * (1 + 1e-6), field
    assert (sc.c0, sc.c1, sc.c2) == tuple(float(v) for v in eval_derivs(spec, 0.0)[:3])


def test_exact_constants_closed_forms():
    tanh2 = exact_constants(ActivationSpec.from_name("tanh", 2))
    assert tanh2.L_sigma == pytest.approx(4 / (3 * math.sqrt(3)), abs=1e-12)
    sig = exact_constants(ActivationSpec.from_name("sigmoid", 1))
    assert sig.B_sigma1 == pytest.approx(0.25, abs=1e-12)
    assert sig.L_sigma1 == pytest.approx(1 / (6 * math.sqrt(3)), abs=1e-12)
    enr = exact_constants(ActivationSpec.from_name("expnegrelu", 3))
    assert enr.B_sigma == pytest.approx(27 * math.exp(-3), abs=1e-12)
    assert enr.L_sigma2 == pytest.approx(6.0, abs=1e-12)


# exact_constants as the Horner-rule evaluator computed them, as float.hex
# in SigmaConstants field order (L_sigma, L_sigma1, L_sigma2, B_sigma,
# B_sigma1, c0, c1, c2).
_PINNED_CONSTANTS = {
    ("tanh", 2): ("0x1.8a2345cc04426p-1", "0x1.0000000000000p+1", "0x1.057f25e89d21cp+2",
                  "0x1.0000000000000p+0", "0x1.8a2345cc04426p-1", "0x0.0p+0", "0x0.0p+0",
                  "0x1.0000000000000p+1"),
    ("sigmoid", 2): ("0x1.2f684bda12f68p-2", "0x1.3b830f42b7c0bp-3", "0x1.9dbe3d4b4fce0p-3",
                     "0x1.0000000000000p+0", "0x1.2f684bda12f68p-2", "0x1.0000000000000p-2",
                     "0x1.0000000000000p-2", "0x1.0000000000000p-3"),
    ("sigmoid", 6): ("0x1.5c131e0dd9d77p-2", "0x1.e2140fc49032ap-3", "0x1.4575c89ec5acap-2",
                     "0x1.0000000000000p+0", "0x1.5c131e0dd9d77p-2", "0x1.0000000000000p-6",
                     "0x1.8000000000000p-5", "0x1.e000000000000p-4"),
    ("expnegrelu", 3): ("0x1.913592657b139p-1", "0x1.02534d97cbe5ap+0", "0x1.8000000000000p+2",
                        "0x1.5820d2cce6514p+0", "0x1.913592657b139p-1", "0x0.0p+0", "0x0.0p+0",
                        "0x0.0p+0"),
}


@pytest.mark.parametrize("name, k", list(_PINNED_CONSTANTS))
def test_exact_constants_pinned(name, k):
    sc = exact_constants(ActivationSpec.from_name(name, k))
    got = [float(v) for v in vars(sc).values()]
    pinned = [float.fromhex(h) for h in _PINNED_CONSTANTS[name, k]]
    assert got == pytest.approx(pinned, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_tanh_tables_dominate_exact_constants(k):
    spec = ActivationSpec.from_name("tanh", k)
    table, exact = constants(spec), exact_constants(spec)
    for field in _SUP_ORDER:
        # rounding again: tanh^3's L_sigma can compute to 0.7500000000000001
        assert getattr(table, field) >= getattr(exact, field) * (1 - 1e-12), field
    assert (table.c0, table.c1, table.c2) == (exact.c0, exact.c1, exact.c2)


# Dense stacks sigma..sigma''' as the earlier per-family code built them
# (a dict recurrence for tanh^k and sigmoid^k, binomial sums for
# exp(-x)relu(x)^k).
_EARLIER_STACKS = {
    ("tanh", 3): ((1.0, 0.0, 0.0, 0.0), (-3.0, 0.0, 3.0, 0.0, 0.0),
                  (12.0, 0.0, -18.0, 0.0, 6.0, 0.0),
                  (-60.0, 0.0, 114.0, 0.0, -60.0, 0.0, 6.0)),
    ("sigmoid", 2): ((1.0, 0.0, 0.0), (-2.0, 2.0, 0.0, 0.0), (6.0, -10.0, 4.0, 0.0, 0.0),
                     (-24.0, 54.0, -38.0, 8.0, 0.0, 0.0)),
    ("expnegrelu", 3): ((1.0, 0.0, 0.0, 0.0), (-1.0, 3.0, 0.0, 0.0), (1.0, -6.0, 6.0, 0.0),
                        (-1.0, 9.0, -18.0, 6.0)),
}


@pytest.mark.parametrize("name, k", list(_EARLIER_STACKS))
def test_stack_coefficients_equal_earlier_stacks_bit_for_bit(name, k):
    spec = ActivationSpec.from_name(name, k)
    as_hex = lambda polys: [[c.hex() for c in p] for p in polys]  # tells -0.0 from 0.0
    assert as_hex(_stack_coefficients(spec.family, k)[:4]) == as_hex(_EARLIER_STACKS[name, k])


def test_estimated_exp_neg_relu_constants_finite():
    sc = constants(ActivationSpec.from_name("expnegrelu", 3))
    assert all(math.isfinite(v) and v > 0 for v in
               (sc.L_sigma, sc.L_sigma1, sc.L_sigma2, sc.B_sigma, sc.B_sigma1))
    assert (sc.c0, sc.c1, sc.c2) == (0.0, 0.0, 0.0)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ActivationSpec.from_name("tanh", 0)
    with pytest.raises(ValueError):
        ActivationSpec.from_name("expnegrelu", 2)
    with pytest.raises(ValueError):
        ActivationSpec.from_name("relu", 1)


def test_sigma_constants_validation():
    with pytest.raises(ValueError):
        SigmaConstants(L_sigma=-1, L_sigma1=1, L_sigma2=1,
                       B_sigma=1, B_sigma1=1, c0=0, c1=0, c2=0)
    with pytest.raises(ValueError):
        SigmaConstants(L_sigma=1, L_sigma1=1, L_sigma2=1,
                       B_sigma=0.5, B_sigma1=1, c0=0.9, c1=0, c2=0)
