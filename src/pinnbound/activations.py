"""Scalar activation families with derivative stacks up to third order.

Supported families: tanh^k, sigmoid^k (k >= 1) and exp(-x)*relu(x)^k
(k >= 3).  tanh and sigmoid powers are handled through a polynomial
representation: if s = tanh(x) then ds/dx = 1 - s^2, so every derivative
of tanh^k is a polynomial in s, and similarly ds/dx = s(1 - s) for the
sigmoid.  This gives exact closed forms for sigma through sigma''',
which `eval_derivs` evaluates by Horner's rule from coefficients cached
per (family, k).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np


class Family(enum.Enum):
    TANH_POW = "tanh"
    SIGMOID_POW = "sigmoid"
    EXP_NEG_RELU_POW = "expnegrelu"


@dataclass(frozen=True)
class ActivationSpec:
    family: Family
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"exponent k must be >= 1, got {self.k}")
        if self.family is Family.EXP_NEG_RELU_POW and self.k < 3:
            raise ValueError("exp(-x)*relu(x)^k needs k >= 3 to be C^2 at 0")

    @classmethod
    def from_name(cls, name: str, k: int = 1) -> "ActivationSpec":
        return cls(Family(name), k)


@dataclass(frozen=True)
class SigmaConstants:
    """Lipschitz/bound constants of an activation, as consumed by the bound.

    L_sigma, L_sigma1, L_sigma2 are Lipschitz constants of sigma, sigma'
    and sigma''; B_sigma, B_sigma1 are sup bounds of |sigma| and |sigma'|;
    c0, c1, c2 are the values sigma(0), sigma'(0), sigma''(0).
    """

    L_sigma: float
    L_sigma1: float
    L_sigma2: float
    B_sigma: float
    B_sigma1: float
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        vals = [self.L_sigma, self.L_sigma1, self.L_sigma2, self.B_sigma, self.B_sigma1]
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("Lipschitz constants and sup bounds must be finite and >= 0")
        if abs(self.c0) > self.B_sigma + 1e-12 or abs(self.c1) > self.B_sigma1 + 1e-12:
            raise ValueError("values at 0 cannot exceed the sup bounds")


def _poly_shift_derivative(coeffs: dict, mode: str) -> dict:
    # One application of d/dx to a polynomial sum c_m s^m, where
    # d(s^m)/dx = m (s^{m-1} - s^{m+1}) for s = tanh and
    # d(s^m)/dx = m (s^m - s^{m+1}) for s = sigmoid.
    out: dict = {}
    for m, c in coeffs.items():
        if m == 0:
            continue
        if mode == "tanh":
            out[m - 1] = out.get(m - 1, 0.0) + m * c
            out[m + 1] = out.get(m + 1, 0.0) - m * c
        else:
            out[m] = out.get(m, 0.0) + m * c
            out[m + 1] = out.get(m + 1, 0.0) - m * c
    return out


@functools.lru_cache(maxsize=None)
def _stack_coefficients(family: Family, k: int) -> tuple:
    """Dense coefficients, highest degree first, of sigma..sigma''' as
    polynomials in s = tanh x or s = sigmoid x; for exp(-x)relu(x)^k, of
    e^x sigma^(n)(x) as polynomials in x > 0."""
    if family is Family.EXP_NEG_RELU_POW:
        # The n-th derivative of e^{-x} x^k is
        # e^{-x} * sum_j C(n,j) (-1)^{n-j} k!/(k-j)! x^{k-j}; for k >= 3 the
        # one-sided limits at 0 agree (all zero) through the third derivative.
        polys = [{k - j: math.comb(n, j) * (-1.0) ** (n - j) * math.perm(k, j)
                  for j in range(min(n, k) + 1)} for n in range(4)]
    else:
        polys = [{k: 1.0}]
        for _ in range(3):
            polys.append(_poly_shift_derivative(polys[-1], family.value))
    return tuple(tuple(float(p.get(m, 0.0)) for m in range(max(p), -1, -1)) for p in polys)


def _horner(coeffs: tuple, s: np.ndarray) -> np.ndarray:
    acc = np.full_like(s, coeffs[0])
    for c in coeffs[1:]:
        acc *= s
        acc += c
    return acc


def eval_derivs(spec: ActivationSpec, x):
    """Return (sigma, sigma', sigma'', sigma''') at x; accepts arrays."""
    x = np.asarray(x, dtype=float)
    coeffs = _stack_coefficients(spec.family, spec.k)
    if spec.family is Family.EXP_NEG_RELU_POW:
        pos = x > 0
        xp = np.where(pos, x, 1.0)
        e = np.exp(-xp)
        return tuple(np.where(pos, e * _horner(c, xp), 0.0) for c in coeffs)
    s = np.tanh(x) if spec.family is Family.TANH_POW else 1.0 / (1.0 + np.exp(-x))
    return tuple(_horner(c, s) for c in coeffs)


_TANH1 = SigmaConstants(L_sigma=1.0, L_sigma1=1.0, L_sigma2=2.0,
                        B_sigma=1.0, B_sigma1=1.0, c0=0.0, c1=1.0, c2=0.0)
_TANH3 = SigmaConstants(L_sigma=0.75, L_sigma1=1.4, L_sigma2=6.0,
                        B_sigma=1.0, B_sigma1=0.75, c0=0.0, c1=0.0, c2=0.0)


def constants(spec: ActivationSpec) -> SigmaConstants:
    """Constants for the bound.  tanh and tanh^3 use the tabulated values;
    every other family/exponent falls back to a grid estimate."""
    if spec.family is Family.TANH_POW and spec.k == 1:
        return _TANH1
    if spec.family is Family.TANH_POW and spec.k == 3:
        return _TANH3
    return estimate_constants(spec, grid_half_width=20.0, grid_step=1e-3)


def estimate_constants(spec: ActivationSpec, grid_half_width: float,
                       grid_step: float) -> SigmaConstants:
    """Estimate the constants numerically on a dense symmetric grid.

    Lipschitz constants are grid sups of the next-order derivative,
    inflated by 1%; sup bounds are plain grid sups; the values at zero
    are exact.  All families here decay or saturate, so the grid sup is
    an honest estimate once the grid covers the transition region.
    """
    if grid_half_width <= 0 or grid_step <= 0:
        raise ValueError("grid_half_width and grid_step must be > 0")
    xs = np.arange(-grid_half_width, grid_half_width + grid_step, grid_step)
    s0, s1, s2, s3 = eval_derivs(spec, xs)
    for arr in (s0, s1, s2, s3):
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite derivative value on the estimation grid")
    z0, z1, z2, _ = eval_derivs(spec, 0.0)
    return SigmaConstants(
        L_sigma=1.01 * float(np.max(np.abs(s1))),
        L_sigma1=1.01 * float(np.max(np.abs(s2))),
        L_sigma2=1.01 * float(np.max(np.abs(s3))),
        B_sigma=float(np.max(np.abs(s0))),
        B_sigma1=float(np.max(np.abs(s1))),
        c0=float(z0), c1=float(z1), c2=float(z2),
    )
