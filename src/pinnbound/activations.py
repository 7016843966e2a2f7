"""Scalar activation families with derivative stacks up to third order.

Supported families: tanh^k, sigmoid^k (k >= 1) and exp(-x)*relu(x)^k
(k >= 3).  If s = tanh(x) then ds/dx = 1 - s^2, so every derivative of
tanh^k is a polynomial in s; ds/dx = s(1 - s) for the sigmoid, and every
derivative of e^{-x} x^k is e^{-x} times a polynomial in x.
`eval_derivs` fills one power basis per block of points (s^j, or
e^{-r} r^j with r = max(x, 0)) and gets all four levels from one matmul
with coefficients cached per (family, k); `exact_constants` reads the
bound constants off the same polynomials.
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
        if type(self.k) is not int or self.k < 1:     # not a bool, a float or a string
            raise ValueError(f"exponent k must be an integer >= 1, got {self.k!r}")
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


# ds/dx as a polynomial in s, highest degree first.
_DS_DX = {Family.TANH_POW: (-1.0, 0.0, 1.0), Family.SIGMOID_POW: (-1.0, 1.0, 0.0)}


@functools.lru_cache(maxsize=None)
def _stack_coefficients(family: Family, k: int) -> tuple:
    """Dense coefficients, highest degree first, of sigma..sigma'''' as
    polynomials in s = tanh x or s = sigmoid x; for exp(-x)relu(x)^k, of
    e^x sigma^(n)(x) as polynomials in x > 0.

    One recurrence builds every stack: q_{n+1} = q_n'(s) ds/dx, or
    q_{n+1} = q_n' - q_n for exp(-x)relu(x)^k since (e^{-x} q)' =
    e^{-x} (q' - q); for k >= 3 its one-sided limits at 0 agree through
    sigma''.
    """
    polys = [np.eye(1, k + 1)[0]]  # s^k, or x^k
    for _ in range(4):
        dq = np.polyder(polys[-1])
        if family is Family.EXP_NEG_RELU_POW:
            polys.append(np.polysub(dq, polys[-1]))
        else:
            polys.append(np.polymul(dq, _DS_DX[family]))
    return tuple(tuple(float(c) for c in p) for p in polys)


# Points per power-basis block: keeps the basis cache-sized, and peak memory at the output's.
_BLOCK = 8192


@functools.lru_cache(maxsize=None)
def _level_matrix(family: Family, k: int) -> np.ndarray:
    """sigma..sigma''' over the power basis: (4, m + 1), lowest degree first."""
    polys = _stack_coefficients(family, k)[:4]
    width = max(map(len, polys))
    return np.array([p[::-1] + (0.0,) * (width - len(p)) for p in polys])


def eval_derivs(spec: ActivationSpec, x):
    """Return (sigma, sigma', sigma'', sigma''') at x; accepts arrays.  The
    levels are the rows of one (4, x.size) array: one matmul per basis block."""
    x = np.asarray(x, dtype=float)
    flat, C = x.reshape(-1), _level_matrix(spec.family, spec.k)
    out = np.empty((4, flat.size))
    basis = np.empty((C.shape[1], min(flat.size, _BLOCK)))
    for a in range(0, flat.size, _BLOCK):
        xb = flat[a:a + _BLOCK]
        b = basis[:, :xb.size]
        if spec.family is Family.EXP_NEG_RELU_POW:
            var = np.maximum(xb, 0.0)
            np.multiply(np.exp(-var, out=b[0]), var, out=b[1])
            b[0] *= xb > 0  # rows j >= 1 hold r^j = 0 there already
        else:
            b[0] = 1.0
            var = (np.tanh(xb, out=b[1]) if spec.family is Family.TANH_POW
                   else np.divide(1.0, 1.0 + np.exp(-xb), out=b[1]))
        for j in range(2, len(b)):
            np.multiply(b[j - 1], var, out=b[j])
        np.matmul(C, b, out=out[:, a:a + _BLOCK])
    return tuple(row.reshape(x.shape) for row in out)


_TANH_TABLES = {1: SigmaConstants(L_sigma=1.0, L_sigma1=1.0, L_sigma2=2.0,
                                  B_sigma=1.0, B_sigma1=1.0, c0=0.0, c1=1.0, c2=0.0),
                3: SigmaConstants(L_sigma=0.75, L_sigma1=1.4, L_sigma2=6.0,
                                  B_sigma=1.0, B_sigma1=0.75, c0=0.0, c1=0.0, c2=0.0)}


def constants(spec: ActivationSpec) -> SigmaConstants:
    """Constants for the bound.  tanh and tanh^3 use the paper's tables,
    which dominate the exact values; every other family/exponent uses
    `exact_constants`."""
    if spec.family is Family.TANH_POW and spec.k in _TANH_TABLES:
        return _TANH_TABLES[spec.k]
    return exact_constants(spec)


# Where each family's polynomials are evaluated: s = tanh x fills [-1, 1]
# and s = sigmoid x fills [0, 1]; exp(-x)relu(x)^k lives on x >= 0.
_RANGE = {Family.TANH_POW: (-1.0, 1.0), Family.SIGMOID_POW: (0.0, 1.0),
          Family.EXP_NEG_RELU_POW: (0.0, math.inf)}


def exact_constants(spec: ActivationSpec) -> SigmaConstants:
    """Constants of `spec` read off its derivative polynomials, exact up
    to float rounding.

    sup |sigma^(n)| is attained at an end of the range or at a real root
    of the next polynomial (exp(-x)relu(x)^k tends to 0 at infinity).
    The real parts of all roots inside the range are candidates: each
    lies in the domain, so none needs a tolerance, and a double root
    returned as a complex pair is still covered.  Raises OverflowError
    where a sup is not finite (exp(-x)relu(x)^k from k = 140 on).
    """
    polys = _stack_coefficients(spec.family, spec.k)
    lo, hi = _RANGE[spec.family]
    sups = []
    for q, dq in zip(polys, polys[1:]):
        roots = np.roots(dq).real
        s = np.append(roots[(roots >= lo) & (roots <= hi)], (lo, hi) if hi < math.inf else lo)
        e = np.exp(-s) if spec.family is Family.EXP_NEG_RELU_POW else 1.0
        sups.append(float(np.max(np.abs(e * np.polyval(q, s)))))
    if not all(map(math.isfinite, sups)):
        raise OverflowError(f"the constants of {spec.family.value}^{spec.k} are not finite")
    B0, B1, B2, B3 = sups
    z0, z1, z2, _ = eval_derivs(spec, 0.0)
    return SigmaConstants(L_sigma=B1, L_sigma1=B2, L_sigma2=B3, B_sigma=B0,
                          B_sigma1=B1, c0=float(z0), c1=float(z1), c2=float(z2))
