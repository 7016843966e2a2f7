"""Depth-2 network for the (d+1)-dimensional incompressible flow problem.

The network maps z = (x_1..x_d, t) to a velocity u = A1 @ sigma(W z) and
a pressure p = <a2, sigma(W z)>.  Only W trains; A1 and a2 stay frozen.
All space-time derivatives are sigma' and sigma'' of the pre-activations
times the per-unit tables of `coefficient_tables`; `fields` is the one place
they are evaluated; `field_eval` is its view over points with any leading axes.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .activations import ActivationSpec, eval_derivs


@dataclass
class PinnWeights:
    """W is p x (d+1) and trainable; A1 (d x p) and a2 (p,) are frozen.

    The last column of W multiplies time; column m < d multiplies x_m.
    """

    W: np.ndarray
    A1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.A1 = np.asarray(self.A1, dtype=float)
        self.a2 = np.asarray(self.a2, dtype=float)
        p, dp1 = self.W.shape
        d = dp1 - 1
        if self.A1.shape != (d, p) or self.a2.shape != (p,):
            raise ValueError(
                f"inconsistent shapes: W {self.W.shape}, A1 {self.A1.shape}, a2 {self.a2.shape}"
            )
        for arr in (self.W, self.A1, self.a2):
            if not np.all(np.isfinite(arr)):
                raise ValueError("weights must be finite")

    @property
    def d(self) -> int:
        return self.W.shape[1] - 1

    @property
    def p(self) -> int:
        return self.W.shape[0]

    def copy(self) -> "PinnWeights":
        return PinnWeights(self.W.copy(), self.A1.copy(), self.a2.copy())


@dataclass
class FieldEval:
    """All derivatives of a velocity/pressure field at one space-time point.
    A field at N points has the same entries with a leading N axis."""

    u: np.ndarray        # (d,) velocity
    p_val: float
    du_dt: np.ndarray    # (d,)
    jac_u: np.ndarray    # (d, d), entry [k, m] = d u_k / d x_m
    grad_p: np.ndarray   # (d,)
    lap_u: np.ndarray    # (d,)
    div_u: float

    def rows(self) -> Iterator["FieldEval"]:
        """The one-point fields of a field over N points, as row views made lazily."""
        return (FieldEval(*vals) for vals in zip(*vars(self).values()))


def coefficient_tables(weights: PinnWeights) -> tuple[np.ndarray, np.ndarray]:
    """The per-unit coefficients of the derivatives: H (p, 2d + d^2) multiplies sigma' into
    [du_dt | grad_p | jac_u], jac_u[k, m] at 2d + k*d + m, and L (p, d) sigma'' into lap_u."""
    W, A1, d = weights.W, weights.A1, weights.d
    Wx = W[:, :d]
    H = np.concatenate([W[:, d:] * A1.T, weights.a2[:, None] * Wx,
                        (A1.T[:, :, None] * Wx[:, None, :]).reshape(-1, d * d)], axis=1)
    return H, (Wx * Wx).sum(axis=1, keepdims=True) * A1.T


def fields(weights: PinnWeights, spec: ActivationSpec, Z,
           derivatives: bool = True) -> tuple[FieldEval, tuple]:
    """Closed-form field at each row of Z (N, d+1): values and the space-time
    derivatives the residuals need, plus the activation stack sigma..sigma'''
    at the pre-activations, each (N, p), which the W-gradient reuses.
    With derivatives=False only u and p_val are built (the initial-condition
    term reads nothing else) and the other entries are None."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != weights.d + 1:
        raise ValueError(f"points have shape {Z.shape}, expected (N, {weights.d + 1})")
    d = weights.d
    stack = eval_derivs(spec, Z @ weights.W.T)
    s0, s1, s2, _ = stack
    u, p_val = s0 @ weights.A1.T, s0 @ weights.a2
    if not derivatives:
        return FieldEval(u, p_val, None, None, None, None, None), stack
    H, L = coefficient_tables(weights)
    first = s1 @ H
    jac = first[:, 2 * d:].reshape(-1, d, d)
    return FieldEval(u=u, p_val=p_val, du_dt=first[:, :d], jac_u=jac, grad_p=first[:, d:2 * d],
                     lap_u=s2 @ L, div_u=jac.trace(axis1=1, axis2=2)), stack


def field_eval(weights: PinnWeights, spec: ActivationSpec, z) -> FieldEval:
    """The field at points z (..., d+1) from one `fields` call, every entry
    leading with the axes of z before its last; one point (d+1,) gives one."""
    z = np.asarray(z, dtype=float)
    if z.ndim < 1 or z.shape[-1] != weights.d + 1:
        raise ValueError(f"points have shape {z.shape}, expected (..., {weights.d + 1})")
    fe, _ = fields(weights, spec, z.reshape(-1, weights.d + 1))
    # [()] turns the 0-d entries of a one-point field into scalars
    return FieldEval(**{name: val.reshape(z.shape[:-1] + val.shape[1:])[()]
                        for name, val in vars(fe).items()})


def init_weights(d: int, p: int, seed: int, w_scale: float | None = None) -> PinnWeights:
    """Gaussian initialization: A1, a2 standard normal; W scaled by w_scale
    (default 1/sqrt(d+1), which keeps pre-activations O(1) on the unit box)."""
    if d < 1 or p < 1:
        raise ValueError("d and p must be >= 1")
    if w_scale is None:
        w_scale = 1.0 / np.sqrt(d + 1)
    rng = np.random.default_rng(seed)
    A1 = rng.standard_normal((d, p))
    a2 = rng.standard_normal(p)
    W = w_scale * rng.standard_normal((p, d + 1))
    return PinnWeights(W=W, A1=A1, a2=a2)


def save_checkpoint(weights: PinnWeights, spec: ActivationSpec, path) -> None:
    """Write a JSON checkpoint.  Floats use Python's shortest round-trip
    repr, so save -> load is bit-exact."""
    doc = {
        "d": weights.d,
        "p": weights.p,
        "activation": {"family": spec.family.value, "k": spec.k},
        "W": weights.W.tolist(),
        "A1": weights.A1.tolist(),
        "a2": weights.a2.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path) -> tuple[PinnWeights, ActivationSpec]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        d, p = doc["d"], doc["p"]
        spec = ActivationSpec.from_name(doc["activation"]["family"], doc["activation"]["k"])
        weights = PinnWeights(W=np.array(doc["W"], dtype=float),
                              A1=np.array(doc["A1"], dtype=float),
                              a2=np.array(doc["a2"], dtype=float))
        if weights.W.shape != (p, d + 1):
            raise ValueError(f"checkpoint shape mismatch: W is {weights.W.shape}, "
                             f"header says p={p!r}, d={d!r}")
    except (json.JSONDecodeError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint {path}: {exc}") from exc
    return weights, spec
