"""Approximate inertial manifolds: the backward-Euler slaving map and post-processing.

Every Galerkin model of models.MODELS is split as da/dt + A a + F(a) = 0,
with A the dissipative diagonal the model declares (its `dissipation`) and
F(a) = -rhs(a) - A a the rest.  Split the first n_low modes p from the high
modes q; one backward Euler step of length tau of the high-mode equation
from q = 0 gives the slaving map

    phi(p) = -tau * (I + tau * A_q)^(-1) * Q F(p),

where A_q is the diagonal high-mode block of A and Q F(p) the high-mode
components of F on the zero-padded low state.  A_q must be positive: a
slaved mode has to be linearly damped.  Post-processing (Garcia-Archilla,
Novo & Titi) integrates the truncated low system as usual and applies the
slaving map once, at the final time, to append the high modes.
"""

from dataclasses import dataclass

import numpy as np

from . import NumericalFailure
from .models import MODELS, analytic_field

__all__ = [
    "Closure",
    "euler_galerkin_closure",
    "zero_closure",
    "postprocess",
]


@dataclass(frozen=True)
class Closure:
    """Appends n_high slaved coefficients to an n_low reduced state."""

    n_low: int
    n_high: int
    map: callable

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != self.n_low:
            raise ValueError(f"low state must have {self.n_low} components")
        out = np.asarray(self.map(p), dtype=float)
        if out.shape[-1] != self.n_high:
            raise ValueError("closure map returned the wrong number of modes")
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("closure output is not finite")
        return out


def euler_galerkin_closure(model, n_low, n_full, nu, tau=1.0):
    """The slaving map of MODELS[model] from its first n_low of n_full modes.

    Raises ValueError for an n_low outside 1..n_full-1, a tau <= 0, or a
    slaved mode whose A is not positive.
    """
    if model not in MODELS:
        raise ValueError(f"the slaving map needs a Galerkin model: one of {', '.join(MODELS)}")
    if not 1 <= n_low < n_full:
        raise ValueError(f"need 1 <= n_low < n_full, got n_low {n_low} and n_full {n_full}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    field = analytic_field(model, n_full, nu)
    lam = MODELS[model].dissipation(np.arange(1, n_full + 1), nu)
    lam_high = lam[n_low:]
    for k, a in zip(range(n_low + 1, n_full + 1), lam_high):
        if a <= 0:
            raise ValueError(f"{model}: slaved mode k = {k} has A = {a:g}, not positive; "
                             "the slaving map needs every slaved mode linearly damped")

    def phi(p):
        padded = np.zeros(p.shape[:-1] + (n_full,))
        padded[..., :n_low] = p
        f_high = (-field.eval(padded) - lam * padded)[..., n_low:]
        return -tau * f_high / (1.0 + tau * lam_high)

    return Closure(n_low=n_low, n_high=n_full - n_low, map=phi)


def zero_closure(n_low, n_high):
    """Plain truncation control arm: appended modes are identically zero."""

    def zeros(p):
        return np.zeros(p.shape[:-1] + (n_high,))

    return Closure(n_low=n_low, n_high=n_high, map=zeros)


def postprocess(p, closure):
    """Append the closure's slaved high modes to an integrated low state p.

    The low coefficients pass through untouched; only the tail is new.
    """
    p = np.asarray(p, dtype=float)
    return np.concatenate([p, closure(p)], axis=-1)
