"""Approximate inertial manifolds: backward-Euler closure and post-processing.

For an evolution equation du/dt + A u + F(u) = 0 split into low modes p
(first n_low) and high modes q, one backward Euler step of the high-mode
equation from q = 0 gives the slaving map

    phi(p) = -tau * (I + tau * A_q)^(-1) * Q F(p),

where A_q is the diagonal high-mode block of A and Q F(p) the high-mode
components of the nonlinearity evaluated on the zero-padded low state.
Post-processing integrates the truncated low system as usual and applies
the slaving map once, at the final time, to append the high modes.
"""

from dataclasses import dataclass, field

import numpy as np

from .models import chafee_rhs_3
from .spectral import SpectralState

__all__ = [
    "EulerGalerkinConfig",
    "Closure",
    "euler_galerkin_phi",
    "chafee_aim_alpha3",
    "chafee_nonlinearity",
    "chafee_euler_galerkin_config",
    "euler_galerkin_closure",
    "zero_closure",
    "postprocess",
]


@dataclass(frozen=True)
class EulerGalerkinConfig:
    """Data for the backward-Euler slaving map.

    lam: all m_total eigenvalues of the (positive) dissipative operator A.
    nonlinearity: maps a full m_total coefficient vector to the coefficients
    of F(u), with the sign convention du/dt + A u + F(u) = 0.
    """

    lam: np.ndarray = field(repr=False)
    n_low: int = 2
    m_total: int = 3
    tau: float = 1.0
    nonlinearity: callable = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.shape[0] != self.m_total:
            raise ValueError("lam must hold m_total eigenvalues")
        if np.any(lam <= 0):
            raise ValueError("dissipative operator eigenvalues must be positive")
        if not (1 <= self.n_low < self.m_total):
            raise ValueError("need 1 <= n_low < m_total")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.nonlinearity is None:
            raise ValueError("nonlinearity is required")
        object.__setattr__(self, "lam", lam)


def euler_galerkin_phi(p, cfg):
    """Backward-Euler slaving map: high-mode coefficients slaved to p.

    Accepts a single low state (n_low,) or a batch (..., n_low).
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != cfg.n_low:
        raise ValueError(f"low state must have {cfg.n_low} components")
    padded = np.zeros(p.shape[:-1] + (cfg.m_total,))
    padded[..., : cfg.n_low] = p
    f_high = np.asarray(cfg.nonlinearity(padded), dtype=float)[..., cfg.n_low :]
    lam_high = cfg.lam[cfg.n_low :]
    return -cfg.tau * f_high / (1.0 + cfg.tau * lam_high)


def chafee_aim_alpha3(a1, a2, nu):
    """Closed-form slaved third mode for the cubic reaction-diffusion model.

    alpha3 = (a1^3 - 3 a1 a2^2) / (4 (1 + 9 nu)); identical to the
    backward-Euler map with tau = 1 and three retained modes.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    return (a1**3 - 3.0 * a1 * a2**2) / (4.0 * (1.0 + 9.0 * nu))


def chafee_nonlinearity(a, nu):
    """F coefficients for the 3-mode cubic model: F(a) = -rhs(a) - diag(nu k^2) a."""
    a = np.asarray(a, dtype=float)
    lam = nu * np.arange(1, 4) ** 2
    return -chafee_rhs_3(a, nu) - lam * a


def chafee_euler_galerkin_config(nu, tau=1.0):
    """Two low modes, one slaved mode, A = -nu * d2/dx2 on the sine basis."""
    lam = nu * np.arange(1, 4) ** 2
    return EulerGalerkinConfig(
        lam=lam,
        n_low=2,
        m_total=3,
        tau=tau,
        nonlinearity=lambda a: chafee_nonlinearity(a, nu),
    )


@dataclass(frozen=True)
class Closure:
    """Appends n_high slaved coefficients to an n_low reduced state."""

    n_low: int
    n_high: int
    map: callable

    def __call__(self, p):
        out = np.asarray(self.map(np.asarray(p, dtype=float)), dtype=float)
        if out.shape[-1] != self.n_high:
            raise ValueError("closure map returned the wrong number of modes")
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("closure output is not finite")
        return out


def euler_galerkin_closure(nu, tau=1.0):
    cfg = chafee_euler_galerkin_config(nu, tau)
    return Closure(
        n_low=cfg.n_low,
        n_high=cfg.m_total - cfg.n_low,
        map=lambda p: euler_galerkin_phi(p, cfg),
    )


def zero_closure(n_low, n_high):
    """Plain truncation control arm: appended modes are identically zero."""

    def zeros(p):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1] + (n_high,))

    return Closure(n_low=n_low, n_high=n_high, map=zeros)


def postprocess(low_state, closure):
    """Append slaved high modes to an integrated low-mode state.

    The low coefficients pass through untouched; only the tail is new.
    """
    if low_state.basis.n_modes != closure.n_low:
        raise ValueError("low state mode count does not match the closure")
    high = closure(low_state.coeffs)
    if high.ndim != 1:
        raise ValueError("postprocess expects a single state, not a batch")
    basis = type(low_state.basis)(
        kind=low_state.basis.kind, n_modes=closure.n_low + closure.n_high
    )
    return SpectralState(basis=basis, coeffs=np.concatenate([low_state.coeffs, high]))
