"""Galerkin vector fields: reaction-diffusion (cubic), flame-front (quadratic), toy two-scale.

All right-hand sides are autonomous and act on plain coefficient vectors.
Batched input is accepted everywhere: shape (..., dim) in, (..., dim) out.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "VectorField",
    "chafee_rhs_2",
    "chafee_rhs_3",
    "ks_rhs",
    "ks_rhs_3",
    "ks_rhs_8",
    "toy_rhs",
    "chafee_field",
    "ks_field",
    "toy_field",
]


@dataclass(frozen=True)
class VectorField:
    """Autonomous vector field: eval maps (..., dim) -> (..., dim)."""

    dim: int
    eval: callable
    name: str = ""


def chafee_rhs_3(a, nu):
    """Three-mode sine Galerkin truncation of u_t = nu*u_xx + u - u^3 on [0, pi].

    Cubic terms come from exact projection of u^3 onto sin(kx), k = 1..3.
    """
    a = np.asarray(a, dtype=float)
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    d1 = (
        (1.0 - nu) * a1
        - 0.75 * a1**3
        - 1.5 * a1 * a2**2
        + 0.75 * a1**2 * a3
        - 0.75 * a2**2 * a3
        - 1.5 * a1 * a3**2
    )
    d2 = (
        (1.0 - 4.0 * nu) * a2
        - 1.5 * a1**2 * a2
        - 0.75 * a2**3
        - 1.5 * a1 * a2 * a3
        - 1.5 * a2 * a3**2
    )
    d3 = (
        (1.0 - 9.0 * nu) * a3
        + 0.25 * a1**3
        - 0.75 * a1 * a2**2
        - 1.5 * a1**2 * a3
        - 1.5 * a2**2 * a3
        - 0.75 * a3**3
    )
    return np.stack([d1, d2, d3], axis=-1)


def chafee_rhs_2(a, nu):
    """Two-mode truncation; equals the first two components of the 3-mode system at a3 = 0."""
    a = np.asarray(a, dtype=float)
    a1, a2 = a[..., 0], a[..., 1]
    d1 = (1.0 - nu) * a1 - 0.75 * a1**3 - 1.5 * a1 * a2**2
    d2 = (1.0 - 4.0 * nu) * a2 - 1.5 * a1**2 * a2 - 0.75 * a2**3
    return np.stack([d1, d2], axis=-1)


@lru_cache(maxsize=None)
def _ks_quadratic_tensor(m):
    # C[k] with N_k(a) = a . C[k] . a, from projecting u*u_x onto sin(kx)
    # on the odd-periodic [0, 2 pi] basis:
    #   N_k = (k/4) sum_{j=1}^{k-1} a_j a_{k-j}  -  (k/2) sum_{j=1}^{m-k} a_j a_{j+k}
    c = np.zeros((m, m, m))
    for k in range(1, m + 1):
        for j in range(1, k):
            c[k - 1, j - 1, k - j - 1] += k / 4.0
        for j in range(1, m - k + 1):
            c[k - 1, j - 1, j + k - 1] -= k / 2.0
    return c


def ks_rhs(a, nu):
    """Sine Galerkin truncation of u_t = -nu*(u*u_x + u_xx) - 4*u_xxxx, odd-periodic on [0, 2 pi].

    Linear part is diag(nu*k^2 - 4*k^4); the quadratic part is the exact
    projection of u*u_x.  Mode count is taken from the input length.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[-1]
    k = np.arange(1, m + 1)
    c = _ks_quadratic_tensor(m)
    nonlinear = np.einsum("...i,kij,...j->...k", a, c, a)
    return (nu * k**2 - 4.0 * k**4) * a - nu * nonlinear


def ks_rhs_8(a, nu):
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 8:
        raise ValueError("ks_rhs_8 expects 8 modes")
    return ks_rhs(a, nu)


def ks_rhs_3(a, nu):
    """First three components of the 8-mode field restricted to the leading modes.

    For k <= 3 every quadratic interaction with modes 4..8 involves a factor
    from the zero-padded tail, so the 3-mode truncation is self-contained.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError("ks_rhs_3 expects 3 modes")
    return ks_rhs(a, nu)


def toy_rhs(z, epsilon):
    """Two-scale system: x' = 2 - x - y, y' = (x^2 - y) / epsilon.

    The fast variable is slaved to the parabola y = x^2, so reduced
    coordinates of sampled states carry a genuinely quadratic relation.
    (1, 1) is the stable fixed point.
    """
    z = np.asarray(z, dtype=float)
    x, y = z[..., 0], z[..., 1]
    return np.stack([2.0 - x - y, (x * x - y) / epsilon], axis=-1)


def chafee_field(n_modes, nu):
    if n_modes == 3:
        return VectorField(3, lambda a: chafee_rhs_3(a, nu), name=f"chafee-3(nu={nu})")
    if n_modes == 2:
        return VectorField(2, lambda a: chafee_rhs_2(a, nu), name=f"chafee-2(nu={nu})")
    raise ValueError("chafee_field supports 2 or 3 modes")


def ks_field(n_modes, nu):
    if n_modes not in (3, 8):
        raise ValueError("ks_field supports 3 or 8 modes")

    def rhs(a):
        a = np.asarray(a, dtype=float)
        if a.shape[-1] != n_modes:
            raise ValueError(f"state dimension does not match field dim {n_modes}")
        return ks_rhs(a, nu)

    return VectorField(n_modes, rhs, name=f"ks-{n_modes}(nu={nu})")


def toy_field(epsilon):
    return VectorField(2, lambda z: toy_rhs(z, epsilon), name=f"toy(eps={epsilon})")
