"""Reference implementations the tests check the library against."""

import numpy as np


def alpha3(a1, a2, nu):
    """Closed-form slaved third mode of the cubic reaction-diffusion model:
    (a1^3 - 3 a1 a2^2) / (4 (1 + 9 nu)), the backward-Euler slaving map at
    tau = 1 from two modes to three."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    return (a1**3 - 3.0 * a1 * a2**2) / (4.0 * (1.0 + 9.0 * nu))


def ks_rhs_quadrature(a, nu, n_nodes=8193):
    """KS right-hand side by an independent route: evaluate the PDE right
    side pointwise and project by composite trapezoid quadrature; the norm
    of sin(kx) on [0, 2 pi] is pi."""
    x = np.linspace(0.0, 2.0 * np.pi, n_nodes)
    k = np.arange(1, a.shape[0] + 1)
    sines = np.sin(np.outer(x, k))
    cosines = np.cos(np.outer(x, k))
    u = sines @ a
    u_x = cosines @ (k * a)
    u_xx = -(sines @ (k**2 * a))
    u_xxxx = sines @ (k**4 * a)
    rhs = -nu * (u * u_x + u_xx) - 4.0 * u_xxxx
    return np.trapezoid(rhs[:, None] * sines, x, axis=0) / np.pi
