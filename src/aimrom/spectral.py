"""Sine series on [0, L] and their values on grids of nodes.

A state is the coefficient vector of sum_k a_k sin(k x), k = 1..n, on a
domain [0, L] that each model declares (models.MODELS: L = pi for the
Dirichlet problem, 2 pi for the odd subspace of the periodic one).  Each
mode's squared norm is L/2, so a series' L2 norm is sqrt(L/2) times its
coefficients' 2-norm (Parseval).  A grid is a plain array of nodes in [0, L].
"""

import numpy as np

__all__ = ["GRID_POINTS", "uniform_grid", "reconstruct"]

GRID_POINTS = 65  # the node count of a grid whose caller sets none


def uniform_grid(length, n_points=GRID_POINTS):
    """n_points uniform nodes on [0, length], endpoints included."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return np.linspace(0.0, length, n_points)


def reconstruct(coeffs, grid):
    """Evaluate sum_k a_k sin(k x), k = 1..n, at the grid nodes.

    coeffs is one state (n,) or a batch (..., n) of sine coefficients; the
    result is (..., n_points).  Each state is its own matrix-vector product,
    so a batch row has the bits of that state alone.
    """
    c = np.asarray(coeffs, dtype=float)
    sines = np.sin(np.outer(grid, np.arange(1, c.shape[-1] + 1)))
    return (sines @ c[..., None])[..., 0]
