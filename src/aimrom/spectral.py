"""Sine series on [0, L] and their values on grids of nodes.

A state is the coefficient vector of sum_k a_k sin(k x), k = 1..n, on a
domain [0, L] that each model declares (models.MODELS: L = pi for the
Dirichlet problem, 2 pi for the odd subspace of the periodic one).  Each
mode's squared norm is L/2.  A grid is a plain array of nodes in [0, L].

Norms use composite trapezoid quadrature.  On a uniform grid with both
endpoints included, trapezoid sums of ``cos(m x)`` vanish exactly for
0 < m < 2 * (number of intervals), so the L2 norm of a sine series of
n_modes modes is exact (up to roundoff) on a grid of at least
``2 * (2 * n_modes) + 1`` nodes; ``rom.PipelineConfig`` enforces that bound.
"""

import math

import numpy as np

__all__ = ["uniform_grid", "reconstruct", "grid_l2_norm"]


def uniform_grid(length, n_points=65):
    """n_points uniform nodes on [0, length], endpoints included.

    65 nodes (the default) keeps trapezoid norms exact for sine series of
    up to 16 modes, which covers every model used here.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return np.linspace(0.0, length, n_points)


def reconstruct(coeffs, grid):
    """Evaluate sum_k a_k sin(k x), k = 1..n, at the grid nodes.

    coeffs is one state (n,) or a batch (..., n) of sine coefficients; the
    result is (..., n_points).
    """
    c = np.asarray(coeffs, dtype=float)
    sines = np.sin(np.outer(grid, np.arange(1, c.shape[-1] + 1)))
    return c @ sines.T


def grid_l2_norm(values, grid):
    """Continuous L2 norm approximated by trapezoid quadrature on the grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise ValueError("values must be sampled on the grid nodes")
    return math.sqrt(float(np.trapezoid(v * v, grid)))
