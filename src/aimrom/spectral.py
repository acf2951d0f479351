"""Sine spectral bases and coefficient/grid transforms.

Two bases are supported:

* ``sine-dirichlet``: ``sin(k x)``, k = 1..n, on [0, pi] with homogeneous
  Dirichlet boundary conditions.  Squared norm of each mode is pi/2.
* ``sine-periodic-odd``: ``sin(k x)``, k = 1..n, on [0, 2 pi], the odd
  subspace of the periodic functions.  Squared norm of each mode is pi.

Norms use composite trapezoid quadrature.  On a uniform grid with both
endpoints included, trapezoid sums of ``cos(m x)`` vanish exactly for
0 < m < 2 * (number of intervals), so the L2 norm of a sine series of
n_modes modes is exact (up to roundoff) on a grid of at least
``2 * (2 * n_modes) + 1`` nodes; ``rom.PipelineConfig`` enforces that bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SINE_DIRICHLET",
    "SINE_PERIODIC_ODD",
    "BasisSpec",
    "Grid",
    "uniform_grid",
    "reconstruct",
    "grid_l2_norm",
]

SINE_DIRICHLET = "sine-dirichlet"
SINE_PERIODIC_ODD = "sine-periodic-odd"

_DOMAINS = {
    SINE_DIRICHLET: (0.0, math.pi),
    SINE_PERIODIC_ODD: (0.0, 2.0 * math.pi),
}


@dataclass(frozen=True)
class BasisSpec:
    """Sine basis identified by kind and mode count."""

    kind: str
    n_modes: int

    def __post_init__(self):
        if self.kind not in _DOMAINS:
            raise ValueError(f"unknown basis kind: {self.kind!r}")
        if not isinstance(self.n_modes, int) or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes!r}")

    @property
    def domain(self):
        return _DOMAINS[self.kind]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation nodes inside a domain."""

    domain: tuple
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        lo, hi = self.domain
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.shape[0] < 2:
            raise ValueError("grid needs at least two points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] < lo - 1e-12 or pts[-1] > hi + 1e-12:
            raise ValueError("grid points fall outside the domain")
        object.__setattr__(self, "points", pts.copy())
        object.__setattr__(self, "domain", (float(lo), float(hi)))

    @property
    def n_points(self):
        return self.points.shape[0]


def uniform_grid(basis, n_points=65):
    """Uniform grid spanning the basis domain, endpoints included.

    65 nodes (the default) keeps trapezoid norms exact for sine series of
    up to 16 modes, which covers every model used here.
    """
    lo, hi = basis.domain
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return Grid(domain=(lo, hi), points=np.linspace(lo, hi, n_points))


def reconstruct(coeffs, grid):
    """Evaluate sum_k a_k sin(k x), k = 1..n, at the grid nodes.

    coeffs is one state (n,) or a batch (..., n) of sine coefficients on the
    grid's domain; the result is (..., n_points).
    """
    c = np.asarray(coeffs, dtype=float)
    sines = np.sin(np.outer(grid.points, np.arange(1, c.shape[-1] + 1)))
    return c @ sines.T


def grid_l2_norm(values, grid):
    """Continuous L2 norm approximated by trapezoid quadrature on the grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.points.shape:
        raise ValueError("values must be sampled on the grid nodes")
    return math.sqrt(float(np.trapezoid(v * v, grid.points)))
