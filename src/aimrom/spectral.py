"""Sine spectral bases and coefficient/grid transforms.

Two bases are supported:

* ``sine-dirichlet``: ``sin(k x)``, k = 1..n, on [0, pi] with homogeneous
  Dirichlet boundary conditions.  Squared norm of each mode is pi/2.
* ``sine-periodic-odd``: ``sin(k x)``, k = 1..n, on [0, 2 pi], the odd
  subspace of the periodic functions.  Squared norm of each mode is pi.

Projection uses composite trapezoid quadrature.  On a uniform grid with
both endpoints included, trapezoid sums of ``cos(m x)`` vanish exactly
for 0 < m < 2 * (number of intervals), so projections of trigonometric
polynomials are exact (up to roundoff) once the grid is fine enough.
A grid with at least ``2 * (2 * n_modes) + 1`` nodes is exact for any
field whose mode content comes from quadratic products of the first
``n_modes`` modes; that bound is enforced here.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SINE_DIRICHLET",
    "SINE_PERIODIC_ODD",
    "BasisSpec",
    "SpectralState",
    "Grid",
    "uniform_grid",
    "reconstruct",
    "project",
    "grid_l2_norm",
]

SINE_DIRICHLET = "sine-dirichlet"
SINE_PERIODIC_ODD = "sine-periodic-odd"

_DOMAINS = {
    SINE_DIRICHLET: (0.0, math.pi),
    SINE_PERIODIC_ODD: (0.0, 2.0 * math.pi),
}

_NORM_CONSTS = {
    SINE_DIRICHLET: math.pi / 2.0,
    SINE_PERIODIC_ODD: math.pi,
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

    @property
    def norm_const(self):
        """Squared L2 norm of each basis mode, <sin kx, sin kx>."""
        return _NORM_CONSTS[self.kind]

    def wavenumbers(self):
        return np.arange(1, self.n_modes + 1)


@dataclass(frozen=True)
class SpectralState:
    """Coefficient vector attached to its basis."""

    basis: BasisSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coeffs must be one-dimensional")
        if c.shape[0] != self.basis.n_modes:
            raise ValueError(
                f"coefficient length {c.shape[0]} does not match basis n_modes {self.basis.n_modes}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c.copy())


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

    65 nodes (the default) keeps trapezoid projection exact for quadratic
    products of up to 16 modes, which covers every model used here.
    """
    lo, hi = basis.domain
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    return Grid(domain=(lo, hi), points=np.linspace(lo, hi, n_points))


def reconstruct(state, grid):
    """Evaluate sum_k a_k sin(k x) at the grid nodes."""
    _check_same_domain(state.basis, grid)
    k = state.basis.wavenumbers()
    # (n_points, n_modes) @ (n_modes,)
    return np.sin(np.outer(grid.points, k)) @ state.coeffs


def project(values, grid, basis):
    """Trapezoid-quadrature projection of grid samples onto a sine basis.

    a_k = <values, sin(k x)> / <sin(k x), sin(k x)>.  The grid must carry
    at least 2 * (2 * n_modes) + 1 nodes so that the quadrature is exact
    for fields produced by quadratic interactions of the basis modes.
    """
    _check_same_domain(basis, grid)
    v = np.asarray(values, dtype=float)
    if v.shape != grid.points.shape:
        raise ValueError("values must be sampled on the grid nodes")
    min_nodes = 2 * (2 * basis.n_modes) + 1
    if grid.n_points < min_nodes:
        raise ValueError(
            f"grid with {grid.n_points} nodes is too coarse for exact projection "
            f"onto {basis.n_modes} modes; need at least {min_nodes}"
        )
    k = basis.wavenumbers()
    sines = np.sin(np.outer(grid.points, k))  # (n_points, n_modes)
    coeffs = np.trapezoid(v[:, None] * sines, grid.points, axis=0) / basis.norm_const
    return SpectralState(basis=basis, coeffs=coeffs)


def grid_l2_norm(values, grid):
    """Continuous L2 norm approximated by trapezoid quadrature on the grid."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.points.shape:
        raise ValueError("values must be sampled on the grid nodes")
    return math.sqrt(float(np.trapezoid(v * v, grid.points)))


def _check_same_domain(basis, grid):
    blo, bhi = basis.domain
    glo, ghi = grid.domain
    if abs(blo - glo) > 1e-12 or abs(bhi - ghi) > 1e-12:
        raise ValueError(
            f"basis domain {(blo, bhi)} does not match grid domain {(glo, ghi)}"
        )
