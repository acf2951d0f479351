import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimrom.spectral import (
    SINE_DIRICHLET,
    SINE_PERIODIC_ODD,
    BasisSpec,
    Grid,
    SpectralState,
    grid_l2_norm,
    project,
    reconstruct,
    uniform_grid,
)


def test_basis_domains_and_norms():
    b1 = BasisSpec(SINE_DIRICHLET, 3)
    assert b1.domain == (0.0, math.pi)
    assert b1.norm_const == math.pi / 2
    b2 = BasisSpec(SINE_PERIODIC_ODD, 8)
    assert b2.domain == (0.0, 2 * math.pi)
    assert b2.norm_const == math.pi


def test_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        BasisSpec("cosine", 3)
    with pytest.raises(ValueError):
        BasisSpec(SINE_DIRICHLET, 0)


def test_state_validates_length_and_finiteness():
    b = BasisSpec(SINE_DIRICHLET, 3)
    with pytest.raises(ValueError):
        SpectralState(b, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralState(b, np.array([1.0, np.nan, 0.0]))


def test_state_copies_coefficients():
    b = BasisSpec(SINE_DIRICHLET, 2)
    c = np.array([1.0, 2.0])
    s = SpectralState(b, c)
    c[0] = 99.0
    assert s.coeffs[0] == 1.0


def test_grid_rejects_decreasing_and_out_of_domain():
    with pytest.raises(ValueError):
        Grid(domain=(0.0, math.pi), points=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(domain=(0.0, math.pi), points=np.array([0.0, 4.0]))


def test_single_mode_reconstruction_matches_sine():
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(b, 65)
    s = SpectralState(b, np.array([0.0, 1.0, 0.0]))
    assert np.allclose(reconstruct(s, g), np.sin(2 * g.points), atol=1e-14)


def test_projection_recovers_pure_mode():
    b = BasisSpec(SINE_PERIODIC_ODD, 8)
    g = uniform_grid(b, 65)
    vals = np.sin(5 * g.points)
    s = project(vals, g, b)
    expected = np.zeros(8)
    expected[4] = 1.0
    assert np.allclose(s.coeffs, expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
    st.sampled_from([SINE_DIRICHLET, SINE_PERIODIC_ODD]),
)
def test_round_trip_project_reconstruct(coeffs, kind):
    b = BasisSpec(kind, 3)
    g = uniform_grid(b, 65)
    s = SpectralState(b, np.array(coeffs))
    back = project(reconstruct(s, g), g, b)
    assert np.allclose(back.coeffs, s.coeffs, atol=1e-10)


def test_round_trip_eight_modes_default_grid():
    rng = np.random.default_rng(0)
    b = BasisSpec(SINE_PERIODIC_ODD, 8)
    g = uniform_grid(b, 65)
    a = rng.uniform(-2, 2, 8)
    back = project(reconstruct(SpectralState(b, a), g), g, b)
    assert np.max(np.abs(back.coeffs - a)) < 1e-10


def test_parseval_identity_on_grid():
    # ||u||_L2^2 = (pi/2) * sum a_k^2 on [0, pi]; value frozen from an
    # independent quadrature run.
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(b, 65)
    a = np.array([0.7, -0.3, 0.2])
    u = reconstruct(SpectralState(b, a), g)
    assert abs(grid_l2_norm(u, g) ** 2 - 0.9738937226128359) < 1e-12
    assert abs(grid_l2_norm(u, g) ** 2 - (math.pi / 2) * np.sum(a**2)) < 1e-12


def test_projection_rejects_coarse_grid():
    b = BasisSpec(SINE_PERIODIC_ODD, 8)
    g = uniform_grid(b, 20)  # below 2*(2*8)+1 = 33
    with pytest.raises(ValueError):
        project(np.zeros(20), g, b)


def test_projection_rejects_domain_mismatch():
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(BasisSpec(SINE_PERIODIC_ODD, 3), 65)
    with pytest.raises(ValueError):
        reconstruct(SpectralState(b, np.zeros(3)), g)
