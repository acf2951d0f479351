import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aimrom.spectral import (
    SINE_DIRICHLET,
    SINE_PERIODIC_ODD,
    BasisSpec,
    Grid,
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


def test_reconstruct_takes_its_width_from_the_coefficients():
    g = uniform_grid(BasisSpec(SINE_DIRICHLET, 3), 65)
    assert reconstruct(np.array([1.0, 2.0]), g).shape == (65,)
    assert reconstruct(np.zeros((4, 5, 3)), g).shape == (4, 5, 65)
    assert np.array_equal(reconstruct([1.0, 2.0], g),
                          np.sin(g.points) + 2.0 * np.sin(2 * g.points))


def test_reconstruct_and_project_leave_their_inputs_alone():
    b = BasisSpec(SINE_DIRICHLET, 2)
    g = uniform_grid(b, 65)
    c = np.array([1.0, 2.0])
    u = reconstruct(c, g)
    u_before = u.copy()
    a = project(u, g, b)
    assert np.array_equal(c, [1.0, 2.0])
    assert np.array_equal(u, u_before)
    a[0] = 99.0
    assert np.array_equal(reconstruct(c, g), u_before)


def test_grid_rejects_decreasing_and_out_of_domain():
    with pytest.raises(ValueError):
        Grid(domain=(0.0, math.pi), points=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        Grid(domain=(0.0, math.pi), points=np.array([0.0, 4.0]))


def test_single_mode_reconstruction_matches_sine():
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(b, 65)
    assert np.allclose(reconstruct(np.array([0.0, 1.0, 0.0]), g), np.sin(2 * g.points),
                       atol=1e-14)


def test_projection_recovers_pure_mode():
    b = BasisSpec(SINE_PERIODIC_ODD, 8)
    g = uniform_grid(b, 65)
    vals = np.sin(5 * g.points)
    a = project(vals, g, b)
    expected = np.zeros(8)
    expected[4] = 1.0
    assert np.allclose(a, expected, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
    st.sampled_from([SINE_DIRICHLET, SINE_PERIODIC_ODD]),
)
def test_round_trip_project_reconstruct(coeffs, kind):
    b = BasisSpec(kind, 3)
    g = uniform_grid(b, 65)
    a = np.array(coeffs)
    back = project(reconstruct(a, g), g, b)
    assert np.allclose(back, a, atol=1e-10)


def test_round_trip_eight_modes_default_grid():
    rng = np.random.default_rng(0)
    b = BasisSpec(SINE_PERIODIC_ODD, 8)
    g = uniform_grid(b, 65)
    a = rng.uniform(-2, 2, 8)
    back = project(reconstruct(a, g), g, b)
    assert np.max(np.abs(back - a)) < 1e-10


def test_parseval_identity_on_grid():
    # ||u||_L2^2 = (pi/2) * sum a_k^2 on [0, pi]; value frozen from an
    # independent quadrature run.
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(b, 65)
    a = np.array([0.7, -0.3, 0.2])
    u = reconstruct(a, g)
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
        project(np.zeros(65), g, b)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([SINE_DIRICHLET, SINE_PERIODIC_ODD]),
    n_modes=st.sampled_from([2, 3, 8]),
    rows=st.integers(1, 6),
    data=st.data(),
)
def test_reconstruct_is_the_sine_matrix_product(kind, n_modes, rows, data):
    # The written fields and scores are these two products, S @ c for one
    # state and C @ S.T for a time series, so both must hold bit for bit.
    # BLAS computes a batch (gemm) and one state (gemv) with different
    # kernels, so a batch row may differ from the same state alone in the
    # last bit; it stays within the rounding bound of a length-n dot product.
    coeffs = data.draw(arrays(np.float64, (rows, n_modes), elements=st.floats(-5, 5)))
    g = uniform_grid(BasisSpec(kind, n_modes), 65)
    sines = np.sin(np.outer(g.points, np.arange(1, n_modes + 1)))
    batch = reconstruct(coeffs, g)
    assert batch.tobytes() == (coeffs @ sines.T).tobytes()
    assert reconstruct(coeffs[None], g).tobytes() == batch.tobytes()
    eps = np.finfo(float).eps
    for row, c in zip(batch, coeffs):
        one = reconstruct(c, g)
        assert one.tobytes() == (sines @ c).tobytes()
        assert np.all(np.abs(row - one) <= 2 * n_modes * eps * np.sum(np.abs(c)))
