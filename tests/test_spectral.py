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
    reconstruct,
    uniform_grid,
)


def test_basis_domains_and_norms():
    b1 = BasisSpec(SINE_DIRICHLET, 3)
    assert b1.domain == (0.0, math.pi)
    g1 = uniform_grid(b1, 65)
    assert grid_l2_norm(np.sin(g1.points), g1) ** 2 == pytest.approx(math.pi / 2, abs=1e-14)
    b2 = BasisSpec(SINE_PERIODIC_ODD, 8)
    assert b2.domain == (0.0, 2 * math.pi)
    g2 = uniform_grid(b2, 65)
    assert grid_l2_norm(np.sin(g2.points), g2) ** 2 == pytest.approx(math.pi, abs=1e-14)


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


def test_reconstruct_leaves_its_input_alone():
    g = uniform_grid(BasisSpec(SINE_DIRICHLET, 2), 65)
    c = np.array([1.0, 2.0])
    u = reconstruct(c, g)
    u_before = u.copy()
    u[0] = 99.0
    assert np.array_equal(c, [1.0, 2.0])
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


def test_parseval_identity_on_grid():
    # ||u||_L2^2 = (pi/2) * sum a_k^2 on [0, pi]; value frozen from an
    # independent quadrature run.
    b = BasisSpec(SINE_DIRICHLET, 3)
    g = uniform_grid(b, 65)
    a = np.array([0.7, -0.3, 0.2])
    u = reconstruct(a, g)
    assert abs(grid_l2_norm(u, g) ** 2 - 0.9738937226128359) < 1e-12
    assert abs(grid_l2_norm(u, g) ** 2 - (math.pi / 2) * np.sum(a**2)) < 1e-12


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
