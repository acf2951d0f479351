import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aimrom.models import MODELS
from aimrom.spectral import grid_l2_norm, reconstruct, uniform_grid

CHAFEE_GRID = uniform_grid(MODELS["chafee"].length, 65)


def test_basis_domains_and_norms():
    # Parseval below holds on any multiple of pi; the PDEs fix these two
    assert {name: m.length for name, m in MODELS.items()} == {"chafee": math.pi,
                                                             "ks": 2 * math.pi}
    for model in MODELS.values():
        length, n = model.length, model.n_full
        g = uniform_grid(length, 65)
        assert (g[0], g[-1], g.shape) == (0.0, length, (65,))
        assert grid_l2_norm(np.sin(g), g) ** 2 == pytest.approx(length / 2, abs=1e-14)
        # Parseval, ||u||^2 = (L/2) sum a_k^2, is exact at the 4n + 1 node
        # bound only where the modes sin(kx) are orthogonal on [0, L]
        g = uniform_grid(length, 4 * n + 1)
        a = np.linspace(-1.0, 1.0, n) + 0.3
        assert grid_l2_norm(reconstruct(a, g), g) ** 2 == pytest.approx(
            (length / 2) * np.sum(a**2), rel=1e-13)
        with pytest.raises(ValueError, match="at least 2"):
            uniform_grid(length, 1)


def test_reconstruct_takes_its_width_from_the_coefficients():
    g = CHAFEE_GRID
    assert reconstruct(np.array([1.0, 2.0]), g).shape == (65,)
    assert reconstruct(np.zeros((4, 5, 3)), g).shape == (4, 5, 65)
    assert np.array_equal(reconstruct([1.0, 2.0], g),
                          np.sin(g) + 2.0 * np.sin(2 * g))


def test_reconstruct_leaves_its_input_alone():
    g = CHAFEE_GRID
    c = np.array([1.0, 2.0])
    u = reconstruct(c, g)
    u_before = u.copy()
    u[0] = 99.0
    assert np.array_equal(c, [1.0, 2.0])
    assert np.array_equal(reconstruct(c, g), u_before)


def test_single_mode_reconstruction_matches_sine():
    g = CHAFEE_GRID
    assert np.allclose(reconstruct(np.array([0.0, 1.0, 0.0]), g), np.sin(2 * g),
                       atol=1e-14)


def test_parseval_identity_on_grid():
    # ||u||_L2^2 = (pi/2) * sum a_k^2 on [0, pi]; value frozen from an
    # independent quadrature run.
    g = CHAFEE_GRID
    a = np.array([0.7, -0.3, 0.2])
    u = reconstruct(a, g)
    assert abs(grid_l2_norm(u, g) ** 2 - 0.9738937226128359) < 1e-12
    assert abs(grid_l2_norm(u, g) ** 2 - (math.pi / 2) * np.sum(a**2)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from([m.length for m in MODELS.values()]),
    n_modes=st.sampled_from([2, 3, 8]),
    rows=st.integers(1, 6),
    data=st.data(),
)
def test_reconstruct_is_the_sine_matrix_product(length, n_modes, rows, data):
    # The written fields and scores are these two products, S @ c for one
    # state and C @ S.T for a time series, so both must hold bit for bit.
    # BLAS computes a batch (gemm) and one state (gemv) with different
    # kernels, so a batch row may differ from the same state alone in the
    # last bit; it stays within the rounding bound of a length-n dot product.
    coeffs = data.draw(arrays(np.float64, (rows, n_modes), elements=st.floats(-5, 5)))
    g = uniform_grid(length, 65)
    sines = np.sin(np.outer(g, np.arange(1, n_modes + 1)))
    batch = reconstruct(coeffs, g)
    assert batch.tobytes() == (coeffs @ sines.T).tobytes()
    assert reconstruct(coeffs[None], g).tobytes() == batch.tobytes()
    eps = np.finfo(float).eps
    for row, c in zip(batch, coeffs):
        one = reconstruct(c, g)
        assert one.tobytes() == (sines @ c).tobytes()
        assert np.all(np.abs(row - one) <= 2 * n_modes * eps * np.sum(np.abs(c)))
