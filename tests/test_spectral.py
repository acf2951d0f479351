import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aimrom.models import MODELS
from aimrom.pod import pod_fit, pod_lift
from aimrom.spectral import reconstruct, uniform_grid

CHAFEE_GRID = uniform_grid(MODELS["chafee"].length, 65)


def _trapezoid_norm(values, grid):
    return math.sqrt(np.trapezoid(values * values, grid))


def test_basis_domains_and_norms():
    # Parseval below holds on any multiple of pi; the PDEs fix these two
    assert {name: m.length for name, m in MODELS.items()} == {"chafee": math.pi,
                                                             "ks": 2 * math.pi}
    for model in MODELS.values():
        length, n = model.length, model.n_full
        g = uniform_grid(length, 65)
        assert (g[0], g[-1], g.shape) == (0.0, length, (65,))
        assert _trapezoid_norm(np.sin(g), g) ** 2 == pytest.approx(length / 2, abs=1e-14)
        # Parseval, ||u||^2 = (L/2) sum a_k^2, is exact at the 4n + 1 node
        # bound only where the modes sin(kx) are orthogonal on [0, L]
        g = uniform_grid(length, 4 * n + 1)
        a = np.linspace(-1.0, 1.0, n) + 0.3
        assert _trapezoid_norm(reconstruct(a, g), g) ** 2 == pytest.approx(
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
    assert abs(_trapezoid_norm(u, g) ** 2 - 0.9738937226128359) < 1e-12
    assert abs(_trapezoid_norm(u, g) ** 2 - (math.pi / 2) * np.sum(a**2)) < 1e-12


_POD = pod_fit(np.random.default_rng(0).normal(size=(20, 65)))
_LIFTS = {"chafee": lambda c: reconstruct(c, CHAFEE_GRID),
          "ks": lambda c: reconstruct(c, uniform_grid(MODELS["ks"].length, 65)),
          "pod": lambda c: pod_lift(_POD, c)}


@settings(max_examples=60, deadline=None)
@given(
    lift=st.sampled_from(sorted(_LIFTS)),
    width=st.sampled_from([1, 2, 3, 8]),
    shape=st.lists(st.integers(1, 6), max_size=3),
    data=st.data(),
)
def test_a_batch_row_has_the_bits_of_its_state_alone(lift, width, shape, data):
    # The scores compare fields lifted one state at a time (the corrected
    # state) with fields lifted as a series (truth and raw run), so every
    # row of a batch of any shape, one row included, must be that state's
    # own product bit for bit
    coeffs = data.draw(arrays(np.float64, (*shape, width), elements=st.floats(-5, 5)))
    batch = _LIFTS[lift](coeffs)
    assert batch.shape == (*shape, 65)
    for index in np.ndindex(*shape):
        assert batch[index].tobytes() == _LIFTS[lift](coeffs[index]).tobytes()
