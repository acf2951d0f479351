import math

import numpy as np
import pytest

from aimrom.aim import euler_galerkin_closure, postprocess, zero_closure
from aimrom.metrics import decompose_errors, mape, mape_series, mse
from aimrom.models import MODELS
from oracles import alpha3

NU = 0.16


def test_mape_spot_value():
    assert mape(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(25.0)


def test_mape_floor_protects_zero_truth():
    # |1e-9 - 0| / 1e-8 floor = 10 percent
    assert mape(np.array([1e-9]), np.array([0.0])) == pytest.approx(10.0)


def test_mape_zero_for_identical_inputs():
    x = np.linspace(-1, 1, 50)
    assert mape(x, x) == 0.0


def test_mape_shape_mismatch():
    with pytest.raises(ValueError):
        mape(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mape(np.zeros(0), np.zeros(0))


def test_mse_spot_value():
    assert mse(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)


def test_mape_series_row_wise():
    pred = np.array([[1.0, 2.0], [2.0, 2.0]])
    truth = np.array([[1.0, 4.0], [1.0, 4.0]])
    out = mape_series(pred, truth)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(25.0)
    assert out[1] == pytest.approx(75.0)


def test_decomposition_matches_parseval():
    # truth (1.1, 0.2, 0.15) vs reduced (1.0, 0.25) under the analytic closure:
    # the field norms are the exact (pi/2)-weighted coefficient norms
    length = MODELS["chafee"].length
    closure = euler_galerkin_closure("chafee", 2, 3, NU)
    full = np.array([1.1, 0.2, 0.15])
    red = np.array([1.0, 0.25])
    d = decompose_errors(full, postprocess(red, closure), 2, length)

    tail = alpha3(1.0, 0.25, NU)
    w = math.pi / 2
    assert d.delta_low == pytest.approx(math.hypot(0.1, 0.05), abs=1e-12)
    assert d.delta_closure_mass == pytest.approx(math.sqrt(w * tail**2), abs=1e-10)
    assert d.delta_truncated == pytest.approx(
        math.sqrt(w * (0.1**2 + 0.05**2 + 0.15**2)), abs=1e-10
    )
    assert d.delta_corrected == pytest.approx(
        math.sqrt(w * (0.1**2 + 0.05**2 + (0.15 - tail) ** 2)), abs=1e-10
    )


def test_zero_closure_decomposition_collapses():
    length = MODELS["chafee"].length
    closure = zero_closure(2, 1)
    full = np.array([1.0, 0.2, 0.1])
    red = np.array([1.0, 0.2])
    d = decompose_errors(full, postprocess(red, closure), 2, length)
    assert d.delta_low == 0.0
    assert d.delta_closure_mass == 0.0
    assert d.delta_corrected == d.delta_truncated


def test_decomposition_validates_widths():
    length = MODELS["chafee"].length
    with pytest.raises(ValueError):
        decompose_errors(np.zeros(3), np.zeros(3), 3, length)
    with pytest.raises(ValueError):
        decompose_errors(np.zeros(3), np.zeros(3), 0, length)
    with pytest.raises(ValueError):
        decompose_errors(np.zeros(4), np.zeros(3), 2, length)
    with pytest.raises(ValueError):
        decompose_errors(np.zeros((2, 3)), np.zeros((2, 3)), 2, length)
