import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimrom import NumericalFailure
from aimrom.aim import Closure, euler_galerkin_closure, postprocess, zero_closure
from aimrom.models import MODELS
from oracles import alpha3, ks_rhs_quadrature

NU = 0.16
NU_KS = 33.0


def test_nonlinearity_recovers_cubic_part():
    # chafee's A is nu k^2 alone, so on a zero-padded low state the third
    # component of F = -rhs - A a is -a1^3/4 + (3/4) a1 a2^2, and the map
    # divides it by -(1 + A_3) at tau = 1
    assert np.array_equal(MODELS["chafee"].dissipation(np.arange(1, 4), NU),
                          NU * np.arange(1, 4) ** 2)
    phi = euler_galerkin_closure("chafee", 2, 3, NU)(np.array([0.7, -0.3]))
    f3 = -phi[0] * (1.0 + 9.0 * NU)
    assert f3 == pytest.approx(-(0.7**3) / 4 + 0.75 * 0.7 * 0.09, abs=1e-14)


def test_alpha3_spot_values():
    assert alpha3(1.0, 0.0, NU) == pytest.approx(0.10245901639344263, abs=1e-15)
    assert alpha3(0.7, -0.3, NU) == pytest.approx(0.01577868852459016, abs=1e-15)
    assert alpha3(0.0, 5.0, NU) == 0.0


def test_alpha3_accepts_arrays():
    a1 = np.array([1.0, 0.7])
    a2 = np.array([0.0, -0.3])
    out = alpha3(a1, a2, NU)
    assert np.allclose(out, [0.10245901639344263, 0.01577868852459016], atol=1e-15)


def test_euler_galerkin_matches_closed_form_on_grid():
    closure = euler_galerkin_closure("chafee", 2, 3, NU)
    g = np.linspace(-2.0, 2.0, 20)
    a1, a2 = np.meshgrid(g, g)
    p = np.stack([a1.ravel(), a2.ravel()], axis=-1)
    phi = closure(p)
    closed = alpha3(p[:, 0], p[:, 1], NU)
    assert phi.shape == (400, 1)
    assert np.max(np.abs(phi[:, 0] - closed)) < 1e-12
    # a batch row is the single-state map, bit for bit
    assert all(np.array_equal(phi[i], closure(p[i])) for i in (0, 137, 399))


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(0.05, 0.5, allow_nan=False),
)
def test_euler_galerkin_matches_closed_form_any_nu(a1, a2, nu):
    phi = euler_galerkin_closure("chafee", 2, 3, nu)(np.array([a1, a2]))
    assert phi[0] == pytest.approx(alpha3(a1, a2, nu), abs=1e-12)


def test_phi_is_zero_at_origin():
    assert np.allclose(euler_galerkin_closure("chafee", 2, 3, NU)(np.zeros(2)), 0.0)
    assert np.allclose(euler_galerkin_closure("ks", 3, 8, NU_KS)(np.zeros(3)), 0.0)


def test_tau_scaling_of_slaving_map():
    # phi = -tau/(1 + tau*lam3) * F3(p): doubling tau rescales predictably
    p = np.array([0.9, 0.4])
    lam3 = NU * 9
    phi1 = euler_galerkin_closure("chafee", 2, 3, NU, tau=1.0)(p)[0]
    phi2 = euler_galerkin_closure("chafee", 2, 3, NU, tau=2.0)(p)[0]
    f3 = -phi1 * (1 + lam3)
    assert phi2 == pytest.approx(-2.0 * f3 / (1 + 2.0 * lam3), abs=1e-14)


def test_config_validation():
    with pytest.raises(ValueError, match="n_low"):
        euler_galerkin_closure("chafee", 3, 3, NU)
    with pytest.raises(ValueError, match="n_low"):
        euler_galerkin_closure("chafee", 0, 3, NU)
    with pytest.raises(ValueError, match="not positive"):
        euler_galerkin_closure("chafee", 2, 3, -NU)
    with pytest.raises(ValueError, match="tau"):
        euler_galerkin_closure("chafee", 2, 3, NU, tau=0.0)
    with pytest.raises(ValueError, match="Galerkin model"):
        euler_galerkin_closure("toy", 1, 2, NU)


def test_ks_slaved_block_must_be_damped():
    # A = 4k^4 - nu k^2 is -29, -68, 27, 496, ... at nu = 33: only the
    # slaved block is checked, so n_low 2 passes and n_low 1 does not
    assert euler_galerkin_closure("ks", 2, 8, NU_KS).n_high == 6
    with pytest.raises(ValueError, match=r"k = 2 has A = -68,"):
        euler_galerkin_closure("ks", 1, 8, NU_KS)


def test_ks_slaved_nonlinearity_matches_quadrature_oracle():
    # on the zero-padded state A a has no high part, so Q F = -Q rhs; the
    # map's Q F, recovered from phi at tau = 1, must match the trapezoid oracle
    rng = np.random.default_rng(7)
    closure = euler_galerkin_closure("ks", 3, 8, NU_KS)
    a_high = MODELS["ks"].dissipation(np.arange(4, 9), NU_KS)
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(-0.5, 0.5, size=3)
        qf = -closure(p) * (1.0 + a_high)
        oracle = -ks_rhs_quadrature(np.concatenate([p, np.zeros(5)]), NU_KS)[3:]
        worst = max(worst, float(np.max(np.abs(qf - oracle))))
    assert worst < 1e-8


def test_phi_rejects_wrong_width():
    with pytest.raises(ValueError):
        euler_galerkin_closure("chafee", 2, 3, NU)(np.zeros(3))


def test_postprocess_preserves_low_modes():
    closure = euler_galerkin_closure("chafee", 2, 3, NU)
    low = np.array([0.9, -0.2])
    full = postprocess(low, closure)
    assert full.shape == (3,)
    assert np.array_equal(full[:2], low)
    assert full[2] == pytest.approx(alpha3(0.9, -0.2, NU), abs=1e-14)


def test_zero_closure_pads_with_zeros():
    closure = zero_closure(2, 1)
    full = postprocess(np.array([0.9, -0.2]), closure)
    assert full[2] == 0.0


def test_postprocess_rejects_mismatched_closure():
    closure = euler_galerkin_closure("chafee", 2, 3, NU)
    with pytest.raises(ValueError):
        postprocess(np.array([0.9, -0.2, 0.0]), closure)
    with pytest.raises(ValueError):
        postprocess(np.array([0.9, -0.2, 0.0]), zero_closure(2, 1))


def test_postprocess_calls_the_closure_once():
    calls = []

    def tail(p):
        calls.append(p)
        return p[..., :1] ** 2

    full = postprocess([0.9, -0.2], Closure(n_low=2, n_high=1, map=tail))
    assert len(calls) == 1
    assert np.array_equal(full, [0.9, -0.2, 0.9**2])


def test_closure_checks_output_width():
    bad = Closure(n_low=2, n_high=2, map=lambda p: np.zeros(p.shape[:-1] + (1,)))
    with pytest.raises(ValueError):
        bad(np.zeros(2))


def test_closure_rejects_a_non_finite_tail():
    bad = Closure(n_low=2, n_high=1, map=lambda p: np.full(p.shape[:-1] + (1,), np.nan))
    with pytest.raises(NumericalFailure):
        postprocess(np.array([0.9, -0.2]), bad)
