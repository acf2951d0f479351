import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimrom.models import (
    MODELS,
    analytic_field,
    chafee_rhs_2,
    chafee_rhs_3,
    field_from_name,
    ks_rhs,
    toy_field,
    toy_rhs,
)

NU = 0.16
NU_KS = 33.0


# Hand-typed Galerkin formulas: oracles for the polynomial model that share
# none of its tensor construction.

def hand_chafee_rhs_3(a, nu):
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    d1 = (
        (1.0 - nu) * a1
        - 0.75 * a1**3
        - 1.5 * a1 * a2**2
        + 0.75 * a1**2 * a3
        - 0.75 * a2**2 * a3
        - 1.5 * a1 * a3**2
    )
    d2 = (
        (1.0 - 4.0 * nu) * a2
        - 1.5 * a1**2 * a2
        - 0.75 * a2**3
        - 1.5 * a1 * a2 * a3
        - 1.5 * a2 * a3**2
    )
    d3 = (
        (1.0 - 9.0 * nu) * a3
        + 0.25 * a1**3
        - 0.75 * a1 * a2**2
        - 1.5 * a1**2 * a3
        - 1.5 * a2**2 * a3
        - 0.75 * a3**3
    )
    return np.stack([d1, d2, d3], axis=-1)


def hand_chafee_rhs_2(a, nu):
    a1, a2 = a[..., 0], a[..., 1]
    d1 = (1.0 - nu) * a1 - 0.75 * a1**3 - 1.5 * a1 * a2**2
    d2 = (1.0 - 4.0 * nu) * a2 - 1.5 * a1**2 * a2 - 0.75 * a2**3
    return np.stack([d1, d2], axis=-1)


def hand_ks_rhs(a, nu):
    # N_k = (k/4) sum_{j=1}^{k-1} a_j a_{k-j} - (k/2) sum_{j=1}^{m-k} a_j a_{j+k}
    m = a.shape[-1]
    k = np.arange(1, m + 1)
    c = np.zeros((m, m, m))
    for kk in range(1, m + 1):
        for j in range(1, kk):
            c[kk - 1, j - 1, kk - j - 1] += kk / 4.0
        for j in range(1, m - kk + 1):
            c[kk - 1, j - 1, j + kk - 1] -= kk / 2.0
    nonlinear = np.einsum("...i,kij,...j->...k", a, c, a)
    return (nu * k**2 - 4.0 * k**4) * a - nu * nonlinear


def quadrature_rhs_chafee(a, nu, n_nodes=2049):
    """Independent route: project nu*u_xx + u - u^3 onto the sine modes."""
    m = len(a)
    x = np.linspace(0, np.pi, n_nodes)
    k = np.arange(1, m + 1)
    s = np.sin(np.outer(x, k))
    u = s @ a
    uxx = s @ (-(k**2) * a)
    f = nu * uxx + u - u**3
    return np.trapezoid(f[:, None] * s, x, axis=0) / (np.pi / 2)


def quadrature_rhs_ks(a, nu, n_nodes=8193):
    """Independent route: project -nu*(u*u_x + u_xx) - 4*u_xxxx on [0, 2 pi]."""
    m = len(a)
    x = np.linspace(0, 2 * np.pi, n_nodes)
    k = np.arange(1, m + 1)
    s = np.sin(np.outer(x, k))
    c = np.cos(np.outer(x, k))
    u = s @ a
    ux = c @ (k * a)
    uxx = s @ (-(k**2) * a)
    uxxxx = s @ (k**4 * a)
    f = -nu * (u * ux + uxx) - 4.0 * uxxxx
    return np.trapezoid(f[:, None] * s, x, axis=0) / np.pi


def test_chafee3_zero_is_fixed_point():
    assert np.all(chafee_rhs_3(np.zeros(3), NU) == 0)


def test_chafee3_spot_value_first_mode_only():
    d = chafee_rhs_3(np.array([1.0, 0.0, 0.0]), NU)
    assert np.allclose(d, [0.09, 0.0, 0.25], atol=1e-14)


def test_chafee3_spot_value_generic_state():
    # frozen from the quadrature route at 2049 nodes
    d = chafee_rhs_3(np.array([0.7, -0.3, 0.2]), NU)
    assert np.allclose(d, [0.25425, 0.21375, -0.2295], atol=1e-12)


def test_chafee2_spot_value_generic_state():
    d = chafee_rhs_2(np.array([0.7, -0.3]), NU)
    assert np.allclose(d, [0.23625, 0.13275], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3))
def test_chafee3_matches_quadrature(coeffs):
    a = np.array(coeffs)
    assert np.allclose(chafee_rhs_3(a, NU), quadrature_rhs_chafee(a, NU), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=2))
def test_chafee2_matches_quadrature(coeffs):
    a = np.array(coeffs)
    assert np.allclose(chafee_rhs_2(a, NU), quadrature_rhs_chafee(a, NU), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3))
def test_chafee_odd_symmetry(coeffs):
    a = np.array(coeffs)
    assert np.allclose(chafee_rhs_3(-a, NU), -chafee_rhs_3(a, NU), atol=1e-12)


def test_chafee2_is_restriction_of_chafee3():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 2, 2)
        padded = np.array([a[0], a[1], 0.0])
        assert np.allclose(chafee_rhs_2(a, NU), chafee_rhs_3(padded, NU)[:2], atol=1e-14)


def test_ks_zero_is_fixed_point():
    assert np.all(ks_rhs(np.zeros(8), NU_KS) == 0)


def test_ks_dispersion_relation():
    # single-mode states isolate the linear part: growth rate nu*k^2 - 4*k^4
    expected = {1: 29.0, 2: 68.0, 3: -27.0, 4: -496.0}
    for k, sigma in expected.items():
        a = np.zeros(8)
        a[k - 1] = 1.0
        d = ks_rhs(a, NU_KS)
        # the quadratic part of a pure mode k feeds only mode 2k
        assert d[k - 1] == pytest.approx(sigma, abs=1e-12)


def test_ks_spot_value_generic_state():
    # frozen from the 8193-node quadrature route
    a = np.array([-0.545, -0.366, 0.595, 0.353, -0.218, -0.334, 0.197, -0.627])
    expected = np.array(
        [
            -15.833445999998709,
            -47.431141499998013,
            -31.141215000000024,
            -149.06849000000025,
            377.27898500000055,
            1330.2577574999991,
            -1588.4699390000176,
            8955.4774980000257,
        ]
    )
    assert np.allclose(ks_rhs(a, NU_KS), expected, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=8, max_size=8))
def test_ks8_matches_quadrature(coeffs):
    a = np.array(coeffs)
    assert np.allclose(ks_rhs(a, NU_KS), quadrature_rhs_ks(a, NU_KS), atol=1e-8)


def test_ks3_is_leading_block_of_padded_ks8():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(-1, 1, 3)
        padded = np.zeros(8)
        padded[:3] = a
        assert np.allclose(ks_rhs(a, NU_KS), ks_rhs(padded, NU_KS)[:3], atol=1e-14)


def test_ks_rhs_batched_matches_loop():
    rng = np.random.default_rng(11)
    batch = rng.uniform(-1, 1, (5, 8))
    out = ks_rhs(batch, NU_KS)
    for i in range(5):
        assert np.allclose(out[i], ks_rhs(batch[i], NU_KS), atol=1e-14)


def test_chafee_rhs_batched_matches_loop():
    rng = np.random.default_rng(13)
    batch = rng.uniform(-2, 2, (5, 3))
    out = chafee_rhs_3(batch, NU)
    for i in range(5):
        assert np.allclose(out[i], chafee_rhs_3(batch[i], NU), atol=1e-14)


def test_toy_rhs_values():
    assert np.allclose(toy_rhs(np.array([2.0, 4.0]), 0.01), [-4.0, 0.0])
    assert np.allclose(toy_rhs(np.array([1.0, 1.0]), 0.01), [0.0, 0.0])
    # off the slow manifold y = x^2 the fast variable moves at O(1/epsilon)
    assert np.allclose(toy_rhs(np.array([1.0, 0.0]), 0.01), [1.0, 100.0])


def test_field_constructors():
    f = analytic_field("chafee", 3, NU)
    assert f.dim == 3
    g = analytic_field("ks", 8, NU_KS)
    assert g.dim == 8
    assert analytic_field("chafee", 4, NU).dim == 4 and analytic_field("ks", 5, NU_KS).dim == 5
    with pytest.raises(ValueError):
        analytic_field("chafee", 0, NU)
    with pytest.raises(ValueError):
        analytic_field("ks", 8, NU_KS).eval(np.zeros(3))
    t = toy_field(0.01)
    assert t.dim == 2


_ORACLES = {
    "chafee-2": (chafee_rhs_2, hand_chafee_rhs_2, NU, 2, 2.0),
    "chafee-3": (chafee_rhs_3, hand_chafee_rhs_3, NU, 3, 2.0),
    "ks-3": (ks_rhs, hand_ks_rhs, NU_KS, 3, 1.0),
    "ks-8": (ks_rhs, hand_ks_rhs, NU_KS, 8, 1.0),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_ORACLES)),
    rows=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rhs_matches_the_hand_typed_formulas(name, rows, seed):
    rhs, oracle, nu, m, half = _ORACLES[name]
    shape = (m,) if rows == 0 else (rows, m)
    a = np.random.default_rng(seed).uniform(-half, half, shape)
    want = oracle(a, nu)
    assert np.all(np.abs(rhs(a, nu) - want) <= 1e-13 * np.max(np.abs(want)))


# Measured before the polynomial model landed, over 200 random states per
# width (chafee in [-2, 2]^n, KS in [-1, 1]^n): the largest gap was 1e-14 of
# max(1, largest |component|) (3.7e-13 absolute for chafee, 7.8e-11 for KS-8,
# whose components reach 1e4).  The bar leaves a factor of 100.
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("model", ["chafee", "ks"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rhs_matches_quadrature_at_any_width(model, n, seed):
    half, oracle = (2.0, quadrature_rhs_chafee) if model == "chafee" else (1.0, quadrature_rhs_ks)
    a = np.random.default_rng(seed).uniform(-half, half, n)
    nu = MODELS[model].nu
    want = oracle(a, nu)
    got = analytic_field(model, n, nu).eval(a)
    assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, np.max(np.abs(want))))


def test_model_defaults():
    chafee, ks = MODELS["chafee"], MODELS["ks"]
    assert (chafee.n_low, chafee.n_full, chafee.nu) == (2, 3, 0.16)
    assert (ks.n_low, ks.n_full, ks.nu) == (3, 8, 33.0)
    assert analytic_field("ks").name == "ks-8(nu=33.0)"
    assert analytic_field("toy").name == "toy(eps=0.01)"
    with pytest.raises(ValueError, match="unknown model"):
        analytic_field("burgers")


def test_too_many_modes_fail_before_building_the_tensor():
    # the cubic tensor of 64 modes would hold 64^4 = 2^24 entries
    with pytest.raises(ValueError, match="tensor"):
        analytic_field("chafee", 64, NU)


def test_field_from_name_rejects_unknown_names():
    for name in ("burgers-3(nu=1.0)", "chafee-3", "toy(nu=1)"):
        with pytest.raises(ValueError):
            field_from_name(name)
