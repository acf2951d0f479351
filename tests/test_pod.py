import numpy as np
import pytest

from aimrom.pod import PodModel, pod_fit, pod_lift, pod_project
from oracles import quadratic_fit


def rank2_snapshots(n=200, seed=0):
    rng = np.random.default_rng(seed)
    u1 = np.array([1.0, 0.0, 0.0, 2.0, -1.0])
    u2 = np.array([0.0, 3.0, 1.0, 0.0, 1.0])
    c = rng.normal(size=(n, 2))
    return c @ np.stack([u1, u2]) + np.array([0.5, -0.2, 0.0, 0.1, 0.3])


def test_energy_fractions_cumulative_and_terminal():
    x = rank2_snapshots()
    m = pod_fit(x)
    assert np.all(np.diff(m.energy_fractions) >= -1e-15)
    assert m.energy_fractions[-1] == pytest.approx(1.0, abs=1e-12)
    # two directions carry everything
    assert m.energy_fractions[1] == pytest.approx(1.0, abs=1e-12)


def test_modes_are_orthonormal():
    x = rank2_snapshots(seed=1)
    m = pod_fit(x)
    g = m.modes.T @ m.modes
    assert np.allclose(g, np.eye(m.rank), atol=1e-12)


def test_sign_convention_largest_entry_positive():
    x = rank2_snapshots(seed=2)
    m = pod_fit(x)
    for j in range(m.rank):
        col = m.modes[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_fit_is_deterministic():
    x = rank2_snapshots(seed=3)
    a = pod_fit(x)
    b = pod_fit(x)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.singular_values, b.singular_values)


def test_rank2_reconstruction_is_exact():
    x = rank2_snapshots(seed=4)
    m = pod_fit(x)
    c = pod_project(m, x, 2)
    back = pod_lift(m, c)
    assert np.max(np.abs(back - x)) < 1e-10


def test_project_lift_single_vector():
    x = rank2_snapshots(seed=5)
    m = pod_fit(x)
    v = x[7]
    c = pod_project(m, v, 2)
    assert c.shape == (2,)
    assert np.max(np.abs(pod_lift(m, c) - v)) < 1e-10


def test_uncentered_fit_keeps_zero_mean():
    x = rank2_snapshots(seed=6)
    m = pod_fit(x, center=False)
    assert np.all(m.mean == 0.0)
    assert not m.centered


def test_rank_k_projection_beats_random_subspaces():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(150, 6)) @ np.diag([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    m = pod_fit(x)
    xc = x - m.mean
    k = 2
    pod_err = np.linalg.norm(xc - pod_lift(m, pod_project(m, x, k)) + m.mean)
    for trial in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(6, k)))
        rand_err = np.linalg.norm(xc - (xc @ q) @ q.T)
        assert pod_err <= rand_err + 1e-9


def test_degenerate_snapshots_rejected():
    x = np.ones((10, 4))
    with pytest.raises(ValueError, match="rank 0"):
        pod_fit(x, center=True)


def test_projection_bounds_checked():
    m = pod_fit(rank2_snapshots())
    with pytest.raises(ValueError):
        pod_project(m, np.zeros(5), 0)
    with pytest.raises(ValueError):
        pod_project(m, np.zeros(5), m.rank + 1)
    with pytest.raises(ValueError):
        pod_lift(m, np.zeros(m.rank + 1))


def test_quadratic_fit_recovers_exact_parabola():
    c1 = np.linspace(-2, 2, 40)
    c2 = 1.5 * c1**2 - 0.5 * c1 + 0.25
    fit = quadratic_fit(c1, c2)
    assert np.allclose(fit.coeffs, [1.5, -0.5, 0.25], atol=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit(np.array([0.0]))[0] == pytest.approx(0.25, abs=1e-10)


def test_quadratic_fit_reports_misfit():
    rng = np.random.default_rng(8)
    c1 = np.linspace(-1, 1, 200)
    c2 = c1**2 + 0.5 * rng.normal(size=200)
    fit = quadratic_fit(c1, c2)
    assert fit.r_squared < 0.9


def test_quadratic_fit_degenerate_abscissa():
    with pytest.raises(ValueError, match="identifiable"):
        quadratic_fit(np.ones(10), np.linspace(0, 1, 10))
