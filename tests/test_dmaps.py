import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aimrom import dmaps
from aimrom.dmaps import (
    DiffusionMap,
    GeometricHarmonics,
    dmaps_fit,
    double_dmaps_lift,
    gh_extend,
    gh_fit,
    median_epsilon,
    nystrom_restrict,
    select_independent,
)


def circle_points(n, seed=0, jitter=0.0):
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0, 2 * np.pi, n))
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if jitter:
        pts += jitter * rng.normal(size=pts.shape)
    return theta, pts


def line_points(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(-1, 1, n))
    direction = np.array([1.0, -2.0, 0.5])
    return t, np.outer(t, direction) + np.array([0.3, 0.0, -0.1])


def max_angle_error(theta, phi1, phi2):
    """Angle recovery error up to rotation and reflection."""
    best = np.inf
    for s in (1.0, -1.0):
        psi = np.arctan2(s * phi2, phi1)
        shift = np.angle(np.mean(np.exp(1j * (psi - theta))))
        err = np.max(np.abs(np.angle(np.exp(1j * (psi - theta - shift)))))
        best = min(best, err)
        psi_r = np.arctan2(s * phi2, -phi1)
        shift = np.angle(np.mean(np.exp(1j * (psi_r + theta))))
        err = np.max(np.abs(np.angle(np.exp(1j * (psi_r + theta - shift)))))
        best = min(best, err)
    return best


def test_median_epsilon_hand_value():
    pts = np.array([[0.0], [1.0], [3.0]])
    assert median_epsilon(pts) == 4.0


def test_trivial_pair_and_markov_spectrum():
    _, pts = circle_points(150, seed=1)
    dm = dmaps_fit(pts, n_eigs=6)
    assert dm.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    phi0 = dm.eigenvectors[:, 0]
    assert np.max(np.abs(phi0 - phi0.mean())) < 1e-8
    assert np.all(dm.eigenvalues <= 1.0 + 1e-12)
    assert np.all(np.diff(dm.eigenvalues) <= 1e-12)


def test_row_normalized_kernel_is_stochastic_and_consistent():
    _, pts = circle_points(120, seed=2)
    dm = dmaps_fit(pts, n_eigs=4)
    # rebuild the normalized kernel from the stored pieces
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    a = np.exp(-d2 / (2 * dm.epsilon))
    assert np.allclose(a.sum(axis=1), dm.point_density, atol=1e-12)
    k = a / np.outer(dm.point_density, dm.point_density)
    ktilde = k / k.sum(axis=1)[:, None]
    assert np.max(np.abs(ktilde.sum(axis=1) - 1.0)) < 1e-12
    # stored eigenpairs diagonalize it
    for i in range(dm.n_pairs):
        lhs = ktilde @ dm.eigenvectors[:, i]
        assert np.allclose(lhs, dm.eigenvalues[i] * dm.eigenvectors[:, i], atol=1e-10)


def test_circle_angle_recovery():
    theta, pts = circle_points(220, seed=3)
    dm = dmaps_fit(pts, n_eigs=4)
    err = max_angle_error(theta, dm.eigenvectors[:, 1], dm.eigenvectors[:, 2])
    assert err < 0.1


def test_sign_convention_is_deterministic():
    _, pts = circle_points(100, seed=4)
    d1 = dmaps_fit(pts, n_eigs=5)
    d2 = dmaps_fit(pts, n_eigs=5)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for j in range(d1.n_pairs):
        col = d1.eigenvectors[:, j]
        nonzero = np.abs(col) > 1e-12 * np.max(np.abs(col))
        assert col[np.argmax(nonzero)] > 0


def test_disconnected_kernel_raises():
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [50.0, 50.0]])
    with pytest.raises(ValueError, match="disconnected"):
        dmaps_fit(pts, epsilon=1e-4, n_eigs=2)


def test_fit_input_validation():
    pts = np.zeros((10, 2))
    with pytest.raises(ValueError):
        dmaps_fit(np.zeros(5), n_eigs=2)
    with pytest.raises(ValueError):
        dmaps_fit(pts + np.random.default_rng(0).normal(size=(10, 2)), n_eigs=9)
    with pytest.raises(ValueError):
        dmaps_fit(pts, epsilon=-1.0, n_eigs=2)


def test_select_independent_keeps_single_coordinate_on_line():
    _, pts = line_points(300, seed=5)
    dm = dmaps_fit(pts, n_eigs=6)
    pruned, residuals = select_independent(dm)
    assert pruned.kept_indices == (1,)
    assert residuals[0] == 1.0
    assert np.all(residuals[1:] < 0.2)


def test_select_independent_keeps_two_on_rectangle():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, (500, 2)) * np.array([2.0, 1.0])
    dm = dmaps_fit(pts, n_eigs=8)
    pruned, residuals = select_independent(dm)
    assert len(pruned.kept_indices) == 2
    assert pruned.kept_indices[0] == 1


def test_coordinates_requires_selection():
    _, pts = line_points(50, seed=7)
    dm = dmaps_fit(pts, n_eigs=3)
    with pytest.raises(ValueError):
        dm.coordinates()
    pruned, _ = select_independent(dm)
    assert pruned.coordinates().shape == (50, len(pruned.kept_indices))


def test_nystrom_recovers_training_coordinates():
    _, pts = circle_points(130, seed=8)
    dm = dmaps_fit(pts, n_eigs=5)
    coords = nystrom_restrict(dm, pts)
    assert np.max(np.abs(coords - dm.eigenvectors)) < 1e-8


def test_nystrom_single_point_and_new_points():
    theta, pts = circle_points(200, seed=9)
    dm = dmaps_fit(pts, n_eigs=3)
    new = np.array([np.cos(0.5), np.sin(0.5)])
    c = nystrom_restrict(dm, new)
    assert c.shape == (4,)
    # coordinates of a nearby training point should be close
    nearest = np.argmin(np.abs(theta - 0.5))
    scale = np.max(np.abs(dm.eigenvectors[:, 1]))
    assert abs(c[1] - dm.eigenvectors[nearest, 1]) < 0.15 * scale


def test_nystrom_flags_tiny_eigenvalues_with_nan():
    _, pts = line_points(40, seed=10)
    dm = dmaps_fit(pts, n_eigs=3)
    hacked = DiffusionMap(
        epsilon=dm.epsilon,
        alpha_density=dm.alpha_density,
        train_points=dm.train_points,
        eigenvalues=np.array([dm.eigenvalues[0], dm.eigenvalues[1], 1e-15, 0.0]),
        eigenvectors=dm.eigenvectors,
        point_density=dm.point_density,
    )
    coords = nystrom_restrict(hacked, dm.train_points[:3])
    assert np.all(np.isfinite(coords[:, :2]))
    assert np.all(np.isnan(coords[:, 2:]))


def test_nystrom_rejects_far_query():
    _, pts = circle_points(50, seed=11)
    dm = dmaps_fit(pts, epsilon=0.01, n_eigs=3)
    with pytest.raises(ValueError, match="no training neighbors"):
        nystrom_restrict(dm, np.array([500.0, 500.0]))


def test_gh_in_sample_exact_when_all_modes_kept():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, (80, 2))
    f = np.stack([np.sin(x[:, 0]), x[:, 1] ** 2, x.sum(axis=1)], axis=1)
    gh = gh_fit(x, f, delta=1e-14)
    # the Gaussian kernel matrix is numerically rank deficient, so a few
    # eigenpairs fall under even this tiny delta; smooth targets lose
    # almost nothing
    assert 40 < gh.n_kept <= 80
    assert gh.in_sample_mse < 1e-10
    ext = gh_extend(gh, x)
    assert np.max(np.abs(ext - f)) < 1e-5


def test_gh_truncation_reports_residual():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, (120, 1))
    f = np.sin(3 * x[:, 0])
    gh = gh_fit(x, f, delta=1e-3)
    assert gh.n_kept < 120
    assert gh.in_sample_mse > 0
    ext = gh_extend(gh, x)
    assert float(np.mean((ext[:, 0] - f) ** 2)) <= gh.in_sample_mse + 1e-12


def test_gh_extends_smooth_function():
    rng = np.random.default_rng(14)
    x = rng.uniform(-1, 1, (400, 1))
    f = x[:, 0] ** 3 - x[:, 0]
    gh = gh_fit(x, f, delta=1e-8)
    xq = np.linspace(-0.8, 0.8, 21)[:, None]
    pred = gh_extend(gh, xq)[:, 0]
    truth = xq[:, 0] ** 3 - xq[:, 0]
    assert np.max(np.abs(pred - truth)) < 0.05


def test_gh_single_latent_point_shape():
    rng = np.random.default_rng(15)
    x = rng.uniform(-1, 1, (50, 2))
    f = x[:, :1]
    gh = gh_fit(x, f)
    out = gh_extend(gh, np.array([0.1, 0.2]))
    assert out.shape == (1,)


def test_gh_validation():
    x = np.zeros((10, 2))
    with pytest.raises(ValueError):
        gh_fit(x, np.zeros(9))
    with pytest.raises(ValueError):
        gh_fit(x + 1, np.zeros(10), epsilon_star=-1.0)


def test_double_dmaps_lift_round_trip_on_line():
    _, pts = line_points(250, seed=16)
    dm = dmaps_fit(pts, n_eigs=5)
    pruned, _ = select_independent(dm)
    gh = double_dmaps_lift(pruned, pts, delta=1e-12)
    lifted = gh_extend(gh, pruned.coordinates())
    assert float(np.mean((lifted - pts) ** 2)) < 1e-6


def test_double_dmaps_lift_requires_selection():
    _, pts = line_points(60, seed=17)
    dm = dmaps_fit(pts, n_eigs=3)
    with pytest.raises(ValueError, match="select_independent"):
        double_dmaps_lift(dm, pts)


# ---------------------------------------------------------------- kernels


def full_eigh_fit(points, n_eigs):
    """The diffusion map from a full eigh of the symmetric conjugate."""
    d2 = dmaps._sq_dists(points, points)
    eps = float(np.median(d2[np.triu_indices(points.shape[0], 1)]))
    a = np.exp(-d2 / (2.0 * eps))
    p = a.sum(axis=1)
    k = a / np.outer(p, p)
    d = k.sum(axis=1)
    vals, vecs = np.linalg.eigh(k / np.sqrt(np.outer(d, d)))
    order = np.argsort(vals)[::-1][: n_eigs + 1]
    return vals[order], dmaps._fix_signs(vecs[:, order] / np.sqrt(d)[:, None])


def eigh_calls(monkeypatch):
    """Record the matrix size of every np.linalg.eigh call."""
    sizes = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_subspace_eigenpairs_match_full_eigh(monkeypatch):
    pts = np.random.default_rng(21).uniform(0, 1, (400, 2)) * np.array([1.7, 1.0])
    sizes = eigh_calls(monkeypatch)
    dm = dmaps_fit(pts, n_eigs=10)
    assert max(sizes) == dmaps._BLOCK
    lam, phi = full_eigh_fit(pts, 11)
    assert np.max(np.abs(dm.eigenvalues - lam[:11])) < 1e-10
    # an eigenvector whose residual ||S v - lambda v|| is r lies within about
    # r / gap of the true one, gap being the distance to the nearest other
    # eigenvalue; the iteration stops at r < 1e-13.  Both sides follow the
    # same sign convention, so a flipped column would fail here too.
    dist = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(dist, np.inf)
    gap = dist.min(axis=1)[:11]
    err = np.max(np.abs(dm.eigenvectors - phi[:, :11]), axis=0)
    assert np.all(err * gap < 1e-12 * np.max(np.abs(phi[:, :11]), axis=0))
    for col in dm.eigenvectors.T:
        visible = np.abs(col) > 1e-12 * np.max(np.abs(col))
        assert col[np.argmax(visible)] > 0


def test_small_cloud_takes_full_eigh(monkeypatch):
    _, pts = line_points(10 * dmaps._BLOCK - 1, seed=19)
    sizes = eigh_calls(monkeypatch)
    dm = dmaps_fit(pts, n_eigs=5)
    assert sizes == [pts.shape[0]]
    lam, phi = full_eigh_fit(pts, 5)
    assert np.array_equal(dm.eigenvalues, lam)
    assert np.array_equal(dm.eigenvectors, phi)


def test_unconverged_iteration_falls_back_to_full_eigh(monkeypatch):
    _, pts = line_points(300, seed=20)
    monkeypatch.setattr(dmaps, "_MAX_ITERS", 1)
    sizes = eigh_calls(monkeypatch)
    dm = dmaps_fit(pts, n_eigs=6)
    assert sizes == [dmaps._BLOCK, pts.shape[0]]
    lam, phi = full_eigh_fit(pts, 6)
    assert np.array_equal(dm.eigenvalues, lam)
    assert np.array_equal(dm.eigenvectors, phi)


def pair_sq_dists(basis):
    return np.sum((basis[:, None, :] - basis[None, :, :]) ** 2, axis=2)


def loo_weights(basis, bandwidth_factor):
    n = basis.shape[0]
    d2 = pair_sq_dists(basis)
    scale = np.median(np.sqrt(d2[np.triu_indices(n, 1)])) / bandwidth_factor
    w = np.exp(-d2 / scale**2)
    np.fill_diagonal(w, 0.0)
    return w


def loo_residual_lstsq(basis, target, bandwidth_factor):
    """Per-point least squares on the square-root-weighted design; returns
    the residual and the largest condition number of those designs."""
    n = basis.shape[0]
    preds, conds = np.empty(n), np.empty(n)
    for i, w in enumerate(loo_weights(basis, bandwidth_factor)):
        sw = np.sqrt(w)
        design = np.hstack([np.ones((n, 1)), basis - basis[i]]) * sw[:, None]
        preds[i] = np.linalg.lstsq(design, sw * target, rcond=None)[0][0]
        conds[i] = np.linalg.cond(design)
    return np.sqrt(np.sum((target - preds) ** 2) / np.sum(target**2)), conds.max()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(30, 120),
    p=st.integers(1, 4),
    bandwidth_factor=st.floats(1.5, 4.0),
    tilt=st.integers(0, 4),
)
def test_moment_form_matches_weighted_least_squares(seed, n, p, bandwidth_factor, tilt):
    rng = np.random.default_rng(seed)
    basis = rng.uniform(-1.0, 1.0, size=(n, p))
    if p > 1:
        # the last coordinate leans onto the first, which takes the normal
        # matrices past the condition number where the re-solve starts
        basis[:, -1] = basis[:, 0] + 10.0**-tilt * basis[:, -1]
    target = np.sin(3.0 * basis @ rng.normal(size=p)) + 0.1 * rng.normal(size=n)
    expected, design_cond = loo_residual_lstsq(basis, target, bandwidth_factor)
    # least squares itself fixes a prediction to 1e-9 only where the weighted
    # design is well conditioned; a point with fewer effective neighbours
    # than coefficients has no answer to that accuracy
    assume(design_cond < 1e6)
    got = dmaps._loo_linear_residual(basis, target, pair_sq_dists(basis), bandwidth_factor)
    assert abs(got - expected) < 1e-9


def test_moment_form_solves_nearly_collinear_fits():
    # the target is (b2 - b1) / 1e-6, linear in the basis, so every local
    # linear fit recovers it; the direction lives at 1e-6 of the basis scale
    t = np.linspace(-1.0, 1.0, 200)
    g = np.cos(3.0 * t)
    basis = np.column_stack([t, t + 1e-6 * g])
    n = t.size
    w = loo_weights(basis, 3.0)
    old_preds, conds = np.empty(n), np.empty(n)
    for i in range(n):
        # the replaced solve: lstsq on each point's weighted normal matrix
        xc = np.hstack([np.ones((n, 1)), basis - basis[i]])
        normal = xc.T @ (w[i][:, None] * xc)
        conds[i] = np.linalg.cond(normal)
        old_preds[i] = np.linalg.lstsq(normal, xc.T @ (w[i] * g), rcond=None)[0][0]
    old = np.sqrt(np.sum((g - old_preds) ** 2) / np.sum(g**2))
    assert conds.max() > 1e13
    expected, _ = loo_residual_lstsq(basis, g, 3.0)
    assert expected < 1e-9
    got = dmaps._loo_linear_residual(basis, g, pair_sq_dists(basis), 3.0)
    assert abs(got - expected) < 1e-9
    assert old > 1e-3
