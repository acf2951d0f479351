import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aimrom import NumericalFailure, dmaps
from aimrom.dmaps import (
    DiffusionMap,
    GeometricHarmonics,
    dmaps_fit,
    gh_extend,
    gh_fit,
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
    assert dmaps._upper_median(dmaps._sq_dists(pts, pts)) == 4.0


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_upper_median_gives_numpy_median_bits(n):
    # n = 7 and 10 give an odd count of pairs, 8 and 9 an even one
    pts = np.random.default_rng(n).normal(size=(n, 3))
    d2 = dmaps._sq_dists(pts, pts)
    upper = d2[np.triu_indices(n, 1)]
    assert dmaps._upper_median(d2) == np.median(upper)
    assert dmaps._upper_median(d2, np.sqrt) == np.median(np.sqrt(upper))


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
    with pytest.raises(NumericalFailure, match="disconnected"):
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


def test_gh_fit_on_kept_coordinates_round_trips_on_line():
    _, pts = line_points(250, seed=16)
    dm = dmaps_fit(pts, n_eigs=5)
    pruned, _ = select_independent(dm)
    gh = gh_fit(pruned.coordinates(), pts, delta=1e-12)
    lifted = gh_extend(gh, pruned.coordinates())
    assert float(np.mean((lifted - pts) ** 2)) < 1e-6


def test_coordinates_require_selection():
    _, pts = line_points(60, seed=17)
    dm = dmaps_fit(pts, n_eigs=3)
    with pytest.raises(ValueError, match="no coordinate indices selected"):
        dm.coordinates()


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
    w = dmaps._loo_weights(pair_sq_dists(basis), bandwidth_factor)
    got = dmaps._loo_linear_residual(basis, target, w)
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
    got = dmaps._loo_linear_residual(basis, g, dmaps._loo_weights(pair_sq_dists(basis), 3.0))
    assert abs(got - expected) < 1e-9
    assert old > 1e-3


# ------------------------------------------------- row blocks and memory


def rectangle_points(n, seed):
    return np.random.default_rng(seed).uniform(0, 1, (n, 2)) * np.array([2.0, 1.0])


def test_sq_dists_bits_equal_unblocked_formula():
    rng = np.random.default_rng(30)
    a = rng.normal(size=(2 * dmaps._ROWS + 37, 4))
    b = rng.normal(size=(150, 4))
    for left, right in ((a, a), (a, b), (b, a)):
        aa = np.sum(left * left, axis=1)[:, None]
        bb = np.sum(right * right, axis=1)[None, :]
        expected = np.maximum(aa + bb - 2.0 * (left @ right.T), 0.0)
        assert np.array_equal(dmaps._sq_dists(left, right), expected)


def test_dmaps_fit_bits_equal_unblocked_normalisation():
    pts = rectangle_points(2 * dmaps._ROWS + 45, seed=31)
    dm = dmaps_fit(pts, n_eigs=6)
    d2 = dmaps._sq_dists(pts, pts)
    eps = float(np.median(d2[np.triu_indices(pts.shape[0], 1)]))
    a = np.exp(d2 / (-2.0 * eps))
    p = a.sum(axis=1)
    k = a / np.outer(p, p)
    d = k.sum(axis=1)
    lam, vecs = dmaps._leading_eigh(k / np.sqrt(np.outer(d, d)), 7)
    assert dm.epsilon == eps
    assert np.array_equal(dm.point_density, p)
    assert np.array_equal(dm.eigenvalues, lam)
    assert np.array_equal(dm.eigenvectors, dmaps._fix_signs(vecs / np.sqrt(d)[:, None]))


def unblocked_loo_residual(basis, target, w):
    """The leave-one-out residual with every n x n array formed whole."""
    n, p = basis.shape
    x = np.hstack([np.ones((n, 1)), basis - basis.mean(axis=0)])
    ia, ib = np.triu_indices(p + 1)
    moments = w @ np.hstack([x[:, ia] * x[:, ib], x * target[:, None]])
    normal = np.empty((n, p + 1, p + 1))
    normal[:, ia, ib] = normal[:, ib, ia] = moments[:, : ia.size]
    diag = np.einsum("nii->ni", normal)
    s = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    normal *= s[:, :, None] * s[:, None, :]
    good = np.linalg.cond(normal) <= dmaps._COND_RESOLVE

    def solve(rhs):
        return np.linalg.solve(normal[good], (rhs[good] * s[good])[..., None])[..., 0] * s[good]

    coef = np.zeros((n, p + 1))
    coef[good] = solve(moments[:, ia.size :])
    r = w * (target - coef @ x.T)
    coef[good] += solve(r @ x)
    preds = np.einsum("ni,ni->n", x, coef)
    for i in np.flatnonzero(~good):
        sw = np.sqrt(w[i])
        design = np.hstack([np.ones((n, 1)), basis - basis[i]]) * sw[:, None]
        preds[i] = np.linalg.lstsq(design, sw * target, rcond=None)[0][0]
    return float(np.sqrt(np.sum((target - preds) ** 2) / np.sum(target**2)))


def test_select_independent_matches_unblocked_formulas(monkeypatch):
    pts = rectangle_points(2 * dmaps._ROWS + 45, seed=32)
    dm = dmaps_fit(pts, n_eigs=6)
    seen = []
    real = dmaps._loo_weights

    def spy(d2, bandwidth_factor):
        blocks = []
        seen.append((d2.copy(), blocks))
        for rows, w in real(d2, bandwidth_factor):
            blocks.append((rows, w.copy()))
            yield rows, w

    monkeypatch.setattr(dmaps, "_loo_weights", spy)
    _, residuals = select_independent(dm)
    phi = dm.eigenvectors
    n = dm.n_train
    d2 = np.zeros((n, n))
    expected = [1.0]
    for k, (got_d2, blocks) in zip(range(2, dm.n_pairs), seen, strict=True):
        d2 = d2 + np.subtract.outer(phi[:, k - 1], phi[:, k - 1]) ** 2
        scale = np.median(np.sqrt(d2[np.triu_indices(n, 1)])) / 3.0
        w = np.exp(d2 / (-scale * scale))
        np.fill_diagonal(w, 0.0)
        # elementwise: the row blocks leave every bit
        assert np.array_equal(got_d2, d2)
        assert [(rows.start, rows.stop) for rows, _ in blocks] == [(0, dmaps._ROWS), (dmaps._ROWS, n)]
        for rows, got_w in blocks:
            assert np.array_equal(got_w, w[rows])
        expected.append(unblocked_loo_residual(phi[:, 1:k], phi[:, k], w))
    # a product over a block of rows may round in the last place apart from
    # the same rows of the whole product: OpenBLAS picks its kernel by the
    # operands' shape.  At the benchmark's 2 080 points the two agree bit
    # for bit, so do the stored residuals.
    assert np.allclose(residuals, expected, rtol=1e-13, atol=0.0)


def test_select_independent_bits_equal_unblocked_formulas_at_the_benchmark_size():
    # ks-dmaps fits 2 080 snapshots: 7 blocks of _ROWS rows and one of 288
    pts = rectangle_points(2080, seed=34)
    dm = dmaps_fit(pts, n_eigs=3)
    _, residuals = select_independent(dm)
    phi = dm.eigenvectors
    n = dm.n_train
    d2 = np.zeros((n, n))
    expected = [1.0]
    for k in range(2, dm.n_pairs):
        d2 = d2 + np.subtract.outer(phi[:, k - 1], phi[:, k - 1]) ** 2
        scale = np.median(np.sqrt(d2[np.triu_indices(n, 1)])) / 3.0
        w = np.exp(d2 / (-scale * scale))
        np.fill_diagonal(w, 0.0)
        expected.append(unblocked_loo_residual(phi[:, 1:k], phi[:, k], w))
    assert residuals.tolist() == expected


def peak_in_n2_doubles(fn, n):
    """fn's peak traced allocation, in units of n^2 float64 values."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


def test_kernel_stages_hold_at_most_two_n2_arrays():
    n = 4 * dmaps._ROWS + 100
    pts = rectangle_points(n, seed=33)
    dm = dmaps_fit(pts, n_eigs=8)
    pruned, _ = select_independent(dm)
    # each stage holds two n x n arrays and one block of rows at most; the
    # rest (the median's upper triangle, the per-point normal matrices) is
    # at most n^2 / 2 and O(n) values
    assert peak_in_n2_doubles(lambda: dmaps_fit(pts, n_eigs=8), n) < 2.5
    assert peak_in_n2_doubles(lambda: select_independent(dm), n) < 2.5
    assert peak_in_n2_doubles(lambda: gh_fit(pruned.coordinates(), pts), n) < 2.5


def test_harmonic_pruning_holds_one_n2_array():
    n = 4 * dmaps._ROWS + 100
    dm = dmaps_fit(rectangle_points(n, seed=33), n_eigs=8)
    # the squared distances, and two blocks of weights and residuals of at
    # most 2 _ROWS - 1 rows each (the median's upper triangle, n^2 / 2, is
    # freed before the first block is built)
    assert peak_in_n2_doubles(lambda: select_independent(dm), n) < 1.8


# ------------------------------------------- geometric harmonics eigenpairs


def full_eigh_gh(x, f, delta):
    """Kernel eigenvalues by a full eigh, and the pairs above the delta cut
    with the coefficients of f on them, as gh_fit defines them."""
    d2 = pair_sq_dists(x)
    eps = float(np.median(d2[np.triu_indices(x.shape[0], 1)]))
    sigma, psi = np.linalg.eigh(np.exp(-d2 / (2.0 * eps)))
    sigma, psi = sigma[::-1], psi[:, ::-1]
    keep = sigma > delta * sigma[0]
    return eps, sigma, psi[:, keep], psi[:, keep].T @ f


def gh_reference_extend(x, eps, sigma, psi, coeffs, z):
    a = np.exp(-pair_sq_dists_between(z, x) / (2.0 * eps))
    return (a @ (psi / sigma[: psi.shape[1]])) @ coeffs


def pair_sq_dists_between(a, b):
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


def gh_case(seed, n, dim):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, dim))
    f = np.column_stack([np.sin(2.0 * x @ rng.normal(size=dim)), np.cos(x.sum(axis=1))])
    z = rng.uniform(-0.9, 0.9, (25, dim))
    return x, f, z


def assert_gh_matches_full_eigh(gh, x, f, z):
    eps, sigma, psi, coeffs = full_eigh_gh(x, f, gh.delta)
    assert gh.epsilon_star == pytest.approx(eps, rel=1e-14)
    assert gh.n_kept == psi.shape[1]
    assert np.max(np.abs(gh.eigenvalues - sigma[: gh.n_kept])) <= 1e-12 * sigma[0]
    expected = gh_reference_extend(x, eps, sigma, psi, coeffs, z)
    assert np.max(np.abs(gh_extend(gh, z) - expected)) <= 1e-8 * np.max(np.abs(expected))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(200, 600),
    dim=st.integers(1, 3),
    log_delta=st.floats(-8.0, -3.0),
)
def test_partial_gh_fit_matches_full_eigh(seed, n, dim, log_delta):
    x, f, z = gh_case(seed, n, dim)
    delta = 10.0**log_delta
    _, sigma, _, _ = full_eigh_gh(x, f, delta)
    # a pair within rounding of the cut may fall on either side of it
    assume(np.min(np.abs(sigma - delta * sigma[0])) > 1e-10 * sigma[0])
    assert_gh_matches_full_eigh(gh_fit(x, f, delta=delta), x, f, z)


def test_gh_fit_grows_the_block_past_its_start(monkeypatch):
    x, f, z = gh_case(40, 600, 2)
    sizes = eigh_calls(monkeypatch)
    gh = gh_fit(x, f, delta=1e-6)
    # Rayleigh-Ritz problems only, on a block grown past its start
    assert max(sizes) > dmaps._BLOCK
    assert x.shape[0] not in sizes
    assert gh.n_kept > dmaps._BLOCK
    assert_gh_matches_full_eigh(gh, x, f, z)


def test_gh_fit_falls_back_to_full_eigh(monkeypatch):
    x, f, z = gh_case(41, 10 * dmaps._BLOCK - 1, 2)
    sizes = eigh_calls(monkeypatch)
    gh = gh_fit(x, f, delta=1e-6)
    assert sizes == [x.shape[0]]
    assert_gh_matches_full_eigh(gh, x, f, z)
