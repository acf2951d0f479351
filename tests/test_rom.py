from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimrom.aim import Closure, euler_galerkin_closure, postprocess
from aimrom.dmaps import gh_fit
from aimrom.integrate import BlowUpError, draw_in_box, rk4, sample_attractor
from aimrom.metrics import ensemble_histogram, mape_series
from aimrom.models import MODELS, VectorField, analytic_field, chafee_rhs_3
from aimrom import rom
from aimrom import NumericalFailure
from aimrom.nn import Mlp, TrainConfig, forward, init_autoencoder, init_mlp, train
from aimrom.pod import pod_fit, pod_lift, pod_project
from aimrom.rom import (
    ConfigurationError,
    LearnedField,
    MissingArtifactError,
    PipelineConfig,
    PipelineResult,
    build_derivative_dataset,
    learn_field,
    run_pipeline,
    run_pipeline_batch,
    validate_pipeline,
)
from aimrom.spectral import reconstruct, uniform_grid
from oracles import alpha3

NU = 0.16


@pytest.fixture(scope="module")
def chafee_snapshots():
    field = analytic_field("chafee", 3, NU)
    box = [[-1.2, 1.2], [-0.6, 0.6], [-0.4, 0.4]]
    return sample_attractor(field, box, n_trajectories=25, transient_time=0.5, sample_time=2.0,
                            snapshot_stride=10, dt=1e-3, seed=11).states


@pytest.fixture(scope="module")
def closure_net(chafee_snapshots):
    net = init_mlp((2, 24, 24, 1), seed=0)
    cfg = TrainConfig(learning_rate=2e-3, epochs=150, batch_size=64, seed=0)
    trained, _ = train(net, chafee_snapshots[:, :2], chafee_snapshots[:, 2:], cfg)
    return trained


def base_cfg(**kw):
    defaults = dict(
        model="chafee",
        latent_route="fourier",
        dynamics="truncated",
        closure="euler-galerkin",
        ic=(1.0, 0.5, 0.1),
        final_time=5.0,
        dt=1e-3,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_derivative_dataset_targets_are_analytic():
    field = analytic_field("chafee", 3, NU)
    states = np.array([[1.0, 0.5, 0.1], [0.7, -0.3, 0.2]])
    inputs, derivs = build_derivative_dataset(states, field, 2)
    assert np.array_equal(inputs, states[:, :2])
    assert np.allclose(derivs, chafee_rhs_3(states, NU)[:, :2], atol=1e-14)


def test_learned_field_validation():
    net = init_mlp((2, 8, 2), seed=0)
    with pytest.raises(ValueError, match="analytic base"):
        LearnedField(kind="gray-box", dim=2, net=net)
    with pytest.raises(ValueError, match="kind"):
        LearnedField(kind="purple-box", dim=2, net=net)
    with pytest.raises(ValueError, match="dim -> dim"):
        LearnedField(kind="black-box", dim=3, net=net)


@pytest.mark.parametrize("kind, base", [
    ("black-box", analytic_field("chafee", 2, NU)),  # only a gray-box adds a base
    ("truncated", analytic_field("chafee", 2, NU)),  # a truncation has no net
    ("truncated", None),
])
def test_a_learned_field_kind_and_base_follow_the_dynamics_table(kind, base):
    with pytest.raises(ValueError, match="analytic base|learned field kind"):
        LearnedField(kind=kind, dim=2, net=init_mlp((2, 8, 2), seed=0), base=base)


def test_gray_box_eval_adds_base():
    base = analytic_field("chafee", 2, NU)
    net = init_mlp((2, 8, 2), seed=1)
    lf = LearnedField(kind="gray-box", dim=2, net=net, base=base)
    a = np.array([0.5, -0.2])
    assert np.allclose(lf.eval(a), forward(net, a) + base.eval(a), atol=1e-14)


def test_learn_black_box_fits_smooth_field(chafee_snapshots):
    field = analytic_field("chafee", 3, NU)
    inputs, derivs = build_derivative_dataset(chafee_snapshots, field, 2)
    lf, _ = learn_field(
        inputs, derivs,
        hidden=(32, 32),
        train_cfg=TrainConfig(learning_rate=2e-3, epochs=120, batch_size=64, seed=0),
    )
    assert lf.kind == "black-box"
    # the trained field on its own inputs, not the history's batch losses
    assert float(np.mean((lf.eval(inputs) - derivs) ** 2)) < 5e-4
    traj = rk4(lf, np.array([1.0, 0.5]), 1.0, 1e-3)
    assert np.all(np.isfinite(traj.states))


def test_learn_gray_box_residual_is_small_on_slaved_data(chafee_snapshots):
    field = analytic_field("chafee", 3, NU)
    inputs, derivs = build_derivative_dataset(chafee_snapshots, field, 2)
    base = analytic_field("chafee", 2, NU)
    lf, _ = learn_field(
        inputs, derivs,
        hidden=(24, 24),
        train_cfg=TrainConfig(learning_rate=2e-3, epochs=120, batch_size=64, seed=0),
        base=base,
    )
    assert lf.kind == "gray-box"
    assert lf.base is base
    # the learned field on its training inputs should be no worse than
    # the truncation residual it was fitted to
    resid = derivs - np.asarray(base.eval(inputs))
    assert float(np.mean((lf.eval(inputs) - derivs) ** 2)) < float(np.mean(resid**2))


def test_learn_field_starts_its_net_from_the_train_seed(chafee_snapshots):
    inputs, derivs = build_derivative_dataset(
        chafee_snapshots, analytic_field("chafee", 3, NU), 2)
    base = analytic_field("chafee", 2, NU)
    cfg = TrainConfig(epochs=3, seed=7)
    lf, hist = learn_field(inputs, derivs, hidden=(8,), train_cfg=cfg, base=base)
    net, expected = train(init_mlp((2, 8, 2), seed=7), inputs,
                          derivs - base.eval(inputs), cfg)
    for got, want in zip(lf.net.weights + lf.net.biases, net.weights + net.biases):
        assert np.array_equal(got, want)
    assert np.array_equal(hist.train_mse, expected.train_mse)


def test_learn_field_rejects_misaligned_arrays():
    with pytest.raises(ValueError, match="must align"):
        learn_field(np.zeros((5, 2)), np.zeros((4, 2)), hidden=(4,),
                    train_cfg=TrainConfig(epochs=1))


def test_pipeline_config_pads_reduced_ic():
    cfg = base_cfg(ic=(1.0, 0.5))
    assert cfg.ic == (1.0, 0.5, 0.0)
    assert cfg.n_low == 2
    assert cfg.n_full == 3


@pytest.mark.parametrize("ic", [((1.0, 0.5), (0.1, 0.0)), ({},)], ids=["nested", "mapping"])
def test_an_ic_that_is_not_a_flat_list_of_numbers_is_a_configuration_error(ic):
    with pytest.raises(ConfigurationError, match="ic must be a flat list of numbers"):
        base_cfg(ic=ic)


def test_pipeline_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        base_cfg(model="navier")
    with pytest.raises(ConfigurationError):
        base_cfg(ic=(1.0,))
    with pytest.raises(ConfigurationError):
        base_cfg(final_time=-1.0)
    with pytest.raises(ConfigurationError, match="grid_points must be at least 2"):
        base_cfg(grid_points=1)


def test_the_decomposition_does_not_depend_on_the_grid():
    # it is exact from the coefficients, so a 5-node grid gives the 65-node bits
    coarse, fine = (run_pipeline(base_cfg(final_time=1.0, dt=1e-2, grid_points=n), {})
                    for n in (5, 65))
    assert coarse.decomposition == fine.decomposition


def test_pipeline_compatibility_matrix():
    with pytest.raises(ConfigurationError, match="euler-galerkin"):
        validate_pipeline(base_cfg(latent_route="dmaps"), {})
    with pytest.raises(ConfigurationError, match="dmaps route"):
        validate_pipeline(base_cfg(closure="double-dmaps"), {})
    with pytest.raises(ConfigurationError, match="autoencoder route"):
        validate_pipeline(base_cfg(closure="decoder-inversion"), {})
    with pytest.raises(ConfigurationError, match="analytic base"):
        validate_pipeline(base_cfg(latent_route="pod", dynamics="gray-box", closure="none"), {})
    with pytest.raises(MissingArtifactError):
        validate_pipeline(base_cfg(dynamics="black-box"), {})
    with pytest.raises(MissingArtifactError):
        validate_pipeline(base_cfg(closure="mlp"), {})
    # the pod artifact is asked for first, before the nets the route also needs
    with pytest.raises(MissingArtifactError, match="artifact 'pod'"):
        validate_pipeline(base_cfg(latent_route="pod", dynamics="black-box", closure="mlp"), {})


# the (route, dynamics, closure) triples a pipeline accepts before it reads an artifact
ACCEPTED = {
    ("fourier", "truncated", "euler-galerkin"), ("fourier", "black-box", "euler-galerkin"),
    ("fourier", "gray-box", "euler-galerkin"),
    ("fourier", "truncated", "mlp"), ("fourier", "black-box", "mlp"),
    ("fourier", "gray-box", "mlp"),
    ("fourier", "truncated", "none"), ("fourier", "black-box", "none"),
    ("fourier", "gray-box", "none"),
    ("pod", "black-box", "mlp"), ("pod", "black-box", "none"),
    ("autoencoder", "truncated", "decoder-inversion"),
    ("autoencoder", "black-box", "decoder-inversion"),
    ("autoencoder", "gray-box", "decoder-inversion"),
    ("autoencoder", "truncated", "none"), ("autoencoder", "black-box", "none"),
    ("autoencoder", "gray-box", "none"),
    ("dmaps", "truncated", "double-dmaps"), ("dmaps", "black-box", "double-dmaps"),
    ("dmaps", "gray-box", "double-dmaps"),
    ("dmaps", "truncated", "none"), ("dmaps", "black-box", "none"), ("dmaps", "gray-box", "none"),
}


@pytest.mark.parametrize("route", ["fourier", "pod", "autoencoder", "dmaps"])
@pytest.mark.parametrize("dynamics", ["truncated", "black-box", "gray-box"])
@pytest.mark.parametrize("closure",
                         ["euler-galerkin", "mlp", "double-dmaps", "decoder-inversion", "none"])
def test_every_route_dynamics_and_closure_triple(route, dynamics, closure):
    cfg = base_cfg(latent_route=route, dynamics=dynamics, closure=closure)
    if (route, dynamics, closure) in ACCEPTED:
        try:
            validate_pipeline(cfg, {})
        except MissingArtifactError:
            pass
    else:
        with pytest.raises(ConfigurationError):
            validate_pipeline(cfg, {})


def _counting(monkeypatch, name):
    """Replace rom.<name> by a wrapper that records each call."""
    calls = []
    real = getattr(rom, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rom, name, counted)
    return calls


def test_an_undamped_slaved_mode_fails_before_any_integration(monkeypatch):
    # at nu = 70 the first slaved KS mode has A_4 = 4 * 4**4 - 70 * 4**2 = -96
    calls = _counting(monkeypatch, "rk4")
    cfg = PipelineConfig("ks", "fourier", "truncated", "euler-galerkin", (0.1,) * 8,
                         0.01, 1e-4, nu=70.0)
    with pytest.raises(ValueError, match="k = 4 has A = -96"):
        run_pipeline(cfg, {})
    assert calls == []


def test_a_mismatched_closure_net_fails_before_any_integration(monkeypatch):
    calls = _counting(monkeypatch, "rk4")
    with pytest.raises(ConfigurationError, match="closure-net must map"):
        run_pipeline(base_cfg(closure="mlp"), {"closure-net": init_mlp((3, 8, 1), seed=0)})
    assert calls == []


@pytest.mark.parametrize("snapshots, message", [
    (np.random.default_rng(0).normal(size=(20, 33)), "different grid"),
    (np.random.default_rng(0).normal(size=(2, 65)), "rank 2 is below the model's full width 3"),
])
def test_a_mismatched_pod_artifact_fails_before_any_integration(monkeypatch, snapshots,
                                                                message):
    calls = _counting(monkeypatch, "rk4")
    cfg = base_cfg(latent_route="pod", dynamics="black-box", closure="none")
    with pytest.raises(ConfigurationError, match=message):
        run_pipeline(cfg, {"pod": pod_fit(snapshots, center=False)})
    assert calls == []


def _lift(d_in, d_out):
    rng = np.random.default_rng(0)
    return gh_fit(rng.normal(size=(20, d_in)), rng.normal(size=(20, d_out)))


DD_CFG = dict(latent_route="dmaps", closure="double-dmaps")


@pytest.mark.parametrize("cfg, artifacts, message", [
    (dict(dynamics="black-box", closure="none"),
     {"dynamics-net": LearnedField("black-box", 3, init_mlp((3, 8, 3), seed=0))},
     "dynamics-net dimension 3 does not match the reduced space"),
    (DD_CFG, {"latent-map": init_mlp((3, 8, 2), seed=0), "lift": _lift(2, 3)},
     "latent-map input width must match the lead block"),
    (DD_CFG, {"latent-map": init_mlp((2, 8, 3), seed=0), "lift": _lift(2, 3)},
     "latent-map output width must match the lift's input width"),
    (DD_CFG, {"latent-map": init_mlp((2, 8, 2), seed=0), "lift": _lift(2, 2)},
     "lift output width must match the full coefficient vector"),
    (dict(latent_route="autoencoder", closure="decoder-inversion"),
     {"autoencoder": init_autoencoder(4, 2, (8,), seed=0)},
     "autoencoder ambient width must match the full state"),
], ids=["dynamics-net", "latent-map-input", "latent-map-output", "lift-output", "autoencoder"])
def test_a_mismatched_artifact_width_fails_before_any_integration(monkeypatch, cfg, artifacts,
                                                                  message):
    calls = _counting(monkeypatch, "rk4")
    with pytest.raises(ConfigurationError, match=message):
        run_pipeline(base_cfg(**cfg), artifacts)
    assert calls == []


# for each role, a pipeline that reads it and the artifacts it reads before it
ROLE_PIPELINES = {
    "dynamics-net": (dict(dynamics="black-box", closure="none"), {}),
    "closure-net": (dict(closure="mlp"), {}),
    "latent-map": (DD_CFG, {}),
    "lift": (DD_CFG, {"latent-map": init_mlp((2, 8, 2), seed=0)}),
    "autoencoder": (dict(latent_route="autoencoder", closure="decoder-inversion"), {}),
    "pod": (dict(latent_route="pod", dynamics="black-box", closure="none"), {}),
}


@pytest.mark.parametrize("role", sorted(rom.ARTIFACT_ROLES))
def test_an_artifact_of_the_wrong_type_fails_before_any_integration(monkeypatch, role):
    cfg, artifacts = ROLE_PIPELINES[role]
    wrong = init_mlp((2, 8, 1), seed=0) if role == "pod" else pod_fit(np.eye(3))
    calls = _counting(monkeypatch, "rk4")
    expected = rom.ARTIFACT_ROLES[role].__name__
    with pytest.raises(ConfigurationError, match=f"artifact '{role}' must be of type "
                                                 f"{expected}, not {type(wrong).__name__}"):
        run_pipeline(base_cfg(**cfg), {**artifacts, role: wrong})
    assert calls == []


def test_an_ensemble_checks_every_pipeline_before_the_first_runs(monkeypatch):
    calls = _counting(monkeypatch, "rk4")
    with pytest.raises(MissingArtifactError, match="closure-net"):
        ensemble_histogram([base_cfg(closure="none"), base_cfg(closure="mlp")], {},
                           [[0.5, 1.2], [-0.5, 0.5], [-0.2, 0.2]], n_ic=4, seed=5)
    assert calls == []


def test_a_mismatched_closure_net_fails_an_ensemble_whose_truths_all_blow_up(monkeypatch):
    # at dt = 0.3 every 3-mode truth from a3 in [8, 9] blows up
    box = [[-1.0, 1.0], [-1.0, 1.0], [8.0, 9.0]]
    ics = np.array(box)[:, 0] + np.ptp(box, axis=1) * np.random.default_rng(5).random((4, 3))
    assert not np.isnan(rk4(analytic_field("chafee", 3, NU), ics, 3.0, 0.3).blowup_times).any()
    calls = _counting(monkeypatch, "rk4")
    artifacts = {"closure-net": init_mlp((3, 8, 1), seed=0)}
    with pytest.raises(ConfigurationError, match="closure-net must map"):
        ensemble_histogram([base_cfg(final_time=3.0, dt=0.3, closure="mlp")], artifacts, box,
                           n_ic=4, seed=5)
    assert calls == []


def test_pipeline_label_and_with_ic():
    cfg = base_cfg()
    assert cfg.label() == "chafee/fourier/truncated/euler-galerkin"
    moved = cfg.with_ic(np.array([0.5, 0.1, 0.0]), final_time=1.0)
    assert moved.ic == (0.5, 0.1, 0.0)
    assert moved.final_time == 1.0
    assert cfg.final_time == 5.0


def test_truncated_euler_galerkin_pipeline_end_to_end():
    cfg = base_cfg()
    res = run_pipeline(cfg, {})
    # low modes pass through untouched; the tail is the analytic slaving map
    assert np.array_equal(res.corrected_coeffs[:2], res.reduced.final_state)
    p = res.reduced.final_state
    assert res.corrected_coeffs[2] == pytest.approx(alpha3(p[0], p[1], NU), abs=1e-12)
    # the correction must beat plain truncation at the final time
    assert res.corrected_metrics.mape_final < res.raw_metrics.mape_final
    assert res.decomposition.delta_corrected < res.decomposition.delta_truncated
    assert res.error_series.shape == res.reduced.times.shape
    assert res.truth.states.shape == (5001, 3)


def test_decoder_inversion_runs_once_per_scored_run(monkeypatch):
    calls = _counting(monkeypatch, "decoder_invert")
    cfg = base_cfg(latent_route="autoencoder", closure="decoder-inversion", final_time=0.1,
                   dt=1e-2)
    artifacts = {"autoencoder": init_autoencoder(3, 2, (8,), seed=0)}
    res = run_pipeline(cfg, artifacts)
    assert len(calls) == 1
    assert res.decomposition is not None
    calls.clear()
    ics = [(1.0, 0.5, 0.1), (0.5, -0.3, 0.0), (-0.8, 0.2, 0.1)]
    results = list(run_pipeline_batch([cfg.with_ic(ic) for ic in ics], artifacts))
    assert all(isinstance(r, PipelineResult) for r in results)
    assert len(calls) == 3


def test_ks_euler_galerkin_pipeline_appends_the_slaved_tail():
    ic = (0.5, -0.4, 0.3, 0.1, -0.1, 0.05, 0.0, 0.0)
    res = run_pipeline(PipelineConfig("ks", "fourier", "truncated", "euler-galerkin", ic,
                                      0.01, 1e-4), {})
    low = res.reduced.final_state
    assert np.array_equal(res.corrected_coeffs[:3], low)
    tail = euler_galerkin_closure("ks", 3, 8, 33.0)(low)
    assert tail.shape == (5,)
    assert np.array_equal(res.corrected_coeffs[3:], tail)


def test_pipeline_is_deterministic():
    cfg = base_cfg()
    r1 = run_pipeline(cfg, {})
    r2 = run_pipeline(cfg, {})
    assert np.array_equal(r1.corrected_coeffs, r2.corrected_coeffs)
    assert r1.corrected_metrics.mape_final == r2.corrected_metrics.mape_final


def test_zero_closure_is_plain_truncation(pod_artifacts):
    # a none closure leaves the zero-padded raw state, which is how the raw
    # run is scored, so on every route it scores exactly its raw run
    chafee = base_cfg(closure="none", final_time=1.0, dt=1e-2)
    cases = [(chafee, CHAFEE_BOX, {}),
             (PipelineConfig("ks", "fourier", "truncated", "none", (0.0,) * 8, 0.01, 1e-4),
              KS_BOX, {}),
             (replace(chafee, latent_route="pod", dynamics="black-box"), CHAFEE_BOX,
              pod_artifacts)]
    for cfg, box, artifacts in cases:
        ics = draw_in_box(box, 10, seed=7)
        for res in run_pipeline_batch([cfg.with_ic(ic) for ic in ics], artifacts):
            assert not np.any(res.corrected_coeffs[cfg.n_low:])
            assert res.corrected_metrics == res.raw_metrics
            assert res.u_corrected.tobytes() == res.u_raw.tobytes()


def test_mlp_closure_pipeline_beats_truncation(closure_net):
    cfg = base_cfg(closure="mlp")
    res = run_pipeline(cfg, {"closure-net": closure_net})
    assert res.corrected_metrics.mape_final < res.raw_metrics.mape_final


def test_black_box_pipeline_runs(chafee_snapshots):
    field = analytic_field("chafee", 3, NU)
    inputs, derivs = build_derivative_dataset(chafee_snapshots, field, 2)
    lf, _ = learn_field(
        inputs, derivs,
        hidden=(32, 32),
        train_cfg=TrainConfig(learning_rate=2e-3, epochs=150, batch_size=64, seed=1),
    )
    cfg = base_cfg(dynamics="black-box", closure="none", final_time=2.0)
    res = run_pipeline(cfg, {"dynamics-net": lf})
    assert np.all(np.isfinite(res.reduced.states))
    # a field trained on attractor data should track the truth leading mode
    assert abs(res.reduced.final_state[0] - res.truth.final_state[0]) < 0.2


def test_dynamics_net_kind_must_match(chafee_snapshots):
    field = analytic_field("chafee", 3, NU)
    inputs, derivs = build_derivative_dataset(chafee_snapshots, field, 2)
    lf, _ = learn_field(inputs, derivs, hidden=(8,), train_cfg=TrainConfig(epochs=2, seed=0))
    with pytest.raises(ConfigurationError, match="kind"):
        run_pipeline(base_cfg(dynamics="gray-box"), {"dynamics-net": lf})


def _gray_box(model, dim, nu):
    return LearnedField(kind="gray-box", dim=dim, net=init_mlp((dim, 8, dim), seed=0),
                        base=analytic_field(model, dim, nu))


@pytest.mark.parametrize("net, cfg", [
    (_gray_box("chafee", 3, NU), PipelineConfig("ks", "fourier", "gray-box", "none",
                                                (0.1,) * 8, 0.01, 1e-4)),
    (_gray_box("chafee", 2, 0.3), base_cfg(dynamics="gray-box", closure="none")),
], ids=["chafee-base-in-ks", "nu-0.3-base-at-0.16"])
def test_a_gray_box_on_another_base_fails_before_any_integration(monkeypatch, net, cfg):
    calls = _counting(monkeypatch, "rk4")
    with pytest.raises(ConfigurationError, match="dynamics-net base"):
        run_pipeline(cfg, {"dynamics-net": net})
    assert calls == []


def test_a_gray_box_base_that_names_no_analytic_field_is_a_configuration_error():
    # the pipeline's own base field, under no name
    base = VectorField(2, analytic_field("chafee", 2, NU).eval)
    net = LearnedField("gray-box", 2, init_mlp((2, 8, 2), seed=0), base)
    with pytest.raises(ConfigurationError, match="cannot rebuild analytic field from name ''"):
        validate_pipeline(base_cfg(dynamics="gray-box", closure="none"), {"dynamics-net": net})


@pytest.mark.parametrize("base_nu, nu", [(1, 1.0), (1.0, 1)])
def test_a_gray_box_base_matches_the_pipeline_nu_as_a_number(base_nu, nu):
    # one side names its field "chafee-2(nu=1)", the other "chafee-2(nu=1.0)"
    cfg = base_cfg(dynamics="gray-box", closure="none", nu=nu, final_time=0.1, dt=1e-2)
    res = run_pipeline(cfg, {"dynamics-net": _gray_box("chafee", 2, base_nu)})
    assert np.all(np.isfinite(res.reduced.states))


@pytest.fixture(scope="module")
def pod_artifacts(chafee_snapshots):
    # build grid-field snapshots, fit POD, learn 2d dynamics + 1d closure
    grid = uniform_grid(MODELS["chafee"].length, 65)
    sines = np.sin(np.outer(grid, np.arange(1, 4)))
    fields = chafee_snapshots @ sines.T
    pod = pod_fit(fields)

    coeffs3 = (fields - pod.mean) @ pod.modes[:, :3]
    # analytic coefficient derivatives mapped through the (linear) projection
    dfields = chafee_rhs_3(chafee_snapshots, NU) @ sines.T
    dcoeffs = dfields @ pod.modes[:, :2]
    lf, _ = learn_field(
        coeffs3[:, :2], dcoeffs, hidden=(32, 32),
        train_cfg=TrainConfig(learning_rate=2e-3, epochs=150, batch_size=64, seed=2),
    )
    cnet, _ = train(
        init_mlp((2, 16, 1), seed=3),
        coeffs3[:, :2],
        coeffs3[:, 2:3],
        TrainConfig(learning_rate=2e-3, epochs=100, batch_size=64, seed=3),
    )
    return {"pod": pod, "dynamics-net": lf, "closure-net": cnet}


def test_pod_route_pipeline(pod_artifacts):
    cfg = base_cfg(latent_route="pod", dynamics="black-box", closure="mlp", final_time=2.0)
    res = run_pipeline(cfg, pod_artifacts)
    assert res.corrected_coeffs.shape == (3,)
    assert np.isfinite(res.corrected_metrics.mape_final)
    assert res.decomposition is None


def _pod_by_hand(cfg, artifacts, ics):
    """The pod pipeline from public parts: per row (corrected coeffs, u_raw,
    u_corrected, error_series), each run batched over the rows of ics."""
    pod, net = artifacts["pod"], artifacts["closure-net"]
    grid = uniform_grid(MODELS["chafee"].length, cfg.grid_points)
    truth = rk4(analytic_field("chafee", 3, NU), ics, cfg.final_time, cfg.dt)
    starts = pod_project(pod, reconstruct(ics, grid), 2)
    reduced = rk4(artifacts["dynamics-net"], starts, cfg.final_time, cfg.dt)
    closure = Closure(n_low=2, n_high=1, map=lambda p: forward(net, p))
    rows = []
    for k in range(len(ics)):
        # the raw run as the full-width states a zero closure leaves
        u_raw = pod_lift(pod, np.pad(reduced.row(k).states, ((0, 0), (0, 1))))
        coeffs = postprocess(reduced.row(k).final_state, closure)
        rows.append((coeffs, u_raw[-1], pod_lift(pod, coeffs),
                     mape_series(u_raw, reconstruct(truth.row(k).states, grid))))
    return rows


def test_pod_route_matches_its_assembly_from_public_functions(pod_artifacts):
    # no benchmark workload runs the pod route, so its bits are pinned here
    cfg = base_cfg(latent_route="pod", dynamics="black-box", closure="mlp", final_time=2.0)
    ics = np.array([[1.0, 0.5, 0.1], [0.6, -0.3, 0.2], [-0.8, 0.2, -0.1]])
    cases = [([run_pipeline(cfg, pod_artifacts)], _pod_by_hand(cfg, pod_artifacts, ics[:1])),
             (list(run_pipeline_batch([cfg.with_ic(ic) for ic in ics], pod_artifacts)),
              _pod_by_hand(cfg, pod_artifacts, ics))]
    for results, expected in cases:
        for res, parts in zip(results, expected, strict=True):
            got = (res.corrected_coeffs, res.u_raw, res.u_corrected, res.error_series)
            assert all(np.array_equal(a, b) for a, b in zip(got, parts))
            assert res.decomposition is None


def test_ensemble_histogram_is_deterministic():
    cfgs = [base_cfg(final_time=1.0), base_cfg(final_time=1.0, closure="none")]
    box = np.array([[0.5, 1.2], [-0.5, 0.5], [-0.2, 0.2]])
    r1 = ensemble_histogram(cfgs, {}, box, n_ic=6, seed=5, bins=8)
    r2 = ensemble_histogram(cfgs, {}, box, n_ic=6, seed=5, bins=8)
    assert r1.labels == (
        "chafee/fourier/truncated/euler-galerkin",
        "chafee/fourier/truncated/none",
    )
    for a, b in zip(r1.samples, r2.samples):
        assert np.array_equal(a, b)
    assert all(c.sum() == 6 for c in r1.counts)
    # the corrected arm should typically do better than plain truncation
    assert np.mean(r1.samples[0]) < np.mean(r1.samples[1])


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["black-box", "gray-box"]),
    model=st.sampled_from(["chafee", "ks"]),
    n_traj=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_batched_rk4_matches_per_row_for_learned_fields(kind, model, n_traj, seed):
    # A batch of rows goes through the network's matrix products in one
    # block, a single row in its own; the blocking changes the summation
    # order, so one evaluation differs by up to about 3e-14 relative.  Each
    # step adds dt times such an evaluation, so over 100 steps the rows stay
    # within 1e-12 of the trajectory's size (about 5e-16 is typical).
    dim, base, dt = (2, analytic_field("chafee", 2, NU), 1e-2) if model == "chafee" else (3, analytic_field("ks", 3, 33.0), 1e-4)
    net = init_mlp((dim, 24, 24, dim), seed=seed)
    lf = LearnedField(kind=kind, dim=dim, net=net, base=base if kind == "gray-box" else None)
    a0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_traj, dim))
    batch = rk4(lf, a0, 100 * dt, dt)
    for k in range(n_traj):
        solo = rk4(lf, a0[k], 100 * dt, dt).states
        assert np.max(np.abs(batch.row(k).states - solo)) <= 1e-12 * np.max(np.abs(solo))


def _per_ic_ensemble(configs, artifacts, ic_box, n_ic, seed, final_time=None):
    """The ensemble as one run_pipeline per pipeline and initial condition."""
    box = np.asarray(ic_box, dtype=float)
    rng = np.random.default_rng(seed)
    ics = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((n_ic, box.shape[0]))
    samples, failed = [], []
    for cfg in configs:
        errs = []
        for ic in ics:
            try:
                errs.append(run_pipeline(cfg.with_ic(ic, final_time), artifacts)
                            .corrected_metrics.mape_final)
            except BlowUpError:
                pass
        samples.append(np.array(errs))
        failed.append(n_ic - len(errs))
    return samples, tuple(failed)


CHAFEE_BOX = [[-1.2, 1.2], [-0.6, 0.6], [-0.4, 0.4]]
KS_BOX = [[-1.0, 1.0]] * 2 + [[-0.5, 0.5]] * 6


@settings(max_examples=10, deadline=None)
@given(model=st.sampled_from(["chafee", "ks"]), n_ic=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_ensemble_equals_the_per_ic_pipeline_loop_bitwise(closure_net, model, n_ic, seed):
    if model == "chafee":
        eg = base_cfg(final_time=1.0, dt=1e-2)
        configs = [eg, replace(eg, closure="mlp"), replace(eg, closure="none")]
        box = CHAFEE_BOX
    else:
        configs = [PipelineConfig("ks", "fourier", "truncated", "none", (0.0,) * 8, 0.01, 1e-4)]
        box = KS_BOX
    artifacts = {"closure-net": closure_net}
    result = ensemble_histogram(configs, artifacts, box, n_ic=n_ic, seed=seed, bins=5)
    samples, failed = _per_ic_ensemble(configs, artifacts, box, n_ic, seed)
    assert result.failed == failed
    for got, want in zip(result.samples, samples):
        assert got.tobytes() == want.tobytes()


def test_a_truth_blowup_fails_that_initial_condition_in_every_pipeline(closure_net):
    # at dt = 0.3 the 3-mode truth blows up from a3 >= 4, the 2-mode
    # truncation never sees a3; seed 5 draws exactly one such start
    box = [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 5.0]]
    eg = base_cfg(final_time=3.0, dt=0.3)
    configs = [eg, replace(eg, closure="mlp"), replace(eg, closure="none")]
    artifacts = {"closure-net": closure_net}
    result = ensemble_histogram(configs, artifacts, box, n_ic=5, seed=5, bins=4)
    ics = np.array(box)[:, 0] + np.ptp(box, axis=1) * np.random.default_rng(5).random((5, 3))
    truth = rk4(analytic_field("chafee", 3, NU), ics, 3.0, 0.3)
    assert np.count_nonzero(~np.isnan(truth.blowup_times)) == 1
    assert np.all(np.isnan(rk4(analytic_field("chafee", 2, NU), ics[:, :2], 3.0, 0.3).blowup_times))
    assert result.failed == (1, 1, 1)
    samples, failed = _per_ic_ensemble(configs, artifacts, box, 5, 5)
    assert failed == result.failed
    for got, want in zip(result.samples, samples):
        assert got.tobytes() == want.tobytes()


def test_an_ensemble_records_each_initial_condition_whose_closure_overflows():
    # tanh(1e8 a1) is +-1 away from a1 = 0; the output layer then gives
    # 1e10 * (1e300 + 1e300) = inf for a1 > 0 and 1e10 * (1e300 - 1e300) = 0 below
    net = Mlp(layer_sizes=(2, 1, 1), weights=(np.array([[1e8, 0.0]]), np.array([[1e300]])),
              biases=(np.zeros(1), np.array([1e300])), x_shift=np.zeros(2),
              x_scale=np.ones(2), y_shift=np.zeros(1), y_scale=np.full(1, 1e10))
    box = [[-1.0, 1.0], [-0.5, 0.5], [-0.2, 0.2]]
    eg = base_cfg(final_time=1.0, dt=1e-2)
    configs = [replace(eg, closure="mlp"), replace(eg, closure="none")]
    with np.errstate(over="ignore"):
        result = ensemble_histogram(configs, {"closure-net": net}, box, n_ic=8, seed=3)
    ics = np.array(box)[:, 0] + np.ptp(box, axis=1) * np.random.default_rng(3).random((8, 3))
    a1 = rk4(analytic_field("chafee", 2, NU), ics[:, :2], 1.0, 1e-2).states[-1, :, 0]
    overflowing = np.flatnonzero(a1 > 0)
    assert 0 < overflowing.size < 8 and np.min(np.abs(a1)) > 1e-6
    assert result.failed == (overflowing.size, 0)
    assert [(label, k) for label, k, _ in result.failures] == [
        (configs[0].label(), int(k)) for k in overflowing]
    for _, _, exc in result.failures:
        assert type(exc) is NumericalFailure and "not finite" in str(exc)
    assert result.samples[0].size == 8 - overflowing.size
    assert result.samples[1].size == 8
    # samples and failures number the initial conditions alike: by their draw
    failed = {k for _, k, _ in result.failures}
    assert failed.isdisjoint(result.ic_indices[0])
    assert sorted(failed | set(result.ic_indices[0])) == list(range(8))
    assert result.ic_indices[1] == tuple(range(8))
