"""Reduced-order pipelines: learned vector fields, closures, end-to-end runs.

A pipeline integrates a reduced model (analytic truncation or a learned
field), applies a closure once at the final time to append the unresolved
modes, and scores the assembled state against a ground-truth run from the
same initial condition.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import ConfigurationError, MissingArtifactError, NumericalFailure
from .aim import Closure, euler_galerkin_closure, postprocess, zero_closure
from .dmaps import gh_extend
from .integrate import rk4
from .metrics import MetricsBundle, decompose_errors, mape, mape_series, mse
from .models import MODELS, VectorField, analytic_field
from .nn import Mlp, decode, decoder_invert, forward, init_mlp, train
from .pod import pod_lift, pod_project
from .spectral import reconstruct, uniform_grid

__all__ = [
    "ConfigurationError",
    "MissingArtifactError",
    "DerivativeDataset",
    "LearnedField",
    "PipelineConfig",
    "PipelineResult",
    "build_derivative_dataset",
    "make_closure_dataset",
    "learn_field",
    "run_pipeline",
    "run_pipeline_batch",
    "validate_pipeline",
]

# each latent route and the closures it runs; pod also takes black-box dynamics only
ROUTES = {"fourier": ("euler-galerkin", "mlp", "none"), "pod": ("mlp", "none"),
          "autoencoder": ("decoder-inversion", "none"), "dmaps": ("double-dmaps", "none")}
DYNAMICS = ("truncated", "black-box", "gray-box")
CLOSURES = tuple(dict.fromkeys(c for closures in ROUTES.values() for c in closures))
ARTIFACT_ROLES = ("dynamics-net", "closure-net", "latent-map", "lift", "autoencoder", "pod")


@dataclass(frozen=True)
class DerivativeDataset:
    """Supervised pairs (reduced state, reduced time derivative)."""

    inputs: np.ndarray = field(repr=False)
    derivs: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.derivs, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("inputs and derivs must be aligned 2d arrays")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "derivs", y)


def build_derivative_dataset(states, full_field, n_lead):
    """Leading-block derivative targets from full snapshots.

    Inputs are the snapshots' leading n_lead coefficients, targets the first
    n_lead components of the full analytic right-hand side on each snapshot.
    """
    s = np.asarray(states, dtype=float)
    if s.ndim != 2 or s.shape[1] != full_field.dim:
        raise ValueError("states must be (n, full dim)")
    if not (1 <= n_lead < full_field.dim):
        raise ValueError("n_lead must be below the full dimension")
    derivs = np.asarray(full_field.eval(s), dtype=float)[:, :n_lead]
    return DerivativeDataset(inputs=s[:, :n_lead], derivs=derivs)


def make_closure_dataset(states, n_low):
    """Split full snapshots into (leading block, tail block) training pairs."""
    s = np.asarray(states, dtype=float)
    if s.ndim != 2 or not (1 <= n_low < s.shape[1]):
        raise ValueError("states must be (n, d) with 1 <= n_low < d")
    return s[:, :n_low], s[:, n_low:]


@dataclass(frozen=True)
class LearnedField:
    """Vector field backed by a network, optionally around an analytic base.

    kind "black-box": da/dt = net(a).  kind "gray-box": da/dt =
    base(a) + net(a), the network learning only the truncation residual.
    """

    kind: str
    dim: int
    net: Mlp
    base: VectorField = None

    def __post_init__(self):
        if self.kind not in ("black-box", "gray-box"):
            raise ValueError(f"unknown learned field kind: {self.kind!r}")
        if self.kind == "gray-box" and self.base is None:
            raise ValueError("gray-box fields need an analytic base")
        if self.net.d_in != self.dim or self.net.d_out != self.dim:
            raise ValueError("network must map dim -> dim")

    def eval(self, a):
        out = forward(self.net, a)
        if self.base is not None:
            out = out + self.base.eval(a)
        return out


def learn_field(dataset, hidden, train_cfg, seed=0, base=None):
    """Fit a learned vector field to the dataset; returns (field, history).

    Without a base the network fits da/dt itself (black-box); with an
    analytic base it fits only the residual da/dt - base(a) (gray-box).
    """
    d = dataset.inputs.shape[1]
    target = dataset.derivs
    if base is not None:
        if base.dim != d:
            raise ValueError("base field dimension must match the dataset")
        target = target - np.asarray(base.eval(dataset.inputs), dtype=float)
    net = init_mlp((d,) + tuple(hidden) + (d,), seed=seed)
    trained, hist = train(net, dataset.inputs, target, train_cfg)
    kind = "black-box" if base is None else "gray-box"
    return LearnedField(kind=kind, dim=d, net=trained, base=base), hist


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end run description.

    ic is the full-model initial coefficient vector (a reduced-width ic is
    zero-padded).  Every route runs at the model's n_low/n_full widths: for the
    pod route in POD coefficients, everywhere else in the leading sine modes.
    """

    model: str
    latent_route: str
    dynamics: str
    closure: str
    ic: tuple
    final_time: float
    dt: float
    seed: int = 0
    nu: float = None
    grid_points: int = 65

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigurationError(f"unknown model: {self.model!r}")
        if self.latent_route not in ROUTES:
            raise ConfigurationError(f"unknown latent route: {self.latent_route!r}")
        if self.dynamics not in DYNAMICS:
            raise ConfigurationError(f"unknown dynamics: {self.dynamics!r}")
        if self.closure not in CLOSURES:
            raise ConfigurationError(f"unknown closure: {self.closure!r}")
        spec = MODELS[self.model]
        n_low, n_full = spec.n_low, spec.n_full
        ic = tuple(float(v) for v in np.atleast_1d(np.asarray(self.ic, dtype=float)))
        if len(ic) == n_low:
            ic = ic + (0.0,) * (n_full - n_low)
        if len(ic) != n_full:
            raise ConfigurationError(
                f"ic must have {n_low} or {n_full} components for model {self.model}"
            )
        object.__setattr__(self, "ic", ic)
        if self.nu is None:
            object.__setattr__(self, "nu", spec.nu)
        if self.final_time <= 0 or self.dt <= 0:
            raise ConfigurationError("final_time and dt must be positive")
        if self.grid_points < 2 * (2 * n_full) + 1:
            raise ConfigurationError("grid_points too small for exact projection")

    @property
    def n_low(self):
        return MODELS[self.model].n_low

    @property
    def n_full(self):
        return MODELS[self.model].n_full

    def basis(self, n_modes):
        return MODELS[self.model].basis(n_modes)

    def with_ic(self, ic, final_time=None):
        t = self.final_time if final_time is None else float(final_time)
        return replace(self, ic=tuple(np.asarray(ic, dtype=float)), final_time=t)

    def label(self):
        return f"{self.model}/{self.latent_route}/{self.dynamics}/{self.closure}"


@dataclass(frozen=True)
class PipelineResult:
    """A scored run; u_truth, u_raw and u_corrected are the final-time fields
    at the grid points x, error_series the raw run's percent error at each of
    reduced.times."""

    config: PipelineConfig
    truth: object
    reduced: object
    corrected_coeffs: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    u_truth: np.ndarray = field(repr=False)
    u_raw: np.ndarray = field(repr=False)
    u_corrected: np.ndarray = field(repr=False)
    error_series: np.ndarray = field(repr=False)
    raw_metrics: MetricsBundle = None
    corrected_metrics: MetricsBundle = None
    decomposition: object = None


def _artifact(artifacts, name):
    if name not in artifacts:
        raise MissingArtifactError(f"pipeline needs artifact {name!r}")
    return artifacts[name]


def validate_pipeline(cfg, artifacts):
    """Check cfg and its artifacts before any computation runs; returns the
    reduced field and the closure, whose builds check each artifact's fit."""
    if cfg.closure not in ROUTES[cfg.latent_route]:
        routes = " or ".join(r for r, closures in ROUTES.items() if cfg.closure in closures)
        raise ConfigurationError(f"{cfg.closure} closure requires the {routes} route")
    if cfg.latent_route == "pod":
        if cfg.dynamics != "black-box":
            raise ConfigurationError("pod route requires black-box dynamics: POD coordinates "
                                     f"have no analytic base for {cfg.dynamics} dynamics")
        pod = _artifact(artifacts, "pod")
        if pod.ambient_dim != cfg.grid_points:
            raise ConfigurationError("pod artifact was fitted on a different grid")
        if pod.rank < cfg.n_full:
            raise ConfigurationError(f"pod artifact rank {pod.rank} is below the model's "
                                     f"full width {cfg.n_full}")
    return _reduced_field(cfg, artifacts), _build_closure(cfg, artifacts)


def _reduced_field(cfg, artifacts):
    if cfg.dynamics == "truncated":
        return analytic_field(cfg.model, cfg.n_low, cfg.nu)
    net = _artifact(artifacts, "dynamics-net")
    if not isinstance(net, LearnedField):
        raise ConfigurationError("artifact 'dynamics-net' must be a LearnedField")
    if net.dim != cfg.n_low:
        raise ConfigurationError(
            f"dynamics-net dimension {net.dim} does not match the reduced space ({cfg.n_low})"
        )
    if net.kind != cfg.dynamics:
        raise ConfigurationError(
            f"dynamics-net kind {net.kind!r} does not match requested {cfg.dynamics!r}"
        )
    return net


def _build_closure(cfg, artifacts):
    n_low, n_high = cfg.n_low, cfg.n_full - cfg.n_low
    if cfg.closure == "none":
        return zero_closure(n_low, n_high)
    if cfg.closure == "euler-galerkin":
        # building the slaving map checks that every slaved mode is damped
        return euler_galerkin_closure(cfg.model, n_low, cfg.n_full, cfg.nu)
    if cfg.closure == "mlp":
        net = _artifact(artifacts, "closure-net")
        if net.d_in != n_low or net.d_out != n_high:
            raise ConfigurationError("closure-net must map the lead block to the tail block")
        return Closure(n_low=n_low, n_high=n_high, map=lambda p: forward(net, p))
    if cfg.closure == "double-dmaps":
        latent_map = _artifact(artifacts, "latent-map")
        lift = _artifact(artifacts, "lift")
        if latent_map.d_in != n_low:
            raise ConfigurationError("latent-map input width must match the lead block")
        if lift.d_out != cfg.n_full:
            raise ConfigurationError("lift output width must match the full coefficient vector")

        def dd_map(p):
            latent = forward(latent_map, p)
            full = gh_extend(lift, latent)
            return full[..., n_low:]

        return Closure(n_low=n_low, n_high=n_high, map=dd_map)
    # decoder inversion
    ae = _artifact(artifacts, "autoencoder")
    if ae.decoder.d_out != cfg.n_full:
        raise ConfigurationError("autoencoder ambient width must match the full state")

    def inv_map(p):
        starts = forward(ae.encoder, np.concatenate([p, np.zeros(n_high)]))[None, :]
        latent = decoder_invert(ae.decoder, p, starts)
        return decode(ae, latent)[n_low:]

    return Closure(n_low=n_low, n_high=n_high, map=inv_map)


def run_pipeline(cfg, artifacts):
    """Integrate, close, and score one pipeline; returns a PipelineResult."""
    (result,) = run_pipeline_batch([cfg], artifacts)
    if isinstance(result, NumericalFailure):
        raise result
    return result


def run_pipeline_batch(cfgs, artifacts, truths=None):
    """Run one pipeline from several initial conditions.

    cfgs are the pipeline's configs, alike but for ic; they are validated
    before any integration.  The truth and the reduced model are each
    integrated once, batched over the initial conditions; closures and
    scores then run per initial condition.  A truths dict shares batched
    truth runs between calls, keyed by model, nu, final_time, dt and the
    initial conditions.  Yields, in order, each initial condition's
    PipelineResult or the NumericalFailure that ended it.
    """
    cfg = cfgs[0]
    reduced_field, closure = validate_pipeline(cfg, artifacts)
    ic_full = np.array([c.ic for c in cfgs])
    truths = {} if truths is None else truths
    key = (cfg.model, cfg.nu, cfg.final_time, cfg.dt, ic_full.tobytes())
    if key not in truths:
        truths[key] = rk4(analytic_field(cfg.model, cfg.n_full, cfg.nu), ic_full,
                          cfg.final_time, cfg.dt)
    truth = truths[key]

    grid = uniform_grid(cfg.basis(cfg.n_full), cfg.grid_points)
    live = np.flatnonzero(np.isnan(truth.blowup_times))
    # the route's lift from reduced coefficients to the grid, its starts, and
    # whether the four-part split applies: it is in sine coefficients
    lift, starts, split = partial(reconstruct, grid=grid), ic_full[live, :cfg.n_low], True
    if cfg.latent_route == "pod":
        lift, split = partial(pod_lift, artifacts["pod"]), False
        starts = pod_project(artifacts["pod"], reconstruct(ic_full[live], grid), cfg.n_low)
    # with no live truth, each row below raises its truth's blow-up first
    reduced = rk4(reduced_field, starts, cfg.final_time, cfg.dt) if live.size else None

    for k, run_cfg in enumerate(cfgs):
        try:
            result = _score(run_cfg, truth.row(k), reduced.row(int(np.searchsorted(live, k))),
                            closure, lift, grid, split)
        except NumericalFailure as exc:
            result = exc
        yield result


def _field_scores(u, u_truth):
    return MetricsBundle(mape_final=mape(u, u_truth), mse_final=mse(u, u_truth))


def _score(cfg, truth, reduced, closure, lift, grid, split):
    """Close the reduced run at its final time and score it against the truth;
    split says whether the four-part error decomposition applies."""
    u_truth = reconstruct(truth.states, grid)
    u_raw = lift(reduced.states)
    coeffs = postprocess(reduced.final_state, closure)
    u_corrected = lift(coeffs)
    decomposition = (decompose_errors(truth.final_state, coeffs, reduced.dim, grid)
                     if split else None)
    return PipelineResult(
        config=cfg,
        truth=truth,
        reduced=reduced,
        corrected_coeffs=coeffs,
        x=grid.points,
        # copies, so a kept result does not hold the whole field series
        u_truth=u_truth[-1].copy(),
        u_raw=u_raw[-1].copy(),
        u_corrected=u_corrected,
        error_series=mape_series(u_raw, u_truth),
        raw_metrics=_field_scores(u_raw[-1], u_truth[-1]),
        corrected_metrics=_field_scores(u_corrected, u_truth[-1]),
        decomposition=decomposition,
    )
