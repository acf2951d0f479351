"""Reduced-order pipelines: learned vector fields, closures, end-to-end runs.

A pipeline integrates a reduced model (analytic truncation or a learned
field), applies a closure once at the final time to append the unresolved
modes, and scores the assembled state against a ground-truth run from the
same initial condition.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import ConfigurationError, MissingArtifactError, NumericalFailure
from .aim import Closure, euler_galerkin_closure, postprocess, zero_closure
from .dmaps import GeometricHarmonics, gh_extend
from .integrate import rk4
from .metrics import MetricsBundle, decompose_errors, mape, mape_series, mse
from .models import MODELS, VectorField, analytic_field, field_from_name
from .nn import Autoencoder, Mlp, decoder_invert, forward, init_mlp, train
from .pod import PodModel, pod_lift, pod_project
from .spectral import GRID_POINTS, reconstruct, uniform_grid

__all__ = [
    "ConfigurationError",
    "MissingArtifactError",
    "LearnedField",
    "PipelineConfig",
    "PipelineResult",
    "build_derivative_dataset",
    "learn_field",
    "run_pipeline",
    "run_pipelines",
    "validate_pipeline",
]


def _sine_coordinates(cfg, grid, artifacts):
    """Leading sine coefficients: sliced from the ic, lifted by sine synthesis; split applies."""
    return (lambda ic: ic[:, :cfg.n_low]), partial(reconstruct, grid=grid), True


def _pod_coordinates(cfg, grid, artifacts):
    """POD coefficients of the ic's field: no analytic base, no four-part split."""
    if DYNAMICS[cfg.dynamics][0]:
        raise ConfigurationError(f"pod route has no analytic base for {cfg.dynamics} dynamics")
    pod = _artifact(artifacts, "pod")
    if pod.ambient_dim != cfg.grid_points:
        raise ConfigurationError("pod artifact was fitted on a different grid")
    if pod.rank < cfg.n_full:
        raise ConfigurationError(f"pod artifact rank {pod.rank} is below the model's "
                                 f"full width {cfg.n_full}")
    return ((lambda ic: pod_project(pod, reconstruct(ic, grid), cfg.n_low)),
            partial(pod_lift, pod), False)


# each latent route: its closures, and coordinates(cfg, grid, artifacts), which checks
# its artifacts and returns (starts from ic rows, lift to the grid, four-part split)
ROUTES = {"fourier": (("euler-galerkin", "mlp", "none"), _sine_coordinates),
          "pod": (("mlp", "none"), _pod_coordinates),
          "autoencoder": (("decoder-inversion", "none"), _sine_coordinates),
          "dmaps": (("double-dmaps", "none"), _sine_coordinates)}
# each dynamics: whether it runs on the model's n_low-mode truncation (POD
# coordinates have no such base) and whether it adds a dynamics-net
DYNAMICS = {"truncated": (True, False), "black-box": (False, True), "gray-box": (True, True)}
CLOSURES = tuple(dict.fromkeys(c for closures, _ in ROUTES.values() for c in closures))


def build_derivative_dataset(states, full_field, n_lead):
    """Leading-block derivative targets from full snapshots: (inputs, derivs).

    Inputs are the snapshots' leading n_lead coefficients, targets the first
    n_lead components of the full analytic right-hand side on each snapshot.
    """
    s = np.asarray(states, dtype=float)
    if s.ndim != 2 or s.shape[1] != full_field.dim:
        raise ValueError("states must be (n, full dim)")
    if not (1 <= n_lead < full_field.dim):
        raise ValueError("n_lead must be below the full dimension")
    return s[:, :n_lead], np.asarray(full_field.eval(s), dtype=float)[:, :n_lead]


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
        has_base, has_net = DYNAMICS.get(self.kind, (False, False))
        if not has_net:
            raise ValueError(f"not a learned field kind: {self.kind!r}")
        if has_base != (self.base is not None):
            raise ValueError(f"{self.kind} fields need {'an' if has_base else 'no'} analytic base")
        if self.net.d_in != self.dim or self.net.d_out != self.dim:
            raise ValueError("network must map dim -> dim")

    def eval(self, a):
        out = forward(self.net, a)
        if self.base is not None:
            out = out + self.base.eval(a)
        return out


def learn_field(inputs, derivs, hidden, train_cfg, base=None):
    """Fit a learned vector field to (reduced state, reduced derivative) rows;
    returns (field, history).  The network starts from train_cfg.seed.

    Without a base the network fits da/dt itself (black-box); with an
    analytic base it fits only the residual da/dt - base(a) (gray-box).
    """
    d = inputs.shape[1]
    if base is not None:
        if base.dim != d:
            raise ValueError("base field dimension must match the inputs")
        derivs = derivs - np.asarray(base.eval(inputs), dtype=float)
    net = init_mlp((d,) + tuple(hidden) + (d,), seed=train_cfg.seed)
    trained, hist = train(net, inputs, derivs, train_cfg)
    kind = "black-box" if base is None else "gray-box"
    return LearnedField(kind=kind, dim=d, net=trained, base=base), hist


def _full_ics(model, ics):
    """The rows of ics at the model's full width: an n_low-wide row is zero-padded."""
    n_low, n_full = MODELS[model].n_low, MODELS[model].n_full
    if ics.shape[1] == n_low:
        return np.pad(ics, ((0, 0), (0, n_full - n_low)))
    if ics.shape[1] != n_full:
        raise ConfigurationError(f"ic must have {n_low} or {n_full} components for model {model}")
    return ics


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
    nu: float = None
    grid_points: int = GRID_POINTS

    def __post_init__(self):
        for key, table in (("model", MODELS), ("latent_route", ROUTES),
                           ("dynamics", DYNAMICS), ("closure", CLOSURES)):
            if getattr(self, key) not in table:
                raise ConfigurationError(f"unknown {key.replace('_', ' ')}: {getattr(self, key)!r}")
        try:
            ic = np.atleast_1d(np.asarray(self.ic, dtype=float))
        except (TypeError, ValueError):
            ic = None
        if ic is None or ic.ndim != 1:
            raise ConfigurationError("ic must be a flat list of numbers")
        object.__setattr__(self, "ic", tuple(_full_ics(self.model, ic[None, :])[0].tolist()))
        object.__setattr__(self, "nu", float(MODELS[self.model].nu if self.nu is None else self.nu))
        if self.final_time <= 0 or self.dt <= 0:
            raise ConfigurationError("final_time and dt must be positive")
        if self.grid_points < 2:
            raise ConfigurationError("grid_points must be at least 2")

    @property
    def n_low(self):
        return MODELS[self.model].n_low

    @property
    def n_full(self):
        return MODELS[self.model].n_full

    def label(self):
        return f"{self.model}/{self.latent_route}/{self.dynamics}/{self.closure}"


@dataclass(frozen=True)
class PipelineResult:
    """A scored run; u_truth, u_raw and u_corrected are the final-time fields
    at the grid points x, error_series the raw run's percent error at each of
    reduced.times."""

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


# each artifact role and the type of model it takes
ARTIFACT_ROLES = {"dynamics-net": LearnedField, "closure-net": Mlp, "latent-map": Mlp,
                  "lift": GeometricHarmonics, "autoencoder": Autoencoder, "pod": PodModel}


def _artifact(artifacts, name):
    if name not in artifacts:
        raise MissingArtifactError(f"pipeline needs artifact {name!r}")
    obj, expected = artifacts[name], ARTIFACT_ROLES[name]
    if not isinstance(obj, expected):
        raise ConfigurationError(f"artifact {name!r} must be of type {expected.__name__}, "
                                 f"not {type(obj).__name__}")
    return obj


def validate_pipeline(cfg, artifacts):
    """Check cfg and its artifacts before any computation runs; returns the
    reduced field, the closure, the grid and the route's (starts, lift, split)
    coordinates, whose builds check each artifact's fit."""
    closures, coordinates = ROUTES[cfg.latent_route]
    if cfg.closure not in closures:
        routes = " or ".join(r for r, (c, _) in ROUTES.items() if cfg.closure in c)
        raise ConfigurationError(f"{cfg.closure} closure requires the {routes} route")
    grid = uniform_grid(MODELS[cfg.model].length, cfg.grid_points)
    coords = coordinates(cfg, grid, artifacts)
    return _reduced_field(cfg, artifacts), _build_closure(cfg, artifacts), grid, coords


def _reduced_field(cfg, artifacts):
    has_base, has_net = DYNAMICS[cfg.dynamics]
    base = analytic_field(cfg.model, cfg.n_low, cfg.nu) if has_base else None
    if not has_net:
        return base
    net = _artifact(artifacts, "dynamics-net")
    if net.dim != cfg.n_low:
        raise ConfigurationError(
            f"dynamics-net dimension {net.dim} does not match the reduced space ({cfg.n_low})"
        )
    if net.kind != cfg.dynamics:
        raise ConfigurationError(
            f"dynamics-net kind {net.kind!r} does not match requested {cfg.dynamics!r}"
        )
    if has_base and field_from_name(net.base.name).name != base.name:
        raise ConfigurationError(f"dynamics-net base {net.base.name} != pipeline base {base.name}")
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
        if latent_map.d_out != lift.inputs.shape[1]:
            raise ConfigurationError("latent-map output width must match the lift's input width")
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
        start = forward(ae.encoder, np.concatenate([p, np.zeros(n_high)]))
        latent = decoder_invert(ae.decoder, p, start)
        return forward(ae.decoder, latent)[n_low:]

    return Closure(n_low=n_low, n_high=n_high, map=inv_map)


def run_pipeline(cfg, artifacts):
    """Integrate, close, and score one pipeline from its ic; returns a PipelineResult."""
    (result,) = run_pipelines([cfg], [cfg.ic], artifacts)[0]
    if isinstance(result, NumericalFailure):
        raise result
    return result


def run_pipelines(cfgs, ics, artifacts):
    """Run each pipeline from every initial condition, one per row of ics.

    Every pipeline, its artifacts and the rows (n_low or n_full wide) are
    checked before anything is integrated.  Returns one generator per pipeline,
    yielding in row order each row's PipelineResult or the NumericalFailure
    that ended it.  Truth and reduced runs are batched over the rows, and
    each distinct truth and each distinct reduced run is integrated once.
    """
    rows = np.asarray(ics, dtype=float)
    if rows.ndim != 2:
        raise ConfigurationError("ics must hold one initial condition per row")
    checked = [(cfg, _full_ics(cfg.model, rows), *validate_pipeline(cfg, artifacts))
               for cfg in cfgs]
    runs = {}

    def run(cfg, role, field_, a0):
        # (model, nu, role) names the field exactly: role is "truth" or the
        # dynamics, and one artifacts dict holds one dynamics-net
        key = (cfg.model, cfg.nu, role, cfg.final_time, cfg.dt, a0.tobytes())
        if key not in runs:
            runs[key] = rk4(field_, a0, cfg.final_time, cfg.dt)
        return runs[key]

    return [_run_batch(run, *args) for args in checked]


def _run_batch(run, cfg, ic_full, reduced_field, closure, grid, coordinates):
    starts, lift, split = coordinates
    truth = run(cfg, "truth", analytic_field(cfg.model, cfg.n_full, cfg.nu), ic_full)
    live = np.flatnonzero(np.isnan(truth.blowup_times))
    # with no live truth, each row below raises its truth's blow-up first
    reduced = (run(cfg, cfg.dynamics, reduced_field, starts(ic_full[live]))
               if live.size else None)

    for k in range(ic_full.shape[0]):
        try:
            result = _score(cfg, truth.row(k), reduced.row(int(np.searchsorted(live, k))),
                            closure, lift, grid, split)
        except NumericalFailure as exc:
            result = exc
        yield result


def _field_scores(u, u_truth):
    return MetricsBundle(mape_final=mape(u, u_truth), mse_final=mse(u, u_truth))


def _score(cfg, truth, reduced, closure, lift, grid, split):
    """Close the reduced run at its final time and score it against the truth;
    split says whether the four-part error decomposition applies.  The raw
    run is lifted as the n_full-wide states a zero closure leaves, so a
    `none` closure scores exactly its raw run."""
    u_truth = reconstruct(truth.states, grid)
    u_raw = lift(np.pad(reduced.states, ((0, 0), (0, cfg.n_full - reduced.dim))))
    coeffs = postprocess(reduced.final_state, closure)
    u_corrected = lift(coeffs)
    decomposition = (decompose_errors(truth.final_state, coeffs, reduced.dim,
                                      MODELS[cfg.model].length) if split else None)
    return PipelineResult(
        truth=truth,
        reduced=reduced,
        corrected_coeffs=coeffs,
        x=grid,
        # copies, so a kept result does not hold the whole field series
        u_truth=u_truth[-1].copy(),
        u_raw=u_raw[-1].copy(),
        u_corrected=u_corrected,
        error_series=mape_series(u_raw, u_truth),
        raw_metrics=_field_scores(u_raw[-1], u_truth[-1]),
        corrected_metrics=_field_scores(u_corrected, u_truth[-1]),
        decomposition=decomposition,
    )
