"""Reduced-order pipelines: learned vector fields, closures, end-to-end runs.

A pipeline integrates a reduced model (analytic truncation or a learned
field), applies a closure once at the final time to append the unresolved
modes, and scores the assembled state against a ground-truth run from the
same initial condition.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .aim import Closure, euler_galerkin_closure, postprocess, zero_closure
from .dmaps import gh_extend
from .integrate import BlowUpError, rk4
from .metrics import MetricsBundle, decompose_errors, mape, mape_series, mse
from .models import MODELS, VectorField, analytic_field
from .nn import decode, decoder_invert, forward, init_mlp, train
from .pod import pod_lift, pod_project
from .spectral import SpectralState, reconstruct, uniform_grid

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

ROUTES = ("fourier", "pod", "autoencoder", "dmaps")
DYNAMICS = ("truncated", "black-box", "gray-box")
CLOSURES = ("euler-galerkin", "mlp", "double-dmaps", "decoder-inversion", "none")


class ConfigurationError(ValueError):
    """Invalid or incompatible pipeline configuration."""


class MissingArtifactError(LookupError):
    """A model referenced by the configuration is not in the store."""


@dataclass(frozen=True)
class DerivativeDataset:
    """Supervised pairs (reduced state, reduced time derivative)."""

    inputs: np.ndarray = field(repr=False)
    derivs: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.derivs, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("inputs and derivs must be aligned 2d arrays")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "derivs", y)

    @property
    def n_samples(self):
        return self.inputs.shape[0]


def build_derivative_dataset(states, full_field, n_lead, lead_inputs=None):
    """Leading-block derivative targets from full snapshots.

    Targets are the first n_lead components of the full analytic
    right-hand side evaluated on each snapshot; inputs default to the
    snapshots' own leading coefficients.  Passing lead_inputs swaps in
    reconstructed coordinates while keeping the analytic targets.
    """
    s = np.asarray(states, dtype=float)
    if s.ndim != 2 or s.shape[1] != full_field.dim:
        raise ValueError("states must be (n, full dim)")
    if not (1 <= n_lead < full_field.dim):
        raise ValueError("n_lead must be below the full dimension")
    derivs = np.asarray(full_field.eval(s), dtype=float)[:, :n_lead]
    inputs = s[:, :n_lead] if lead_inputs is None else np.asarray(lead_inputs, dtype=float)
    if inputs.shape != derivs.shape:
        raise ValueError("lead_inputs must be (n, n_lead)")
    source = "analytic-full-rhs" if lead_inputs is None else "analytic-full-rhs/reconstructed-inputs"
    return DerivativeDataset(inputs=inputs, derivs=derivs, meta={"derivative_source": source, "n_lead": n_lead})


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
    net: object
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
    zero-padded).  For the pod route the reduced run lives in POD
    coefficient space; everywhere else it lives in the leading sine modes.
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
    pod_rank_low: int = 2
    pod_rank_full: int = 3

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
    config: PipelineConfig
    truth: object
    reduced: object
    corrected_coeffs: np.ndarray = field(repr=False)
    raw_metrics: MetricsBundle = None
    corrected_metrics: MetricsBundle = None
    decomposition: object = None


_ARTIFACT_NEEDS = {
    ("dynamics", "black-box"): ("dynamics-net",),
    ("dynamics", "gray-box"): ("dynamics-net",),
    ("closure", "mlp"): ("closure-net",),
    ("closure", "double-dmaps"): ("latent-map", "lift"),
    ("closure", "decoder-inversion"): ("autoencoder",),
}


def validate_pipeline(cfg, artifacts):
    """Reject incompatible configurations before any computation runs."""
    if cfg.closure == "euler-galerkin":
        if cfg.model != "chafee" or cfg.latent_route != "fourier":
            raise ConfigurationError(
                "euler-galerkin closure requires the chafee model on the fourier route"
            )
    if cfg.closure == "double-dmaps" and cfg.latent_route != "dmaps":
        raise ConfigurationError("double-dmaps closure requires the dmaps route")
    if cfg.closure == "decoder-inversion" and cfg.latent_route != "autoencoder":
        raise ConfigurationError("decoder-inversion closure requires the autoencoder route")
    if cfg.closure == "mlp" and cfg.latent_route not in ("fourier", "pod"):
        raise ConfigurationError("mlp closure runs on the fourier or pod routes")
    if cfg.dynamics == "gray-box" and cfg.latent_route == "pod":
        raise ConfigurationError("gray-box dynamics have no analytic base in POD coordinates")
    if cfg.dynamics == "truncated" and cfg.latent_route == "pod":
        raise ConfigurationError("pod route requires learned dynamics")
    if cfg.latent_route == "pod" and cfg.closure not in ("mlp", "none"):
        raise ConfigurationError("pod route supports the mlp closure or none")
    if cfg.latent_route == "pod" and "pod" not in artifacts:
        raise MissingArtifactError("pipeline needs artifact 'pod'")

    for (slot, value), names in _ARTIFACT_NEEDS.items():
        chosen = cfg.dynamics if slot == "dynamics" else cfg.closure
        if chosen == value:
            for name in names:
                if name not in artifacts:
                    raise MissingArtifactError(f"pipeline needs artifact {name!r}")


def _reduced_field(cfg, artifacts, dim):
    if cfg.dynamics == "truncated":
        return analytic_field(cfg.model, cfg.n_low, cfg.nu)
    net = artifacts["dynamics-net"]
    if not isinstance(net, LearnedField):
        raise ConfigurationError("artifact 'dynamics-net' must be a LearnedField")
    if net.dim != dim:
        raise ConfigurationError(
            f"dynamics-net dimension {net.dim} does not match the reduced space ({dim})"
        )
    if net.kind != cfg.dynamics:
        raise ConfigurationError(
            f"dynamics-net kind {net.kind!r} does not match requested {cfg.dynamics!r}"
        )
    return net


def _build_closure(cfg, artifacts, n_low, n_high):
    if cfg.closure == "none":
        return zero_closure(n_low, n_high)
    if cfg.closure == "euler-galerkin":
        return euler_galerkin_closure(cfg.nu)
    if cfg.closure == "mlp":
        net = artifacts["closure-net"]
        if net.d_in != n_low or net.d_out != n_high:
            raise ConfigurationError("closure-net must map the lead block to the tail block")
        return Closure(n_low=n_low, n_high=n_high, map=lambda p: forward(net, p))
    if cfg.closure == "double-dmaps":
        latent_map = artifacts["latent-map"]
        lift = artifacts["lift"]
        if latent_map.d_in != n_low:
            raise ConfigurationError("latent-map input width must match the lead block")
        if lift.d_out != n_low + n_high:
            raise ConfigurationError("lift output width must match the full coefficient vector")

        def dd_map(p):
            latent = forward(latent_map, p)
            full = gh_extend(lift, latent)
            return full[..., n_low:]

        return Closure(n_low=n_low, n_high=n_high, map=dd_map)
    # decoder inversion
    ae = artifacts["autoencoder"]
    if ae.decoder.d_out != n_low + n_high:
        raise ConfigurationError("autoencoder ambient width must match the full state")
    candidates = artifacts.get("invert-candidates")

    def inv_map(p):
        if candidates is None:
            padded = np.concatenate([p, np.zeros(n_high)])
            starts = forward(ae.encoder, padded)[None, :]
        else:
            starts = np.asarray(candidates, dtype=float)
        latent = decoder_invert(ae.decoder, p, starts)
        return decode(ae, latent)[n_low:]

    return Closure(n_low=n_low, n_high=n_high, map=inv_map)


def run_pipeline(cfg, artifacts):
    """Integrate, close, and score one pipeline; returns a PipelineResult."""
    (result,) = run_pipeline_batch([cfg], artifacts)
    if isinstance(result, BlowUpError):
        raise result
    return result


def run_pipeline_batch(cfgs, artifacts, truths=None):
    """Run one pipeline from several initial conditions.

    cfgs are the pipeline's configs, alike but for ic.  The truth and the
    reduced model are each integrated once, batched over the initial
    conditions; closures and scores then run per initial condition.  A
    truths dict shares batched truth runs between calls, keyed by model,
    nu, final_time, dt and the initial conditions.  Yields, in order, each
    initial condition's PipelineResult or the BlowUpError that ended its
    truth or reduced run.
    """
    cfg = cfgs[0]
    validate_pipeline(cfg, artifacts)
    ic_full = np.array([c.ic for c in cfgs])
    truths = {} if truths is None else truths
    key = (cfg.model, cfg.nu, cfg.final_time, cfg.dt, ic_full.tobytes())
    if key not in truths:
        truths[key] = rk4(analytic_field(cfg.model, cfg.n_full, cfg.nu), ic_full,
                          cfg.final_time, cfg.dt)
    truth = truths[key]

    basis_full = cfg.basis(cfg.n_full)
    grid = uniform_grid(basis_full, cfg.grid_points)
    sines = np.sin(np.outer(grid.points, basis_full.wavenumbers()))
    pod = artifacts["pod"] if cfg.latent_route == "pod" else None
    # as in one run per initial condition, the reduced field and the closure
    # are built, and can raise, only once some run has got that far
    reduced = closure = None
    live = np.flatnonzero(np.isnan(truth.blowup_times))
    if live.size:
        if pod is None:
            n_low, n_high = cfg.n_low, cfg.n_full - cfg.n_low
            starts = ic_full[live, :n_low]
        else:
            if pod.ambient_dim != grid.n_points:
                raise ConfigurationError("pod artifact was fitted on a different grid")
            if pod.rank < cfg.pod_rank_full:
                raise ConfigurationError("pod artifact rank is below pod_rank_full")
            n_low, n_high = cfg.pod_rank_low, cfg.pod_rank_full - cfg.pod_rank_low
            starts = np.array([
                pod_project(pod, (truth.row(k).states @ sines.T)[0], n_low) for k in live
            ])
        reduced = rk4(_reduced_field(cfg, artifacts, n_low), starts, cfg.final_time, cfg.dt)
        if np.isnan(reduced.blowup_times).any():
            closure = _build_closure(cfg, artifacts, n_low, n_high)

    for k, run_cfg in enumerate(cfgs):
        try:
            truth_k = truth.row(k)
            reduced_k = reduced.row(int(np.searchsorted(live, k)))
        except BlowUpError as exc:
            yield exc
            continue
        yield _score(run_cfg, truth_k, reduced_k, closure, basis_full, grid, sines, pod)


def _score(cfg, truth, reduced, closure, basis_full, grid, sines, pod):
    """Close the reduced run at its final time and score it against the truth."""
    u_truth = truth.states @ sines.T
    if pod is None:
        n_low = reduced.dim
        low_final = SpectralState(cfg.basis(n_low), reduced.final_state)
        corrected = postprocess(low_final, closure)
        coeffs = corrected.coeffs
        u_raw = reduced.states @ sines[:, :n_low].T
        u_corr_final = reconstruct(corrected, grid)
        decomp = decompose_errors(truth.final_state, reduced.final_state, closure, grid,
                                  basis_full)
    else:
        # reduced dynamics in POD coefficient space, lifted back to the grid
        coeffs = np.concatenate([reduced.final_state, closure(reduced.final_state)])
        u_raw = pod_lift(pod, reduced.states, cfg.pod_rank_low)
        u_corr_final = pod_lift(pod, coeffs, cfg.pod_rank_full)
        decomp = None

    u_truth_final = u_truth[-1]
    raw_metrics = MetricsBundle(
        mape_final=mape(u_raw[-1], u_truth_final),
        mse_final=mse(u_raw[-1], u_truth_final),
        percent_error_series=mape_series(u_raw, u_truth),
        times=reduced.times,
    )
    corr_metrics = replace(
        raw_metrics,
        mape_final=mape(u_corr_final, u_truth_final),
        mse_final=mse(u_corr_final, u_truth_final),
    )
    return PipelineResult(
        config=cfg,
        truth=truth,
        reduced=reduced,
        corrected_coeffs=coeffs,
        raw_metrics=raw_metrics,
        corrected_metrics=corr_metrics,
        decomposition=decomp,
    )
