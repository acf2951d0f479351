"""Command surface: simulate, sample, train, postprocess, evaluate, ensemble.

Every command reads a YAML config (schema-validated, unknown keys rejected,
errors reported with the source line), writes its outputs plus a manifest
into --out, and is bit-reproducible under a fixed seed.

Exit codes: 0 success, 2 config error, 3 numeric failure (blow-up or
diverged training), 4 missing stored model.
"""

import json
import sys
import time
from pathlib import Path

import click
import numpy as np
import yaml

from . import __version__
from .dmaps import dmaps_fit, double_dmaps_lift, select_independent
from .integrate import BlowUpError, SamplerConfig, rk4, sample_attractor
from .metrics import ensemble_histogram
from .models import MODELS, analytic_field
from .nn import (
    TrainConfig,
    TrainingDivergedError,
    init_autoencoder,
    init_mlp,
    train,
    train_autoencoder,
)
from .pod import pod_fit, pod_lift
from .rom import (
    ConfigurationError,
    MissingArtifactError,
    PipelineConfig,
    build_derivative_dataset,
    learn_field,
    make_closure_dataset,
    run_pipeline,
)
from .serialize import (
    ModelStore,
    file_hash,
    read_table,
    trajectory_to_csv,
    write_histogram_csv,
    write_long_samples,
    write_loss_csv,
    write_manifest,
    write_table,
)
from .spectral import SpectralState, reconstruct, uniform_grid
from .svg import Series, save_line_plot

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4

_NUM = (int, float)


class ConfigError(Exception):
    """Schema or value problem in a run config."""


# ------------------------------------------------------------ yaml loading

class _LineLoader(yaml.SafeLoader):
    """SafeLoader that tags every mapping with its source line."""


def _mapping_with_line(loader, node):
    loader.flatten_mapping(node)
    mapping = dict(loader.construct_pairs(node, deep=True))
    mapping["__line__"] = node.start_mark.line + 1
    return mapping


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _mapping_with_line
)


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        doc = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return doc


def _strip_lines(doc):
    if isinstance(doc, dict):
        return {k: _strip_lines(v) for k, v in doc.items() if k != "__line__"}
    if isinstance(doc, list):
        return [_strip_lines(v) for v in doc]
    return doc


def _where(section, line):
    return f"{section} (line {line})" if line else section


def _check(doc, schema, section, required=()):
    """Validate one mapping: unknown keys rejected, types checked.

    None is always allowed (meaning "use the default"); returns the mapping
    without the line marker.
    """
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected a mapping")
    line = doc.get("__line__")
    unknown = sorted(k for k in doc if k != "__line__" and k not in schema)
    if unknown:
        raise ConfigError(f"{_where(section, line)}: unknown keys {unknown}")
    missing = sorted(k for k in required if doc.get(k) is None)
    if missing:
        raise ConfigError(f"{_where(section, line)}: missing required keys {missing}")
    out = {}
    for key, value in doc.items():
        if key == "__line__":
            continue
        if value is not None and not _is_type(value, schema[key]):
            raise ConfigError(
                f"{_where(section, line)}: key {key!r} expects "
                f"{_type_name(schema[key])}, got {type(value).__name__}"
            )
        out[key] = value
    return out


def _is_type(value, tp):
    # bool subclasses int: true/false only pass where the schema names bool
    types = tp if isinstance(tp, tuple) else (tp,)
    if isinstance(value, bool) and bool not in types:
        return False
    return isinstance(value, types)


def _type_name(tp):
    if isinstance(tp, tuple):
        return "/".join(t.__name__ for t in tp)
    return tp.__name__


def _get(cfg, key, default=None):
    value = cfg.get(key)
    return default if value is None else value


# ------------------------------------------------------------ shared pieces

def _train_config(block, seed_override):
    schema = {
        "learning_rate": _NUM,
        "beta1": _NUM,
        "beta2": _NUM,
        "eps_hat": _NUM,
        "epochs": int,
        "batch_size": int,
        "seed": int,
        "validation_fraction": _NUM,
    }
    block = _check(block, schema, "train block")
    if seed_override is not None:
        block["seed"] = seed_override
    kwargs = {k: v for k, v in block.items() if v is not None}
    try:
        return TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"train block: {exc}")


def _read_snapshots(path):
    """States matrix from a sample CSV (traj_id,t,a1..) or trajectory CSV."""
    try:
        header, data, _ = read_table(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}")
    skip = sum(1 for name in header if name in ("traj_id", "t"))
    if data.shape[0] == 0 or data.shape[1] - skip < 1:
        raise ConfigError(f"{path}: no snapshot columns found")
    return data[:, skip:]


_ARTIFACT_ROLES = ("dynamics-net", "closure-net", "latent-map", "lift", "autoencoder", "pod")


def _load_artifacts(doc, out_dir, seed):
    """Resolve the artifacts block to loaded models plus their hashes."""
    block = _check(
        doc.get("artifacts"), {role: str for role in _ARTIFACT_ROLES}, "artifacts block"
    )
    roles = {k: v for k, v in block.items() if v is not None}
    if not roles:
        return {}, {}
    store = ModelStore(_get(doc, "store", out_dir / "models"))
    artifacts, hashes = {}, {}
    for role, alias in sorted(roles.items()):
        try:
            hashes[role] = store.resolve(alias)
            artifacts[role] = store.load(alias)
        except KeyError as exc:
            raise MissingArtifactError(exc.args[0])
    return artifacts, hashes


def _pipeline_config(doc, section, seed_override):
    schema = {
        "model": str,
        "latent_route": str,
        "dynamics": str,
        "closure": str,
        "ic": list,
        "final_time": _NUM,
        "dt": _NUM,
        "seed": int,
        "nu": _NUM,
        "grid_points": int,
        "pod_rank_low": int,
        "pod_rank_full": int,
    }
    cfg = _check(
        doc,
        schema,
        section,
        required=("model", "latent_route", "dynamics", "closure", "ic", "final_time", "dt"),
    )
    if seed_override is not None:
        cfg["seed"] = seed_override
    kwargs = {k: v for k, v in cfg.items() if v is not None}
    kwargs["ic"] = tuple(float(v) for v in kwargs["ic"])
    return PipelineConfig(**kwargs)


def _echo_kv(label, value):
    click.echo(f"{label}: {value}")


# ------------------------------------------------------------ entry point

def _common_options(fn):
    fn = click.option(
        "--seed", type=int, default=None, help="Override every seed in the config."
    )(fn)
    fn = click.option(
        "--out", "out_dir", default="out", show_default=True,
        type=click.Path(file_okay=False), help="Output directory.",
    )(fn)
    fn = click.option(
        "--config", "config_path", required=True,
        type=click.Path(dir_okay=False), help="YAML run config.",
    )(fn)
    return fn


def _dispatch(body, config_path, out_dir, seed):
    t_start = time.perf_counter()
    try:
        doc = _load_config(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        body(doc, out, seed)
    except (BlowUpError, TrainingDivergedError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so this branch must come first
        click.echo(f"numeric failure: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    except MissingArtifactError as exc:
        click.echo(f"missing artifact: {exc}", err=True)
        sys.exit(EXIT_MISSING)
    except (ConfigError, ConfigurationError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    _echo_kv("wall time", f"{time.perf_counter() - t_start:.2f} s")


@click.group()
@click.version_option(__version__, prog_name="aimrom")
def main():
    """Reduced-order modeling of dissipative PDEs via inertial-manifold closures."""


# ------------------------------------------------------------ simulate

_SIM_SCHEMA = {
    "model": str,
    "n_modes": int,
    "nu": _NUM,
    "epsilon": _NUM,
    "ic": list,
    "final_time": _NUM,
    "dt": _NUM,
    "grid_points": int,
}


@main.command()
@_common_options
def simulate(config_path, out_dir, seed):
    """Integrate one trajectory; write trajectory and field CSVs."""

    def body(doc, out, seed):
        cfg = _check(doc, _SIM_SCHEMA, "simulate config",
                     required=("model", "ic", "final_time", "dt"))
        field = analytic_field(cfg["model"], cfg.get("n_modes"), cfg.get("nu"),
                               cfg.get("epsilon"))
        ic = np.asarray(cfg["ic"], dtype=float)
        if ic.shape != (field.dim,):
            raise ConfigError(
                f"simulate config: ic needs {field.dim} entries for {field.name}")
        traj = rk4(field, ic, float(cfg["final_time"]), float(cfg["dt"]))
        outputs = ["trajectory.csv"]
        trajectory_to_csv(traj, out / "trajectory.csv")
        if cfg["model"] in MODELS:
            basis = MODELS[cfg["model"]].basis(field.dim)
            grid = uniform_grid(basis, _get(cfg, "grid_points", 65))
            sines = np.sin(np.outer(grid.points, basis.wavenumbers()))
            fields = traj.states @ sines.T
            header = ["t"] + [f"u{i}" for i in range(grid.points.shape[0])]
            write_table(
                out / "field.csv", header,
                np.column_stack([traj.times, fields]),
                comments=["x: " + ",".join("%.17g" % x for x in grid.points)],
            )
            outputs.append("field.csv")
        write_manifest(out, {
            "command": "simulate", "config": _strip_lines(doc), "seed": seed,
            "outputs": outputs,
        })
        _echo_kv("rows", traj.times.shape[0])
        _echo_kv("final state", np.array2string(traj.final_state, precision=6))

    _dispatch(body, config_path, out_dir, seed)


# ------------------------------------------------------------ sample

_SAMPLE_SCHEMA = {
    "model": str,
    "n_modes": int,
    "nu": _NUM,
    "epsilon": _NUM,
    "ic_box": list,
    "n_trajectories": int,
    "transient_time": _NUM,
    "sample_time": _NUM,
    "snapshot_stride": int,
    "dt": _NUM,
    "seed": int,
}


@main.command()
@_common_options
def sample(config_path, out_dir, seed):
    """Sample attractor snapshots from random initial conditions."""

    def body(doc, out, seed):
        cfg = _check(doc, _SAMPLE_SCHEMA, "sample config",
                     required=("model", "ic_box", "n_trajectories", "transient_time",
                               "sample_time", "snapshot_stride", "dt"))
        field = analytic_field(cfg["model"], cfg.get("n_modes"), cfg.get("nu"),
                               cfg.get("epsilon"))
        plan = SamplerConfig(
            n_trajectories=cfg["n_trajectories"],
            ic_box=np.asarray(cfg["ic_box"], dtype=float),
            transient_time=float(cfg["transient_time"]),
            snapshot_stride=cfg["snapshot_stride"],
            seed=seed if seed is not None else _get(cfg, "seed", 0),
            sample_time=float(cfg["sample_time"]),
        )
        if plan.ic_box.shape != (field.dim, 2):
            raise ConfigError(
                f"sample config: ic_box must be {field.dim} rows of [low, high]")
        snaps = sample_attractor(field, plan, dt=float(cfg["dt"]))
        header = ["traj_id", "t"] + [f"a{k}" for k in range(1, field.dim + 1)]
        write_table(out / "snapshots.csv", header,
                    np.column_stack([snaps.traj_ids, snaps.times, snaps.states]))
        write_manifest(out, {
            "command": "sample", "config": _strip_lines(doc), "seed": plan.seed,
            "outputs": ["snapshots.csv"], "n_snapshots": snaps.states.shape[0],
            "failed_trajectories": list(snaps.failed_ids),
        })
        _echo_kv("snapshots", snaps.states.shape[0])
        _echo_kv("failed trajectories", len(snaps.failed_ids))

    _dispatch(body, config_path, out_dir, seed)


# ------------------------------------------------------------ train

_TRAIN_SCHEMA = {
    "kind": str,
    "alias": str,
    "store": str,
    "data": str,
    "model": str,
    "n_modes": int,
    "nu": _NUM,
    "epsilon": _NUM,
    "n_low": int,
    "hidden": list,
    "latent_dim": int,
    "center": bool,
    "dmap": str,
    "n_eigs": int,
    "kernel_epsilon": _NUM,
    "prune": bool,
    "residual_threshold": _NUM,
    "bandwidth_factor": _NUM,
    "epsilon_star": _NUM,
    "delta": _NUM,
    "train": dict,
}

_TRAIN_KINDS = ("closure", "black-box", "gray-box", "latent-map", "autoencoder",
                "pod", "dmap", "lift")


def _require(cfg, keys, kind):
    missing = sorted(k for k in keys if cfg.get(k) is None)
    if missing:
        raise ConfigError(f"train config: kind {kind!r} needs keys {missing}")


def _hidden(cfg, default):
    h = _get(cfg, "hidden", list(default))
    if not all(isinstance(n, int) and n > 0 for n in h):
        raise ConfigError("train config: hidden must be positive integers")
    return tuple(h)


def _fit_model(cfg, store, seed):
    """Run the requested fit; returns (object, history|None, meta extras)."""
    kind = cfg["kind"]
    tcfg = _train_config(cfg.get("train"), seed)
    extras = {}

    if kind in ("closure", "black-box", "gray-box", "autoencoder", "pod", "dmap"):
        _require(cfg, ("data",), kind)
        states = _read_snapshots(cfg["data"])
        extras["data_hash"] = file_hash(cfg["data"])

    if kind == "closure":
        _require(cfg, ("n_low",), kind)
        n_low = cfg["n_low"]
        if not 1 <= n_low < states.shape[1]:
            raise ConfigError("train config: n_low must leave at least one tail mode")
        x, y = make_closure_dataset(states, n_low)
        net = init_mlp((n_low, *_hidden(cfg, (24, 24)), states.shape[1] - n_low),
                       seed=tcfg.seed)
        return *train(net, x, y, tcfg), extras

    if kind in ("black-box", "gray-box"):
        _require(cfg, ("model", "n_low"), kind)
        full = analytic_field(cfg["model"], cfg.get("n_modes"), cfg.get("nu"),
                              cfg.get("epsilon"))
        if states.shape[1] != full.dim:
            raise ConfigError(
                f"train config: data width {states.shape[1]} != model dim {full.dim}")
        dataset = build_derivative_dataset(states, full, cfg["n_low"])
        base = None
        if kind == "gray-box":
            base = analytic_field(cfg["model"], cfg["n_low"], cfg.get("nu"),
                                  cfg.get("epsilon"))
        hidden = _hidden(cfg, (64,) * 4 if base is None else (95,) * 6)
        return *learn_field(dataset, hidden, tcfg, seed=tcfg.seed, base=base), extras

    if kind == "autoencoder":
        _require(cfg, ("latent_dim",), kind)
        ae = init_autoencoder(states.shape[1], cfg["latent_dim"],
                              _hidden(cfg, (16, 16)), seed=tcfg.seed)
        return *train_autoencoder(ae, states, tcfg), extras

    if kind == "pod":
        model = pod_fit(states, center=_get(cfg, "center", True))
        extras["energy_fractions"] = model.energy_fractions.tolist()
        return model, None, extras

    if kind == "dmap":
        dm = dmaps_fit(states, epsilon=cfg.get("kernel_epsilon"),
                       n_eigs=_get(cfg, "n_eigs", 10))
        if _get(cfg, "prune", True):
            dm, residuals = select_independent(
                dm,
                regression_bandwidth_factor=_get(cfg, "bandwidth_factor", 3.0),
                residual_threshold=_get(cfg, "residual_threshold", 0.2),
            )
            extras["kept_indices"] = list(dm.kept_indices)
            extras["residuals"] = residuals.tolist()
        return dm, None, extras

    if kind in ("latent-map", "lift"):
        _require(cfg, ("dmap",), kind)
        try:
            dm = store.load(cfg["dmap"])
            extras["data_hash"] = store.resolve(cfg["dmap"])
        except KeyError as exc:
            raise MissingArtifactError(exc.args[0])
        if not dm.kept_indices:
            raise ConfigError("train config: stored dmap has no kept coordinates")
        if kind == "lift":
            gh = double_dmaps_lift(dm, dm.train_points,
                                   epsilon_star=cfg.get("epsilon_star"),
                                   delta=_get(cfg, "delta", 1e-6))
            extras["in_sample_mse"] = float(gh.in_sample_mse)
            return gh, None, extras
        _require(cfg, ("n_low",), kind)
        lead, latents = dm.train_points[:, : cfg["n_low"]], dm.coordinates()
        net = init_mlp((lead.shape[1], *_hidden(cfg, (80,) * 5), latents.shape[1]),
                       seed=tcfg.seed)
        return *train(net, lead, latents, tcfg), extras

    raise ConfigError(f"train config: unknown kind {kind!r}; one of {_TRAIN_KINDS}")


@main.command(name="train")
@_common_options
def train_cmd(config_path, out_dir, seed):
    """Fit a model (closure, dynamics, latent map, autoencoder, pod, dmap)."""

    def body(doc, out, seed):
        cfg = _check(doc, _TRAIN_SCHEMA, "train config", required=("kind", "alias"))
        store = ModelStore(_get(cfg, "store", out / "models"))
        obj, history, extras = _fit_model(cfg, store, seed)
        meta = {"config": _strip_lines(doc), "seed": seed, **extras}
        key = store.save(obj, alias=cfg["alias"], meta=meta)
        outputs = []
        if history is not None:
            write_loss_csv(history, out / "loss.csv")
            outputs.append("loss.csv")
            _echo_kv("final train mse", "%.6g" % history.train_mse[-1])
        if cfg["kind"] == "pod":
            fractions = np.asarray(extras["energy_fractions"])
            write_table(out / "energy.csv", ["mode", "cumulative_energy"],
                        np.column_stack([np.arange(1, fractions.size + 1), fractions]))
            outputs.append("energy.csv")
        write_manifest(out, {
            "command": "train", "config": _strip_lines(doc), "seed": seed,
            "outputs": outputs, "models": {cfg["alias"]: key},
        })
        _echo_kv("stored", f"{cfg['kind']} as {cfg['alias']}")
        _echo_kv("model hash", key)

    _dispatch(body, config_path, out_dir, seed)


# ------------------------------------------------------------ evaluate

def _final_fields(result, artifacts):
    """(x, truth, truncated, corrected) physical fields at the final time."""
    cfg = result.config
    basis = cfg.basis(cfg.n_full)
    grid = uniform_grid(basis, cfg.grid_points)
    u_truth = reconstruct(SpectralState(basis, result.truth.final_state), grid)
    if cfg.latent_route == "pod":
        pod = artifacts["pod"]
        u_raw = pod_lift(pod, result.reduced.final_state, cfg.pod_rank_low)
        u_corr = pod_lift(pod, result.corrected_coeffs, cfg.pod_rank_full)
        return grid.points, u_truth, u_raw, u_corr
    padded = np.zeros(cfg.n_full)
    padded[: cfg.n_low] = result.reduced.final_state
    u_raw = reconstruct(SpectralState(basis, padded), grid)
    u_corr = reconstruct(SpectralState(basis, result.corrected_coeffs), grid)
    return grid.points, u_truth, u_raw, u_corr


def _metrics_document(result, hashes):
    doc = {
        "label": result.config.label(),
        "raw": {"mape_final": result.raw_metrics.mape_final,
                "mse_final": result.raw_metrics.mse_final},
        "corrected": {"mape_final": result.corrected_metrics.mape_final,
                      "mse_final": result.corrected_metrics.mse_final},
        "corrected_coeffs": result.corrected_coeffs.tolist(),
        "models": hashes,
    }
    if result.decomposition is not None:
        d = result.decomposition
        doc["decomposition"] = {
            "delta_low": d.delta_low,
            "delta_closure_mass": d.delta_closure_mass,
            "delta_truncated": d.delta_truncated,
            "delta_corrected": d.delta_corrected,
        }
    return doc


_EVAL_SCHEMA = {
    "pipeline": dict,
    "store": str,
    "artifacts": dict,
    "plots": bool,
}


def _run_configured_pipeline(doc, out, seed):
    cfg = _check(doc, _EVAL_SCHEMA, "evaluate config", required=("pipeline",))
    pipeline = _pipeline_config(doc["pipeline"], "pipeline block", seed)
    artifacts, hashes = _load_artifacts(doc, out, seed)
    result = run_pipeline(pipeline, artifacts)
    return cfg, pipeline, result, artifacts, hashes


def _write_overlay(out, result, artifacts):
    x, u_truth, u_raw, u_corr = _final_fields(result, artifacts)
    t_final = result.config.final_time
    save_line_plot(
        out / "overlay.svg",
        [Series(x, u_truth, "truth"),
         Series(x, u_raw, "truncated"),
         Series(x, u_corr, "corrected")],
        title=f"u(x, T={t_final:g})", x_label="x", y_label="u",
        provenance=result.config.label(),
    )
    return "overlay.svg"


def _emit_metrics(out, result, hashes):
    doc = _metrics_document(result, hashes)
    (out / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _echo_kv("pipeline", doc["label"])
    _echo_kv("MAPE corrected", "%.17g" % doc["corrected"]["mape_final"])
    _echo_kv("MAPE raw", "%.17g" % doc["raw"]["mape_final"])
    return doc


@main.command()
@_common_options
def postprocess(config_path, out_dir, seed):
    """Run a pipeline and write the post-processed state plus overlay plot."""

    def body(doc, out, seed):
        cfg, pipeline, result, artifacts, hashes = _run_configured_pipeline(doc, out, seed)
        header = [f"a{k}" for k in range(1, result.corrected_coeffs.shape[0] + 1)]
        write_table(out / "corrected.csv", header, result.corrected_coeffs)
        outputs = ["corrected.csv", "metrics.json"]
        if _get(cfg, "plots", True):
            outputs.append(_write_overlay(out, result, artifacts))
        _emit_metrics(out, result, hashes)
        write_manifest(out, {
            "command": "postprocess", "config": _strip_lines(doc),
            "seed": pipeline.seed, "outputs": outputs, "models": hashes,
        })

    _dispatch(body, config_path, out_dir, seed)


@main.command()
@_common_options
def evaluate(config_path, out_dir, seed):
    """Run a pipeline and write its metrics, error series, and plots."""

    def body(doc, out, seed):
        cfg, pipeline, result, artifacts, hashes = _run_configured_pipeline(doc, out, seed)
        write_table(out / "error_series.csv", ["t", "percent_error"],
                    np.column_stack([result.raw_metrics.times,
                                     result.raw_metrics.percent_error_series]))
        outputs = ["metrics.json", "error_series.csv"]
        if _get(cfg, "plots", True):
            outputs.append(_write_overlay(out, result, artifacts))
            save_line_plot(
                out / "error_series.svg",
                [Series(result.raw_metrics.times,
                        result.raw_metrics.percent_error_series, "truncated")],
                title="leading-mode percent error", x_label="t", y_label="% error",
                provenance=pipeline.label(),
            )
            outputs.append("error_series.svg")
        _emit_metrics(out, result, hashes)
        write_manifest(out, {
            "command": "evaluate", "config": _strip_lines(doc),
            "seed": pipeline.seed, "outputs": outputs, "models": hashes,
        })

    _dispatch(body, config_path, out_dir, seed)


# ------------------------------------------------------------ ensemble

_ENSEMBLE_SCHEMA = {
    "pipelines": list,
    "ic_box": list,
    "n_ic": int,
    "seed": int,
    "bins": int,
    "final_time": _NUM,
    "store": str,
    "artifacts": dict,
    "plots": bool,
}


@main.command()
@_common_options
def ensemble(config_path, out_dir, seed):
    """Run pipelines over a shared random IC set; write MAPE histograms."""

    def body(doc, out, seed):
        cfg = _check(doc, _ENSEMBLE_SCHEMA, "ensemble config",
                     required=("pipelines", "ic_box", "n_ic"))
        if not cfg["pipelines"]:
            raise ConfigError("ensemble config: pipelines list is empty")
        configs = [
            _pipeline_config(p, f"pipelines[{i}]", seed)
            for i, p in enumerate(cfg["pipelines"])
        ]
        artifacts, hashes = _load_artifacts(doc, out, seed)
        result = ensemble_histogram(
            configs, artifacts, np.asarray(cfg["ic_box"], dtype=float),
            n_ic=cfg["n_ic"],
            seed=seed if seed is not None else _get(cfg, "seed", 0),
            bins=_get(cfg, "bins", 20),
            final_time=cfg.get("final_time"),
        )
        write_long_samples(out / "samples.csv", result.labels, result.samples)
        write_histogram_csv(out / "histogram.csv", result.labels,
                            result.bin_edges, result.counts)
        outputs = ["samples.csv", "histogram.csv"]
        if _get(cfg, "plots", True):
            centers = 0.5 * (result.bin_edges[:-1] + result.bin_edges[1:])
            save_line_plot(
                out / "histogram.svg",
                [Series(centers, counts, label) for label, counts
                 in zip(result.labels, result.counts)],
                title=f"final-time MAPE over {cfg['n_ic']} initial conditions",
                x_label="MAPE [%]", y_label="count",
                provenance=" vs ".join(result.labels),
            )
            outputs.append("histogram.svg")
        write_manifest(out, {
            "command": "ensemble", "config": _strip_lines(doc),
            "seed": seed if seed is not None else _get(cfg, "seed", 0),
            "outputs": outputs, "models": hashes,
            "failed": {label: result.failed[i] for i, label in enumerate(result.labels)},
        })
        for label, samples in zip(result.labels, result.samples):
            _echo_kv(label, f"median MAPE {np.median(samples):.4g}%")

    _dispatch(body, config_path, out_dir, seed)


if __name__ == "__main__":
    main()
