"""Command surface: simulate, sample, train, evaluate, ensemble.

Every command reads a YAML config (schema-validated, unknown keys rejected,
errors reported with the source line), writes its outputs plus a manifest
into --out, and is bit-reproducible under a fixed seed.

Exit codes: 0 success; a failure exits with the exit_code of its
AimromError class (2 config error, 3 numeric failure, 4 missing artifact).
"""

import json
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import click
import numpy as np
import yaml

from . import AimromError, ConfigurationError, NumericalFailure, __version__
from .dmaps import DiffusionMap, dmaps_fit, gh_fit, select_independent
from .integrate import rk4, sample_attractor
from .metrics import ensemble_histogram
from .models import MODELS, analytic_field
from .nn import TrainConfig, init_autoencoder, init_mlp, train, train_autoencoder
from .pod import pod_fit
from .rom import (
    ARTIFACT_ROLES,
    DYNAMICS,
    PipelineConfig,
    build_derivative_dataset,
    learn_field,
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
from .spectral import reconstruct, uniform_grid
from .svg import Series, save_line_plot

_NUM = (int, float)
_NUMS = [_NUM]  # a list type [t]: a YAML list whose every element is of type t


# ------------------------------------------------------------ yaml loading

class _LineLoader(yaml.SafeLoader):
    """SafeLoader that tags every mapping with its source line."""


class _Mapping(dict):
    """A YAML mapping; _mapping_with_line sets its line attribute."""


def _mapping_with_line(loader, node):
    loader.flatten_mapping(node)
    mapping = _Mapping(loader.construct_pairs(node, deep=True))
    mapping.line = node.start_mark.line + 1
    return mapping


_LineLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _mapping_with_line
)


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    try:
        doc = yaml.load(text, Loader=_LineLoader)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: invalid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return doc


def _where(section, line):
    return f"{section} (line {line})" if line else section


def _check(doc, schema, section, required=()):
    """Validate one mapping (or None): unknown keys rejected, types checked,
    down to each element of a list, and every number finite.

    None is always allowed (meaning "use the default"); returns the mapping
    as a plain dict.
    """
    if doc is None:
        doc = {}
    line = getattr(doc, "line", None)
    unknown = sorted(k for k in doc if k not in schema)
    if unknown:
        raise ConfigurationError(f"{_where(section, line)}: unknown keys {unknown}")
    missing = sorted(k for k in required if doc.get(k) is None)
    if missing:
        raise ConfigurationError(f"{_where(section, line)}: missing required keys {missing}")
    for key, value in doc.items():
        bad = value is not None and _mismatch(value, schema[key], key)
        if bad:
            where, part = bad
            got = "dict" if isinstance(part, dict) else type(part).__name__
            if isinstance(part, float) and not np.isfinite(part):
                got = f"non-finite {part}"
            raise ConfigurationError(
                f"{_where(section, line)}: key {key!r} expects {_type_name(schema[key])}, "
                f"got {got}" + (f" at {where}" if where != key else ""))
    return dict(doc)


def _mismatch(value, tp, where):
    """(where, part) for the first part of value not of type tp or not finite, else None."""
    if isinstance(tp, list):
        if not isinstance(value, list):
            return where, value
        return next(filter(None, (_mismatch(v, tp[0], f"{where}[{i}]")
                                  for i, v in enumerate(value))), None)
    # bool subclasses int: true/false only pass where the schema names bool
    types = tp if isinstance(tp, tuple) else (tp,)
    if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
        # YAML's .inf and .nan are floats, but no run can use one
        return None if not isinstance(value, float) or np.isfinite(value) else (where, value)
    return where, value


def _type_name(tp):
    if isinstance(tp, list):
        return f"list of {_type_name(tp[0])}"
    if isinstance(tp, tuple):
        return "/".join(t.__name__ for t in tp)
    return tp.__name__


def _get(cfg, key, default=None):
    value = cfg.get(key)
    return default if value is None else value


# ------------------------------------------------------------ shared pieces

def _dataclass_schema(cls):
    """(schema, required keys) of a config dataclass: a float field also takes
    an int, a tuple field takes a YAML list of numbers; fields without a default
    are required."""
    schema = {f.name: {float: _NUM, tuple: _NUMS}.get(f.type, f.type) for f in fields(cls)}
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return schema, required


def _from_dataclass(cls, block, section, seed=None):
    """cls built from a config block checked against its fields; an unset key
    takes the field's default and seed, when given, replaces the block's.
    An error from the dataclass's own checks is reported under section."""
    schema, required = _dataclass_schema(cls)
    block = _check(block, schema, section, required=required)
    kwargs = {k: v for k, v in block.items() if v is not None}
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigurationError(f"{section}: {exc}")


def _given(cfg, *keys, **renamed):
    """Keyword arguments from the keys cfg sets (renamed maps a parameter to
    its config key); an unset key is left out, so the callee's default holds."""
    names = dict(zip(keys, keys), **renamed)
    return {param: cfg[key] for param, key in names.items() if cfg.get(key) is not None}


# the parameters of analytic_field, under the same names
_MODEL_SCHEMA = {"model": str, "n_modes": int, "nu": _NUM, "epsilon": _NUM}


def _field(cfg):
    """The analytic field that the model keys of cfg name."""
    return analytic_field(**{key: cfg.get(key) for key in _MODEL_SCHEMA})


def _read_snapshots(path):
    """States matrix from a sample CSV (traj_id,t,a1..) or trajectory CSV."""
    try:
        header, data, _ = read_table(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read data file {path}: {exc}")
    skip = sum(1 for name in header if name in ("traj_id", "t"))
    if data.shape[0] == 0 or data.shape[1] - skip < 1:
        raise ConfigurationError(f"{path}: no snapshot columns found")
    return data[:, skip:]


def _load_artifacts(cfg, out_dir):
    """Resolve the artifacts block to loaded models plus their hashes."""
    block = _check(
        cfg.get("artifacts"), {role: str for role in ARTIFACT_ROLES}, "artifacts block"
    )
    roles = {k: v for k, v in block.items() if v is not None}
    if not roles:
        return {}, {}
    store = ModelStore(_get(cfg, "store", out_dir / "models"))
    artifacts, hashes = {}, {}
    for role, alias in sorted(roles.items()):
        hashes[role] = store.resolve(alias)
        artifacts[role] = store.load(alias)
    return artifacts, hashes


def _echo_kv(label, value):
    click.echo(f"{label}: {value}")


# ------------------------------------------------------------ command frame

def _fail(cls, exc):
    click.echo(f"{cls.label}: {exc}", err=True)
    sys.exit(cls.exit_code)


@click.group()
@click.version_option(__version__, prog_name="aimrom")
def main():
    """Reduced-order modeling of dissipative PDEs via inertial-manifold closures."""


def _command(name, schema, required=()):
    """Register fn(cfg, out, seed) as the command `name`.

    The command takes --config, --out and --seed.  It loads the YAML,
    creates --out, checks the config against schema and calls fn with the
    checked mapping, the output directory and the --seed override.  fn
    returns its manifest entries (seed, outputs, ...), written here with the
    command name and the config.  A failure exits with its AimromError class's
    code and label; numpy's LinAlgError exits 3 and any other ValueError 2.
    """

    def register(fn):
        @main.command(name=name, help=fn.__doc__)
        @click.option("--config", "config_path", required=True,
                      type=click.Path(dir_okay=False), help="YAML run config.")
        @click.option("--out", "out_dir", default="out", show_default=True,
                      type=click.Path(file_okay=False), help="Output directory.")
        @click.option("--seed", type=int, default=None,
                      help="Override every seed in the config.")
        def command(config_path, out_dir, seed):
            t_start = time.perf_counter()
            try:
                doc = _load_config(config_path)
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                entries = fn(_check(doc, schema, f"{name} config", required), out, seed)
                write_manifest(out, {"command": name, "config": doc, **entries})
            except AimromError as exc:
                _fail(type(exc), exc)
            except np.linalg.LinAlgError as exc:
                _fail(NumericalFailure, exc)
            except ValueError as exc:
                _fail(ConfigurationError, exc)
            _echo_kv("wall time", f"{time.perf_counter() - t_start:.2f} s")

        return command

    return register


# ------------------------------------------------------------ simulate

_SIM_SCHEMA = {**_MODEL_SCHEMA, "ic": _NUMS, "final_time": _NUM, "dt": _NUM,
               "grid_points": int}


@_command("simulate", _SIM_SCHEMA, required=("model", "ic", "final_time", "dt"))
def simulate(cfg, out, seed):
    """Integrate one trajectory; write trajectory and field CSVs."""
    field = _field(cfg)
    ic = np.asarray(cfg["ic"], dtype=float)
    if ic.shape != (field.dim,):
        raise ConfigurationError(
            f"simulate config: ic needs {field.dim} entries for {field.name}")
    # checked before the run, so a bad grid_points stops it before any file is written
    points = _given(cfg, n_points="grid_points")
    if points and cfg["model"] not in MODELS:
        raise ConfigurationError("simulate config: toy writes no field and takes no grid_points")
    if points.get("n_points", 2) < 2:
        raise ConfigurationError("simulate config: grid_points must be at least 2")
    grid = uniform_grid(MODELS[cfg["model"]].length, **points) if cfg["model"] in MODELS else None
    traj = rk4(field, ic, float(cfg["final_time"]), float(cfg["dt"]))
    outputs = ["trajectory.csv"]
    trajectory_to_csv(traj, out / "trajectory.csv")
    if grid is not None:
        values = reconstruct(traj.states, grid)
        header = ["t"] + [f"u{i}" for i in range(grid.shape[0])]
        write_table(
            out / "field.csv", header,
            np.column_stack([traj.times, values]),
            comments=["x: " + ",".join("%.17g" % x for x in grid)],
        )
        outputs.append("field.csv")
    _echo_kv("rows", traj.times.shape[0])
    _echo_kv("final state", np.array2string(traj.final_state, precision=6))
    return {"seed": seed, "outputs": outputs}


# ------------------------------------------------------------ sample

_SAMPLE_SCHEMA = {**_MODEL_SCHEMA, "ic_box": [_NUMS], "n_trajectories": int,
                  "transient_time": _NUM, "sample_time": _NUM, "snapshot_stride": int,
                  "dt": _NUM, "seed": int}


@_command("sample", _SAMPLE_SCHEMA,
          required=("model", "ic_box", "n_trajectories", "transient_time",
                    "sample_time", "snapshot_stride", "dt"))
def sample(cfg, out, seed):
    """Sample attractor snapshots from random initial conditions."""
    field = _field(cfg)
    seed = seed if seed is not None else _get(cfg, "seed", 0)
    snaps = sample_attractor(
        field, cfg["ic_box"], cfg["n_trajectories"], float(cfg["transient_time"]),
        float(cfg["sample_time"]), cfg["snapshot_stride"], float(cfg["dt"]), seed=seed,
    )
    header = ["traj_id", "t"] + [f"a{k}" for k in range(1, field.dim + 1)]
    write_table(out / "snapshots.csv", header,
                np.column_stack([snaps.traj_ids, snaps.times, snaps.states]))
    _echo_kv("snapshots", snaps.states.shape[0])
    _echo_kv("failed trajectories", len(snaps.failed_ids))
    return {"seed": seed, "outputs": ["snapshots.csv"],
            "n_snapshots": snaps.states.shape[0],
            "failed_trajectories": list(snaps.failed_ids)}


# ------------------------------------------------------------ train

_TRAIN_SCHEMA = {
    "kind": str, "alias": str, "store": str, "data": str, **_MODEL_SCHEMA,
    "n_low": int, "hidden": [int], "latent_dim": int, "train": dict,  # networks
    "center": bool,  # pod
    "n_eigs": int, "kernel_epsilon": _NUM, "prune": bool,  # dmap
    "residual_threshold": _NUM, "bandwidth_factor": _NUM,
    "dmap": str, "epsilon_star": _NUM, "delta": _NUM,  # lift, latent-map
}

# each kind: the keys it needs besides kind and alias, the other keys it reads
# besides store (any other key set exits 2), and the default hidden widths of
# the network it trains (None: no network)
_NET, _MODEL_PARAMS = ("hidden", "train"), ("n_modes", "nu", "epsilon")
TRAIN_KINDS = {
    "closure": (("data", "n_low"), ("model", *_MODEL_PARAMS, *_NET), (24, 24)),
    "black-box": (("data", "model", "n_low"), (*_MODEL_PARAMS, *_NET), (64,) * 4),
    "gray-box": (("data", "model", "n_low"), (*_MODEL_PARAMS, *_NET), (95,) * 6),
    "latent-map": (("dmap", "n_low"), _NET, (80,) * 5),
    "autoencoder": (("data", "latent_dim"), _NET, (16, 16)),
    "pod": (("data",), ("center",), None),
    "dmap": (("data",), ("n_eigs", "kernel_epsilon", "prune", "residual_threshold",
                         "bandwidth_factor"), None),
    "lift": (("dmap",), ("epsilon_star", "delta"), None),
}


def _fit_model(cfg, store, seed):
    """Run the requested fit; returns (object, history|None, meta extras)."""
    kind = cfg["kind"]
    if kind not in TRAIN_KINDS:
        raise ConfigurationError(f"train config: unknown kind {kind!r}; one of {tuple(TRAIN_KINDS)}")
    needs, reads, hidden = TRAIN_KINDS[kind]
    missing = sorted(k for k in needs if cfg.get(k) is None)
    if missing:
        raise ConfigurationError(f"train config: kind {kind!r} needs keys {missing}")
    unread = sorted(k for k, v in cfg.items() if v is not None
                    and k not in ("kind", "alias", "store", *needs, *reads))
    if unread:
        raise ConfigurationError(f"train config: kind {kind!r} does not read keys {unread}")
    if hidden is not None:
        tcfg = _from_dataclass(TrainConfig, cfg.get("train"), "train block", seed)
        hidden = tuple(_get(cfg, "hidden", hidden))
        if not all(n > 0 for n in hidden):
            raise ConfigurationError("train config: hidden must be positive integers")
    if "data" in needs:
        states = _read_snapshots(cfg["data"])
        extras = {"data_hash": file_hash(cfg["data"])}
    else:
        dm = store.load(cfg["dmap"])
        if not isinstance(dm, DiffusionMap):
            raise ConfigurationError(f"train config: dmap {cfg['dmap']!r} must name a "
                                     f"DiffusionMap, not a {type(dm).__name__}")
        states, extras = dm.train_points, {"data_hash": store.resolve(cfg["dmap"])}
        if not dm.kept_indices:
            raise ConfigurationError("train config: stored dmap has no kept coordinates")
    n_low = cfg.get("n_low")
    if "n_low" in needs and not 1 <= n_low < states.shape[1]:
        raise ConfigurationError("train config: n_low must leave at least one tail mode")
    has_base = kind in DYNAMICS and DYNAMICS[kind][0]
    if has_base and cfg["model"] not in MODELS:
        raise ConfigurationError(f"train config: {kind} needs a Galerkin base model, "
                                 f"one of {', '.join(MODELS)}")
    params = sorted(k for k in _MODEL_PARAMS if cfg.get(k) is not None)
    if params and cfg.get("model") is None:
        raise ConfigurationError(f"train config: keys {params} need the key model "
                                 f"(one of {', '.join(MODELS)}, toy)")
    # the kinds that read the model keys (closure, black-box, gray-box) train
    # on the named model's states
    if any(cfg.get(k) is not None for k in _MODEL_SCHEMA):
        full = _field(cfg)
        if states.shape[1] != full.dim:
            raise ConfigurationError(
                f"train config: data width {states.shape[1]} != model dim {full.dim}")

    if kind == "closure":
        net = init_mlp((n_low, *hidden, states.shape[1] - n_low), seed=tcfg.seed)
        return *train(net, states[:, :n_low], states[:, n_low:], tcfg), extras

    if kind in DYNAMICS:
        inputs, derivs = build_derivative_dataset(states, full, n_low)
        base = _field(dict(cfg, n_modes=n_low)) if has_base else None
        return *learn_field(inputs, derivs, hidden, tcfg, base=base), extras

    if kind == "autoencoder":
        ae = init_autoencoder(states.shape[1], cfg["latent_dim"], hidden, seed=tcfg.seed)
        return *train_autoencoder(ae, states, tcfg), extras

    if kind == "pod":
        model = pod_fit(states, **_given(cfg, "center"))
        extras["energy_fractions"] = model.energy_fractions.tolist()
        return model, None, extras

    if kind == "dmap":
        dm = dmaps_fit(states, **_given(cfg, "n_eigs", epsilon="kernel_epsilon"))
        if _get(cfg, "prune", True):
            dm, residuals = select_independent(
                dm, **_given(cfg, "bandwidth_factor", "residual_threshold"))
            extras["kept_indices"] = list(dm.kept_indices)
            extras["residuals"] = residuals.tolist()
        return dm, None, extras

    if kind == "lift":
        gh = gh_fit(dm.coordinates(), states, **_given(cfg, "epsilon_star", "delta"))
        extras["in_sample_mse"] = float(gh.in_sample_mse)
        return gh, None, extras

    latents = dm.coordinates()
    net = init_mlp((n_low, *hidden, latents.shape[1]), seed=tcfg.seed)
    return *train(net, states[:, :n_low], latents, tcfg), extras


@_command("train", _TRAIN_SCHEMA, required=("kind", "alias"))
def train_cmd(cfg, out, seed):
    """Fit a model (closure, dynamics, latent map, autoencoder, pod, dmap)."""
    store = ModelStore(_get(cfg, "store", out / "models"))
    obj, history, extras = _fit_model(cfg, store, seed)
    meta = {"config": cfg, "seed": seed, **extras}
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
    _echo_kv("stored", f"{cfg['kind']} as {cfg['alias']}")
    _echo_kv("model hash", key)
    return {"seed": seed, "outputs": outputs, "models": {cfg["alias"]: key}}


# ------------------------------------------------------------ evaluate

def _metrics_document(label, result, hashes):
    doc = {
        "label": label,
        "raw": asdict(result.raw_metrics),
        "corrected": asdict(result.corrected_metrics),
        "corrected_coeffs": result.corrected_coeffs.tolist(),
        "models": hashes,
    }
    if result.decomposition is not None:
        doc["decomposition"] = asdict(result.decomposition)
    return doc


_PIPELINE_SCHEMA = {"pipeline": dict, "store": str, "artifacts": dict, "plots": bool}


@_command("evaluate", _PIPELINE_SCHEMA, required=("pipeline",))
def evaluate(cfg, out, seed):
    """Run a pipeline and write its metrics, error series, and plots."""
    pipeline = _from_dataclass(PipelineConfig, cfg["pipeline"], "pipeline block")
    artifacts, hashes = _load_artifacts(cfg, out)
    result = run_pipeline(pipeline, artifacts)
    times = result.reduced.times
    write_table(out / "error_series.csv", ["t", "percent_error"],
                np.column_stack([times, result.error_series]))
    outputs = ["metrics.json", "error_series.csv"]
    if _get(cfg, "plots", True):
        save_line_plot(
            out / "overlay.svg",
            [Series(result.x, result.u_truth, "truth"),
             Series(result.x, result.u_raw, "truncated"),
             Series(result.x, result.u_corrected, "corrected")],
            title=f"u(x, T={pipeline.final_time:g})", x_label="x", y_label="u",
            provenance=pipeline.label(),
        )
        save_line_plot(
            out / "error_series.svg",
            [Series(times, result.error_series, "truncated")],
            title="leading-mode percent error", x_label="t", y_label="% error",
            provenance=pipeline.label(),
        )
        outputs += ["overlay.svg", "error_series.svg"]
    doc = _metrics_document(pipeline.label(), result, hashes)
    (out / "metrics.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _echo_kv("pipeline", doc["label"])
    _echo_kv("MAPE corrected", "%.17g" % doc["corrected"]["mape_final"])
    _echo_kv("MAPE raw", "%.17g" % doc["raw"]["mape_final"])
    return {"seed": seed, "outputs": outputs, "models": hashes}


# ------------------------------------------------------------ ensemble

_ENSEMBLE_SCHEMA = {"pipelines": [dict], "ic_box": [_NUMS], "n_ic": int, "seed": int,
                    "bins": int, "store": str, "artifacts": dict, "plots": bool}


@_command("ensemble", _ENSEMBLE_SCHEMA, required=("pipelines", "ic_box", "n_ic"))
def ensemble(cfg, out, seed):
    """Run pipelines over a shared random IC set; write MAPE histograms."""
    if not cfg["pipelines"]:
        raise ConfigurationError("ensemble config: pipelines list is empty")
    # a histogram plot needs two bin centers; checked before any run
    if _get(cfg, "plots", True) and _get(cfg, "bins", 2) < 2:
        raise ConfigurationError("ensemble config: bins must be at least 2 when plots is on")
    configs = [
        _from_dataclass(PipelineConfig, p, f"pipelines[{i}]")
        for i, p in enumerate(cfg["pipelines"])
    ]
    artifacts, hashes = _load_artifacts(cfg, out)
    seed = seed if seed is not None else _get(cfg, "seed", 0)
    result = ensemble_histogram(
        configs, artifacts, np.asarray(cfg["ic_box"], dtype=float),
        n_ic=cfg["n_ic"], seed=seed, **_given(cfg, "bins"),
    )
    write_long_samples(out / "samples.csv", result.labels, result.samples, result.ic_indices)
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
    for label, samples in zip(result.labels, result.samples):
        _echo_kv(label, f"median MAPE {np.median(samples):.4g}%" if samples.size
                 else f"all {cfg['n_ic']} runs failed")
    return {"seed": seed, "outputs": outputs, "models": hashes,
            "failed": {label: result.failed[i] for i, label in enumerate(result.labels)},
            "failures": [{"pipeline": label, "ic_index": k, "error": f"{type(exc).__name__}: {exc}"}
                         for label, k, exc in result.failures]}


if __name__ == "__main__":
    main()
