"""Artifact persistence: canonical JSON model files, CSV tables, manifests.

Model files are plain JSON with a "format" tag and the numeric payload.
Floats go through repr / %.17g everywhere, so a reload is bit-identical
and a retrain under the same seed lands on the same content hash.  No
file carries a timestamp; reproducibility is checked by byte comparison.
"""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

from . import __version__
from .dmaps import DiffusionMap, GeometricHarmonics
from .models import field_from_name
from .nn import Autoencoder, Mlp
from .pod import PodModel
from .rom import LearnedField

__all__ = [
    "ModelStore",
    "canonical_json",
    "content_hash",
    "file_hash",
    "model_from_dict",
    "model_to_dict",
    "read_table",
    "trajectory_to_csv",
    "write_histogram_csv",
    "write_long_samples",
    "write_loss_csv",
    "write_manifest",
    "write_table",
]


def _jsonify(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    return x


def canonical_json(payload):
    """Stable byte form: sorted keys, no whitespace, shortest-repr floats."""
    return json.dumps(_jsonify(payload), sort_keys=True, separators=(",", ":"))


def content_hash(payload):
    """sha256 of the canonical JSON; used as the model-store key."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_atomic(path, text):
    """Replace path's content with text through a temp file beside it, so an
    interrupted save leaves the old file or the new one, never a partial one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------- models

def _arr(x):
    return np.asarray(x, dtype=float)


def _expect_format(doc, fmt):
    if doc.get("format") != fmt:
        raise ValueError(f"expected a {fmt!r} document, got {doc.get('format')!r}")


def _mlp_to_dict(m):
    return {
        "format": "mlp-v1",
        "layer_sizes": list(m.layer_sizes),
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "x_shift": m.x_shift.tolist(),
        "x_scale": m.x_scale.tolist(),
        "y_shift": m.y_shift.tolist(),
        "y_scale": m.y_scale.tolist(),
    }


def _mlp_from_dict(doc):
    _expect_format(doc, "mlp-v1")
    return Mlp(
        layer_sizes=tuple(int(n) for n in doc["layer_sizes"]),
        weights=tuple(_arr(w) for w in doc["weights"]),
        biases=tuple(_arr(b) for b in doc["biases"]),
        x_shift=_arr(doc["x_shift"]),
        x_scale=_arr(doc["x_scale"]),
        y_shift=_arr(doc["y_shift"]),
        y_scale=_arr(doc["y_scale"]),
    )


def _autoencoder_to_dict(ae):
    return {
        "format": "autoencoder-v1",
        "encoder": _mlp_to_dict(ae.encoder),
        "decoder": _mlp_to_dict(ae.decoder),
    }


def _autoencoder_from_dict(doc):
    _expect_format(doc, "autoencoder-v1")
    return Autoencoder(_mlp_from_dict(doc["encoder"]), _mlp_from_dict(doc["decoder"]))


def _learned_field_to_dict(lf):
    return {
        "format": "learned-field-v1",
        "kind": lf.kind,
        "dim": lf.dim,
        "net": _mlp_to_dict(lf.net),
        "base": None if lf.base is None else lf.base.name,
    }


def _learned_field_from_dict(doc):
    _expect_format(doc, "learned-field-v1")
    base = None if doc["base"] is None else field_from_name(doc["base"])
    return LearnedField(
        kind=doc["kind"], dim=int(doc["dim"]), net=_mlp_from_dict(doc["net"]), base=base
    )


def _dmap_to_dict(dm):
    return {
        "format": "dmap-v1",
        "epsilon": float(dm.epsilon),
        "alpha_density": float(dm.alpha_density),
        "train_points": dm.train_points.tolist(),
        "eigenvalues": dm.eigenvalues.tolist(),
        "eigenvectors": dm.eigenvectors.tolist(),
        "point_density": dm.point_density.tolist(),
        "kept_indices": list(dm.kept_indices),
    }


def _dmap_from_dict(doc):
    _expect_format(doc, "dmap-v1")
    return DiffusionMap(
        epsilon=float(doc["epsilon"]),
        alpha_density=float(doc["alpha_density"]),
        train_points=_arr(doc["train_points"]),
        eigenvalues=_arr(doc["eigenvalues"]),
        eigenvectors=_arr(doc["eigenvectors"]),
        point_density=_arr(doc["point_density"]),
        kept_indices=tuple(int(i) for i in doc["kept_indices"]),
    )


def _gh_to_dict(gh):
    return {
        "format": "gh-v1",
        "epsilon_star": float(gh.epsilon_star),
        "delta": float(gh.delta),
        "inputs": gh.inputs.tolist(),
        "eigenvalues": gh.eigenvalues.tolist(),
        "eigenvectors": gh.eigenvectors.tolist(),
        "coefficients": gh.coefficients.tolist(),
        "in_sample_mse": float(gh.in_sample_mse),
    }


def _gh_from_dict(doc):
    _expect_format(doc, "gh-v1")
    return GeometricHarmonics(
        epsilon_star=float(doc["epsilon_star"]),
        delta=float(doc["delta"]),
        inputs=_arr(doc["inputs"]),
        eigenvalues=_arr(doc["eigenvalues"]),
        eigenvectors=_arr(doc["eigenvectors"]),
        coefficients=_arr(doc["coefficients"]),
        in_sample_mse=float(doc["in_sample_mse"]),
    )


def _pod_to_dict(p):
    return {
        "format": "pod-v1",
        "mean": p.mean.tolist(),
        "modes": p.modes.tolist(),
        "singular_values": p.singular_values.tolist(),
        "energy_fractions": p.energy_fractions.tolist(),
        "centered": bool(p.centered),
    }


def _pod_from_dict(doc):
    _expect_format(doc, "pod-v1")
    return PodModel(
        mean=_arr(doc["mean"]),
        modes=_arr(doc["modes"]),
        singular_values=_arr(doc["singular_values"]),
        energy_fractions=_arr(doc["energy_fractions"]),
        centered=bool(doc["centered"]),
    )


_TO_DICT = (
    (LearnedField, _learned_field_to_dict),
    (Autoencoder, _autoencoder_to_dict),
    (Mlp, _mlp_to_dict),
    (DiffusionMap, _dmap_to_dict),
    (GeometricHarmonics, _gh_to_dict),
    (PodModel, _pod_to_dict),
)

_FROM_DICT = {
    "learned-field-v1": _learned_field_from_dict,
    "autoencoder-v1": _autoencoder_from_dict,
    "mlp-v1": _mlp_from_dict,
    "dmap-v1": _dmap_from_dict,
    "gh-v1": _gh_from_dict,
    "pod-v1": _pod_from_dict,
}


def model_to_dict(obj):
    for cls, to_dict in _TO_DICT:
        if isinstance(obj, cls):
            return to_dict(obj)
    raise TypeError(f"no serializer for {type(obj).__name__}")


def model_from_dict(doc):
    fmt = doc.get("format")
    if fmt not in _FROM_DICT:
        raise ValueError(f"unknown model format {fmt!r}")
    return _FROM_DICT[fmt](doc)


# a stored model's key: the sha256 of its file's text
_KEY = re.compile(r"[0-9a-f]{64}")


class ModelStore:
    """Content-addressed model files plus a human-readable alias table.

    Layout: <root>/<sha256>.json per model and <root>/aliases.json mapping
    alias -> hash.  The hash covers payload and metadata, so retraining
    with identical config, data, and seed reuses the same key.  Both files
    are replaced whole, and saving an existing key rewrites its file.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def _alias_path(self):
        return self.root / "aliases.json"

    def aliases(self):
        if self._alias_path.exists():
            return json.loads(self._alias_path.read_text())
        return {}

    def save(self, obj, alias=None, meta=None):
        """Store a model, return its content-hash key."""
        text = canonical_json({"model": model_to_dict(obj), "meta": _jsonify(meta or {})})
        key = hashlib.sha256(text.encode()).hexdigest()
        _write_atomic(self.root / f"{key}.json", text + "\n")
        if alias is not None:
            table = self.aliases()
            table[str(alias)] = key
            _write_atomic(self._alias_path, json.dumps(table, indent=2, sort_keys=True) + "\n")
        return key

    def resolve(self, name):
        """Alias or hash key -> hash key; KeyError lists known aliases."""
        table = self.aliases()
        if name in table:
            return table[name]
        if _KEY.fullmatch(name) and (self.root / f"{name}.json").exists():
            return name
        known = ", ".join(sorted(table)) or "(none)"
        raise KeyError(f"no stored model {name!r}; available aliases: {known}")

    def load(self, name):
        """Load a stored model; KeyError if its file no longer hashes to its key."""
        key = self.resolve(name)
        text = (self.root / f"{key}.json").read_text()
        if hashlib.sha256(text.removesuffix("\n").encode()).hexdigest() != key:
            raise KeyError(f"stored model {key} does not match its hash; "
                           "the file was truncated or edited")
        return model_from_dict(json.loads(text)["model"])


# ---------------------------------------------------------------- tables

def write_table(path, header, rows, comments=()):
    """Numeric CSV with %.17g floats; comment lines start with '#'."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size and rows.shape[1] != len(header):
        raise ValueError(f"{len(header)} column names for width-{rows.shape[1]} rows")
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("%.17g" % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path):
    """Inverse of write_table: returns (header, data, comment lines)."""
    comments, body = [], []
    for ln in Path(path).read_text().splitlines():
        if not ln.strip():
            continue
        (comments if ln.startswith("#") else body).append(ln)
    if not body:
        raise ValueError(f"{path}: no header row")
    header = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    data = data.reshape(-1, len(header)) if data.size else np.empty((0, len(header)))
    return header, data, [c[1:].strip() for c in comments]


def trajectory_to_csv(traj, path):
    header = ["t"] + [f"a{k}" for k in range(1, traj.dim + 1)]
    write_table(path, header, np.column_stack([traj.times, traj.states]))


def write_loss_csv(history, path):
    header = ["epoch", "train_mse", "val_mse"]
    epochs = np.arange(1, len(history.train_mse) + 1)
    write_table(path, header, np.column_stack([epochs, history.train_mse, history.val_mse]))


def write_long_samples(path, labels, samples):
    """Ensemble samples in long format: config,ic_index,value.

    ic_index counts successful runs per config; failed initial conditions
    are already excluded upstream.
    """
    lines = ["config,ic_index,value"]
    for label, vals in zip(labels, samples):
        for i, v in enumerate(np.asarray(vals, dtype=float)):
            lines.append(f"{label},{i},{'%.17g' % v}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram_csv(path, labels, bin_edges, counts):
    lines = ["config,bin_lo,bin_hi,count"]
    edges = np.asarray(bin_edges, dtype=float)
    for label, row in zip(labels, counts):
        for lo, hi, c in zip(edges[:-1], edges[1:], row):
            lines.append(f"{label},{'%.17g' % lo},{'%.17g' % hi},{int(c)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_manifest(out_dir, document):
    """Reproducibility record: configs, seeds, model hashes, versions."""
    doc = {"package_version": __version__}
    doc.update(_jsonify(document))
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
