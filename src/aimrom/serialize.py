"""Artifact persistence: canonical JSON model files, CSV tables, manifests.

A model file is {"model": {"format": tag, <each dataclass field>: value},
"meta": ...}, with the tag from _FORMATS; model_to_dict and model_from_dict
derive both directions from the model's dataclass fields.
Floats go through repr / %.17g everywhere, so a reload is bit-identical
and a retrain under the same seed lands on the same content hash.  No
file carries a timestamp; reproducibility is checked by byte comparison.
"""

import hashlib
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import MissingArtifactError, __version__
from .dmaps import DiffusionMap, GeometricHarmonics
from .models import VectorField, field_from_name
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
    """JSON-native form: arrays by tolist, numpy scalars by item, tuples
    element-wise, a stored model type as its document, a field by its name."""
    if type(x) in _FORMATS:
        return model_to_dict(x)
    if isinstance(x, VectorField):
        return x.name
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
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

# the stored format tag of each model type
_FORMATS = {
    Mlp: "mlp-v1",
    Autoencoder: "autoencoder-v1",
    LearnedField: "learned-field-v1",
    DiffusionMap: "dmap-v1",
    GeometricHarmonics: "gh-v1",
    PodModel: "pod-v1",
}
_CLASSES = {fmt: cls for cls, fmt in _FORMATS.items()}


def model_to_dict(obj):
    """{"format": tag, <each dataclass field>: value} for a _FORMATS type."""
    fmt = _FORMATS.get(type(obj))
    if fmt is None:
        raise TypeError(f"no serializer for {type(obj).__name__}")
    return {"format": fmt, **{f.name: _jsonify(getattr(obj, f.name)) for f in fields(obj)}}


def model_from_dict(doc):
    cls = _CLASSES.get(doc.get("format"))
    if cls is None:
        raise ValueError(f"unknown model format {doc.get('format')!r}")
    if missing := [f.name for f in fields(cls) if f.name not in doc]:
        raise MissingArtifactError(f"stored {doc['format']!r} document lacks fields {missing}")
    return cls(**{f.name: _decode(f.type, doc[f.name]) for f in fields(cls)})


def _decode(kind, value):
    """A stored field value rebuilt as the type its annotation names."""
    if value is None:
        return None
    if kind is np.ndarray:
        return np.asarray(value, dtype=float)
    if kind is tuple:
        return tuple(np.asarray(v, dtype=float) if isinstance(v, list) else v for v in value)
    if kind is VectorField:
        return field_from_name(value)
    if isinstance(value, dict):
        obj = model_from_dict(value)
        if not isinstance(obj, kind):
            raise ValueError(f"expected a {_FORMATS[kind]!r} document, got {value['format']!r}")
        return obj
    return value


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
        self.root.mkdir(parents=True, exist_ok=True)
        _write_atomic(self.root / f"{key}.json", text + "\n")
        if alias is not None:
            table = self.aliases()
            table[str(alias)] = key
            _write_atomic(self._alias_path, json.dumps(table, indent=2, sort_keys=True) + "\n")
        return key

    def resolve(self, name):
        """Alias or hash key -> hash key; MissingArtifactError lists known aliases."""
        if not self.root.is_dir():
            raise MissingArtifactError(f"no stored model {name!r}: no model store at {self.root}")
        table = self.aliases()
        if name in table:
            return table[name]
        if _KEY.fullmatch(name) and (self.root / f"{name}.json").exists():
            return name
        known = ", ".join(sorted(table)) or "(none)"
        raise MissingArtifactError(f"no stored model {name!r}; available aliases: {known}")

    def load(self, name):
        """Load a stored model; MissingArtifactError if its file no longer hashes to its key."""
        key = self.resolve(name)
        text = (self.root / f"{key}.json").read_text()
        if hashlib.sha256(text.removesuffix("\n").encode()).hexdigest() != key:
            raise MissingArtifactError(f"stored model {key} does not match its hash; "
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


def write_long_samples(path, labels, samples, ic_indices):
    """Ensemble samples in long format: config,ic_index,value.

    ic_index is each sample's position in the drawn set of initial
    conditions, so a failed initial condition leaves a gap.
    """
    lines = ["config,ic_index,value"]
    for label, vals, ks in zip(labels, samples, ic_indices):
        for k, v in zip(ks, np.asarray(vals, dtype=float)):
            lines.append(f"{label},{k},{'%.17g' % v}")
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
