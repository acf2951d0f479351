"""Spans around the calls into aimrom's modules, recorded from outside ``src/``.

``install`` replaces each traced public function at every module attribute
that binds it (``aimrom.rom.rk4`` as well as ``aimrom.integrate.rk4``) and
at its class for methods, and puts the originals back on exit.  A span is
(name, start, end, parent) kept in flat arrays; ``layer_metrics`` folds one
round's spans into the per-layer metrics and ``reset`` drops them.  Times
are self times: a span's duration minus the spans it contains.
"""

import array
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np

MODELS = ("chafee_rhs_3", "chafee_rhs_2", "ks_rhs", "toy_rhs")
# trajectory_to_csv and write_loss_csv write through write_table, so only the
# others count bytes
SERIALIZE_WRITERS = {"write_table": True, "trajectory_to_csv": False, "write_loss_csv": False,
                     "write_long_samples": True, "write_histogram_csv": True,
                     "write_manifest": True}


def _arguments(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _rk4_steps(tally, arg, result):
    # the step count rk4 takes for these arguments: full steps plus a short tail
    t_end, dt = float(arg["t_end"]), float(arg["dt"])
    n_full = math.floor(t_end / dt + 1e-9)
    tally["integrate.rk4_steps"] += n_full + (t_end - n_full * dt > 1e-9 * max(1.0, abs(t_end)))


def _adam_steps(tally, arg, result):
    cfg, n = arg["cfg"], np.shape(arg["x"])[0]
    n_train = n - int(round(cfg.validation_fraction * n))
    tally["nn.train_epochs"] += cfg.epochs
    tally["nn.adam_steps"] += cfg.epochs * math.ceil(n_train / cfg.batch_size)


def _kept(tally, arg, result):
    tally["dmaps.kept_coords"] += len(result[0].kept_indices)


def _pipelines(tally, arg, result):
    tally["metrics.pipelines_attempted"] += len(arg["configs"]) * arg["n_ic"]
    tally["metrics.pipelines_failed"] += sum(result.failed)


def _bytes(tally, arg, result):
    path = arg.get("path") or Path(arg["out_dir"]) / "manifest.json"
    tally["serialize.bytes_written"] += Path(path).stat().st_size


def _stored_bytes(tally, arg, result):
    store = arg["self"]
    tally["serialize.bytes_written"] += (store.root / f"{result}.json").stat().st_size
    if arg.get("alias") is not None:
        tally["serialize.bytes_written"] += (store.root / "aliases.json").stat().st_size


def _targets():
    """(owner, attribute, span name, hook) for every traced function."""
    from aimrom import aim, dmaps, integrate, metrics, models, nn, rom, serialize, spectral, svg

    out = [(models, name, f"models.{name}", None) for name in MODELS]
    out += [
        (integrate, "rk4", "integrate.rk4", _rk4_steps),
        (integrate, "sample_attractor", "integrate.sample_attractor", None),
        (nn, "train", "nn.train", _adam_steps),
        (nn, "train_autoencoder", "nn.train_autoencoder", _adam_steps),
        (nn, "forward", "nn.forward", None),
        (nn, "decoder_invert", "nn.decoder_invert", None),
        (dmaps, "dmaps_fit", "dmaps.dmaps_fit", None),
        (dmaps, "select_independent", "dmaps.select_independent", _kept),
        (dmaps, "gh_fit", "dmaps.gh_fit", None),
        (dmaps, "gh_extend", "dmaps.gh_extend", None),
        (aim, "postprocess", "aim.postprocess", None),
        (rom, "run_pipeline", "rom.run_pipeline", None),
        (rom.LearnedField, "eval", "rom.LearnedField.eval", None),
        (metrics, "ensemble_histogram", "metrics.ensemble_histogram", _pipelines),
        (spectral, "reconstruct", "spectral.reconstruct", None),
        (serialize, "read_table", "serialize.read_table", None),
        (serialize.ModelStore, "save", "serialize.store_save", _stored_bytes),
        (serialize.ModelStore, "load", "serialize.store_load", None),
        (svg, "save_line_plot", "svg.save_line_plot", None),
    ]
    out += [(serialize, name, f"serialize.{name}", _bytes if counts else None)
            for name, counts in SERIALIZE_WRITERS.items()]
    return out


class Tracer:
    """In-memory span store plus exact counts tallied from call arguments."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack = []
        self.tally = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, hook=None):
        nid = self._id(name)
        arguments = _arguments(fn) if hook is not None else None

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.tally, arguments(args, kwargs), result)
            return result

        return traced

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, name in enumerate(self.names) if calls[i]}


@contextmanager
def install(tracer):
    """Wrap every traced function wherever aimrom binds it; restore on exit."""
    targets = _targets()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "aimrom" or name.startswith("aimrom.")]
    patched = []
    for owner, attr, name, hook in targets:
        original = inspect.getattr_static(owner, attr)
        wrapper = tracer.wrap(name, original, hook)
        for holder in [owner] if isinstance(owner, type) else modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patched.append((holder, key, original))
    try:
        yield tracer
    finally:
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)


def _self(summary, prefix):
    return sum(v[2] for k, v in summary.items() if k.startswith(prefix))


def _calls(summary, prefix):
    return sum(v[0] for k, v in summary.items() if k.startswith(prefix))


def layer_metrics(tracer):
    """One round's per-layer metrics: name -> (value, unit)."""
    s = tracer.summary()
    t = tracer.tally

    def get(name):
        return s.get(name, (0, 0.0, 0.0))

    rhs_calls, rhs_s = _calls(s, "models."), _self(s, "models.")
    rk4 = get("integrate.rk4")
    train, train_ae = get("nn.train"), get("nn.train_autoencoder")
    adam = t["nn.adam_steps"]
    out = {
        "models.rhs_calls": (rhs_calls, "count"),
        "models.rhs_s": (rhs_s, "s"),
        "models.rhs_us": (1e6 * rhs_s / rhs_calls if rhs_calls else 0.0, "us"),
        "integrate.rk4_calls": (rk4[0], "count"),
        "integrate.rk4_steps": (t["integrate.rk4_steps"], "count"),
        "integrate.rk4_self_s": (rk4[2], "s"),
        "integrate.steps_per_s": (t["integrate.rk4_steps"] / rk4[1] if rk4[1] else 0.0, "1/s"),
        "integrate.sample_attractor_s": (get("integrate.sample_attractor")[2], "s"),
        "nn.train_s": (train[2], "s"),
        "nn.train_epochs": (t["nn.train_epochs"], "count"),
        "nn.adam_steps": (adam, "count"),
        "nn.adam_step_us": (1e6 * (train[1] + train_ae[1]) / adam if adam else 0.0, "us"),
        "nn.train_autoencoder_s": (train_ae[2], "s"),
        "nn.forward_calls": (get("nn.forward")[0], "count"),
        "nn.forward_s": (get("nn.forward")[2], "s"),
        "nn.decoder_invert_calls": (get("nn.decoder_invert")[0], "count"),
        "nn.decoder_invert_s": (get("nn.decoder_invert")[2], "s"),
        "dmaps.dmaps_fit_s": (get("dmaps.dmaps_fit")[2], "s"),
        "dmaps.select_independent_s": (get("dmaps.select_independent")[2], "s"),
        "dmaps.gh_fit_s": (get("dmaps.gh_fit")[2], "s"),
        "dmaps.gh_extend_calls": (get("dmaps.gh_extend")[0], "count"),
        "dmaps.gh_extend_s": (get("dmaps.gh_extend")[2], "s"),
        "dmaps.kept_coords": (t["dmaps.kept_coords"], "count"),
        "aim.postprocess_calls": (get("aim.postprocess")[0], "count"),
        "aim.postprocess_s": (get("aim.postprocess")[2], "s"),
        "rom.run_pipeline_calls": (get("rom.run_pipeline")[0], "count"),
        "rom.run_pipeline_self_s": (get("rom.run_pipeline")[2], "s"),
        "metrics.ensemble_histogram_s": (get("metrics.ensemble_histogram")[2], "s"),
        "metrics.pipelines_attempted": (t["metrics.pipelines_attempted"], "count"),
        "metrics.pipelines_failed": (t["metrics.pipelines_failed"], "count"),
        "spectral.reconstruct_calls": (get("spectral.reconstruct")[0], "count"),
        "spectral.reconstruct_s": (get("spectral.reconstruct")[2], "s"),
        "serialize.write_s": (sum(get(f"serialize.{n}")[2] for n in SERIALIZE_WRITERS), "s"),
        "serialize.read_table_s": (get("serialize.read_table")[2], "s"),
        "serialize.store_save_s": (get("serialize.store_save")[2], "s"),
        "serialize.store_load_s": (get("serialize.store_load")[2], "s"),
        "serialize.bytes_written": (t["serialize.bytes_written"], "bytes"),
        "svg.save_line_plot_s": (get("svg.save_line_plot")[2], "s"),
        "cli.commands": (_calls(s, "cli."), "count"),
        "cli.self_s": (_self(s, "cli."), "s"),
    }
    return out
