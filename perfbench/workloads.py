"""The three benchmark workloads: YAML configs written from a seed, and the
fixed sequence of ``aimrom`` CLI commands that runs each of them.

Every seed in a config is the benchmark's ``--seed``, so one seed fixes the
sampled initial conditions, the training shuffles and the ensemble draw.
Paths in the configs are relative: a round runs with its own directory as
the working directory, so it starts from an empty model store (which skips
writing a model it already holds) and every round does the same work and
writes the same bytes.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from reference import KS_NU, ks_rhs, rk4_batch

STORE = "store"
SNAPSHOTS = "out/sample/snapshots.csv"
CHAFEE_IC = [1.0, 0.5, 0.1]
CHAFEE_BOX = [[-1.2, 1.2], [-0.6, 0.6], [-0.4, 0.4]]
KS_BOX = [[-1.0, 1.0]] * 2 + [[-0.5, 0.5]] * 6

# Sizes of the workloads; the checks read them back from here.
CHAFEE = {
    "n_trajectories": 16, "transient_time": 2.0, "sample_time": 0.5,
    "snapshot_stride": 10, "dt": 1.0e-3, "final_time": 5.0,
    "epochs": 400, "n_ic": 8, "ensemble_dt": 1.0e-2,
}
KS = {
    "n_trajectories": 80, "transient_time": 0.01, "sample_time": 0.05,
    "snapshot_stride": 20, "dt": 1.0e-4, "final_time": 0.05,
}


@dataclass(frozen=True)
class Step:
    """One CLI command: its phase (sample, train or evaluate), name and config."""

    phase: str
    command: str
    name: str
    config: dict


def _sample(model, box, sizes, seed):
    return {
        "model": model, "ic_box": box, "n_trajectories": sizes["n_trajectories"],
        "transient_time": sizes["transient_time"], "sample_time": sizes["sample_time"],
        "snapshot_stride": sizes["snapshot_stride"], "dt": sizes["dt"], "seed": seed,
    }


def _pipeline(model, route, dynamics, closure, ic, sizes):
    return {
        "model": model, "latent_route": route, "dynamics": dynamics,
        "closure": closure, "ic": list(ic), "final_time": sizes["final_time"],
        "dt": sizes["dt"],
    }


def ks_manifold_ic(seed):
    """An on-manifold KS-8 state: a seeded box draw carried through the
    sampler's transient by the reference integrator."""
    box = np.asarray(KS_BOX)
    rng = np.random.default_rng([seed, 8])
    a0 = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(8)
    steps = int(round(KS["transient_time"] / KS["dt"]))
    a = rk4_batch(lambda s: ks_rhs(s, KS_NU), a0[None, :], KS["dt"], steps)[-1, 0]
    return [float(v) for v in a]


def chafee_postprocess(seed):
    train = {"learning_rate": 2.0e-3, "epochs": CHAFEE["epochs"], "batch_size": 64, "seed": seed}
    eg = _pipeline("chafee", "fourier", "truncated", "euler-galerkin", CHAFEE_IC, CHAFEE)
    mlp = dict(eg, closure="mlp")
    none = dict(eg, closure="none")
    return [
        Step("sample", "sample", "sample", _sample("chafee", CHAFEE_BOX, CHAFEE, seed)),
        Step("train", "train", "closure", {
            "kind": "closure", "alias": "cl", "store": STORE, "data": SNAPSHOTS,
            "model": "chafee", "n_low": 2, "hidden": [24, 24], "train": train}),
        Step("evaluate", "evaluate", "eval-euler-galerkin", {"pipeline": eg, "store": STORE}),
        Step("evaluate", "evaluate", "eval-mlp", {
            "pipeline": mlp, "store": STORE, "artifacts": {"closure-net": "cl"}}),
        Step("evaluate", "ensemble", "ensemble", {
            "pipelines": [dict(p, dt=CHAFEE["ensemble_dt"]) for p in (eg, mlp, none)],
            "ic_box": CHAFEE_BOX, "n_ic": CHAFEE["n_ic"], "seed": seed, "store": STORE,
            "artifacts": {"closure-net": "cl"}}),
    ]


def ks_dmaps(seed):
    ic = ks_manifold_ic(seed)
    dd = _pipeline("ks", "dmaps", "truncated", "double-dmaps", ic, KS)
    di = _pipeline("ks", "autoencoder", "truncated", "decoder-inversion", ic, KS)
    latent = {"latent-map": "lm", "lift": "lift"}
    return [
        Step("sample", "sample", "sample", _sample("ks", KS_BOX, KS, seed)),
        Step("train", "train", "dmap", {
            "kind": "dmap", "alias": "dm", "store": STORE, "data": SNAPSHOTS,
            "n_eigs": 10, "prune": True}),
        Step("train", "train", "lift", {"kind": "lift", "alias": "lift", "store": STORE,
                                        "dmap": "dm"}),
        Step("train", "train", "latent-map", {
            "kind": "latent-map", "alias": "lm", "store": STORE, "dmap": "dm", "n_low": 3,
            "train": {"learning_rate": 2.0e-3, "epochs": 40, "batch_size": 64, "seed": seed}}),
        Step("train", "train", "autoencoder", {
            "kind": "autoencoder", "alias": "ae", "store": STORE, "data": SNAPSHOTS,
            "latent_dim": 3, "hidden": [32, 32],
            "train": {"learning_rate": 5.0e-3, "epochs": 100, "batch_size": 64, "seed": seed}}),
        Step("evaluate", "evaluate", "eval-double-dmaps", {
            "pipeline": dd, "store": STORE, "artifacts": latent}),
        Step("evaluate", "ensemble", "ensemble", {
            "pipelines": [dd, di], "ic_box": KS_BOX, "n_ic": 10, "seed": seed,
            "store": STORE, "artifacts": dict(latent, autoencoder="ae")}),
    ]


def ks_graybox(seed):
    ic = ks_manifold_ic(seed)
    gb = _pipeline("ks", "fourier", "gray-box", "none", ic, KS)
    bb = _pipeline("ks", "fourier", "black-box", "none", ic, KS)
    tr = _pipeline("ks", "fourier", "truncated", "none", ic, KS)
    def train(epochs):
        return {"learning_rate": 2.0e-3, "epochs": epochs, "batch_size": 64, "seed": seed}

    return [
        Step("sample", "sample", "sample", _sample("ks", KS_BOX, KS, seed)),
        Step("train", "train", "gray-box", {
            "kind": "gray-box", "alias": "gb", "store": STORE, "data": SNAPSHOTS,
            "model": "ks", "n_low": 3, "train": train(100)}),
        Step("train", "train", "black-box", {
            "kind": "black-box", "alias": "bb", "store": STORE, "data": SNAPSHOTS,
            "model": "ks", "n_low": 3, "train": train(60)}),
        Step("evaluate", "evaluate", "eval-gray-box", {
            "pipeline": gb, "store": STORE, "artifacts": {"dynamics-net": "gb"}}),
        Step("evaluate", "evaluate", "eval-black-box", {
            "pipeline": bb, "store": STORE, "artifacts": {"dynamics-net": "bb"}}),
        Step("evaluate", "ensemble", "ensemble", {
            "pipelines": [tr, gb], "ic_box": KS_BOX, "n_ic": 20, "seed": seed,
            "store": STORE, "artifacts": {"dynamics-net": "gb"}}),
    ]


WORKLOADS = {
    "chafee-postprocess": chafee_postprocess,
    "ks-dmaps": ks_dmaps,
    "ks-graybox": ks_graybox,
}


def write_configs(workload, seed, root):
    """Write one round's configs under root/config; returns the steps."""
    root = Path(root)
    steps = WORKLOADS[workload](seed)
    (root / "config").mkdir(parents=True, exist_ok=True)
    for step in steps:
        (root / "config" / f"{step.name}.yaml").write_text(
            yaml.safe_dump(step.config, sort_keys=False))
    return steps
