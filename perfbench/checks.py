"""Checks of the program's outputs against the independent reference.

Each check reads one round's output directory, compares it with the
reference in ``reference.py`` or with a property the method must have, and
returns a one-line summary; a failed check raises ``CheckFailed``.  The
checks read the files the commands wrote (CSV, metrics.json, manifests and
the stored model documents) and import nothing from aimrom.
"""

import csv
import json
from functools import cached_property, partial
from pathlib import Path

import numpy as np

import reference as ref
import workloads as wl

# Relative to the largest reference coefficient, by model and mode count.  The
# program's RK4 is good to about 1e-12 on the reaction-diffusion runs (dt =
# 1e-3), and to 1e-7 on KS-8 and 2e-5 on the fast-growing KS-3 truncation
# (dt = 1e-4) over the seeds tried.
STATE_RTOL = {("chafee", 2): 1e-8, ("chafee", 3): 1e-8, ("ks", 3): 1e-4, ("ks", 8): 1e-6}
MAPE_RTOL = 1e-4
EIG_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _json(path):
    return json.loads(Path(path).read_text())


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _samples(path):
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["config"], []).append(float(row["value"]))
    return {label: np.array(v) for label, v in out.items()}


class Round:
    """One round's outputs plus the reference solutions the checks share."""

    def __init__(self, workload, seed, root):
        self.workload, self.seed, self.root = workload, seed, Path(root)
        self.steps = {s.name: s for s in wl.WORKLOADS[workload](seed)}

    def out(self, name, file):
        return self.root / "out" / name / file

    def metrics(self, name):
        return _json(self.out(name, "metrics.json"))

    def stored(self, alias):
        """The store document of a model: {"model": ..., "meta": ...}."""
        store = self.root / wl.STORE
        return _json(store / f"{_json(store / 'aliases.json')[alias]}.json")

    def model(self, alias):
        return self.stored(alias)["model"]

    @cached_property
    def snapshots(self):
        return _table(self.out("sample", "snapshots.csv"))

    @property
    def chafee(self):
        return self.workload == "chafee-postprocess"

    def rhs(self, a):
        return ref.chafee_rhs(a) if self.chafee else ref.ks_rhs(a)

    def state_error(self, got, expected):
        """Relative error and its tolerance for states of this many modes."""
        tol = STATE_RTOL["chafee" if self.chafee else "ks", np.shape(expected)[-1]]
        return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected))), tol

    @property
    def length(self):
        return np.pi if self.chafee else 2.0 * np.pi

    @property
    def n_low(self):
        return 2 if self.chafee else 3

    @property
    def sizes(self):
        return wl.CHAFEE if self.chafee else wl.KS

    @cached_property
    def ic(self):
        return np.asarray(next(iter(s.config["pipeline"]["ic"] for s in self.steps.values()
                                    if "pipeline" in s.config)))

    @cached_property
    def truth(self):
        return ref.solve(self.rhs, self.ic, self.sizes["final_time"])

    @cached_property
    def truncated(self):
        return ref.solve(self.rhs, self.ic[: self.n_low], self.sizes["final_time"])

    def field(self, coeffs):
        return ref.field_on_grid(coeffs, self.length)

    def padded(self, low, tail=None):
        n_full = self.truth.shape[0]
        tail = np.zeros(n_full - self.n_low) if tail is None else np.atleast_1d(tail)
        return np.concatenate([low, tail])


# ---------------------------------------------------------------- shared checks

def snapshot_count(r):
    sz = r.sizes
    n_steps = round((sz["transient_time"] + sz["sample_time"]) / sz["dt"])
    per_traj = len(range(round(sz["transient_time"] / sz["dt"]), n_steps + 1,
                         sz["snapshot_stride"]))
    expected = sz["n_trajectories"] * per_traj
    man = _json(r.out("sample", "manifest.json"))
    got = (r.snapshots.shape[0], man["n_snapshots"], len(man["failed_trajectories"]))
    require(got == (expected, expected, 0),
            f"snapshots (rows, manifest, failed) {got}, expected ({expected}, {expected}, 0)")
    return f"{expected} snapshots, none failed"


def sampled_trajectory(r):
    j = r.seed % r.sizes["n_trajectories"]
    rows = r.snapshots[r.snapshots[:, 0] == j]
    t = rows[:, 1] - rows[0, 1]
    expected = ref.solve(r.rhs, rows[0, 2:], t[-1], t_eval=t)
    err, tol = r.state_error(rows[:, 2:], expected)
    require(err < tol, f"trajectory {j} is {err:.3e} from the reference (tol {tol})")
    return f"trajectory {j} ({t.size} snapshots) within {err:.1e} of the reference"


def scores(r, name):
    """metrics.json raw and corrected MAPE equal the MAPE recomputed on the
    benchmark's own grid from the reference truth; this is where the truth
    final state is checked."""
    m = r.metrics(name)
    c = np.asarray(m["corrected_coeffs"])
    u = r.field(r.truth)
    raw = ref.mape(r.field(r.padded(c[: r.n_low])), u)
    corr = ref.mape(r.field(c), u)
    for label, mine, theirs in (("raw", raw, m["raw"]["mape_final"]),
                                ("corrected", corr, m["corrected"]["mape_final"])):
        require(abs(mine - theirs) <= MAPE_RTOL * abs(mine),
                f"{name}: {label} MAPE {theirs!r}, reference truth gives {mine!r}")
    return f"{name}: raw {raw:.4f}% and corrected {corr:.4f}% MAPE match the reference truth"


def low_block(r, name):
    c = np.asarray(r.metrics(name)["corrected_coeffs"])
    err, tol = r.state_error(c[: r.n_low], r.truncated)
    require(err < tol,
            f"{name}: low block {c[: r.n_low]} is {err:.3e} from the reference truncation")
    return f"{name}: low block within {err:.1e} of the reference {r.n_low}-mode truncation"


def ensemble_medians(r, better, worse):
    s = _samples(r.out("ensemble", "samples.csv"))
    n_ic = r.steps["ensemble"].config["n_ic"]
    require(all(v.size == n_ic for v in s.values()), f"ensemble sample counts {s}")
    med = {label: float(np.median(v)) for label, v in s.items()}
    for b in better:
        require(med[b] < med[worse],
                f"ensemble median MAPE {b} {med[b]:.4g}% not below {worse} {med[worse]:.4g}%")
    return "ensemble median MAPE " + ", ".join(f"{k} {v:.3g}%" for k, v in med.items())


# ---------------------------------------------------------------- chafee

def euler_galerkin_coeffs(r):
    c = np.asarray(r.metrics("eval-euler-galerkin")["corrected_coeffs"])
    low = r.truncated
    expected = np.append(low, ref.chafee_alpha3(low[0], low[1]))
    err, tol = r.state_error(c, expected)
    require(err < tol, f"euler-galerkin coefficients {c}, reference {expected}")
    return f"euler-galerkin coefficients within {err:.1e} of [reference 2-mode state, alpha3]"


def mlp_removed_share(r):
    m = r.metrics("eval-mlp")
    c = np.asarray(m["corrected_coeffs"])
    u = r.field(r.truth)
    oracle = ref.mape(r.field(r.padded(c[:2], r.truth[2:])), u)
    raw, corr = m["raw"]["mape_final"], m["corrected"]["mape_final"]
    share = (raw - corr) / (raw - oracle)
    require(share >= 0.8, f"mlp closure removes {share:.3f} of the removable error (< 0.8)")
    return f"mlp closure removes {share:.3f} of the removable error (raw {raw:.2f}%, " \
           f"corrected {corr:.2f}%, oracle {oracle:.2f}%)"


# ---------------------------------------------------------------- KS diffusion maps

def dmap_spectrum(r):
    dm = r.model("dm")
    lam = np.asarray(dm["eigenvalues"])
    points = np.asarray(dm["train_points"])
    require(np.array_equal(points, r.snapshots[:, 2:]), "dmap was not fitted on the snapshots")
    require(abs(lam[0] - 1.0) <= 1e-12, f"trivial eigenvalue {lam[0]!r} is not 1")
    expected = ref.dmaps_eigenvalues(points, dm["epsilon"], lam.size)
    err = float(np.max(np.abs(lam - expected)))
    require(err < EIG_TOL, f"eigenvalues {lam} differ from the reference {expected} by {err:.2e}")
    return f"trivial eigenvalue 1 - {abs(1 - lam[0]):.1e}; {lam.size} eigenvalues within " \
           f"{err:.1e} of the reference"


def dmap_pruning(r):
    """The kept coordinates follow from the stored eigenvectors by the
    leave-one-out rule (the CLI defaults: bandwidth factor 3, threshold 0.2),
    recomputed here.  Criterion 06's count of 3 is reported, not required:
    on some seeds the rule keeps a fourth coordinate (see CHANGES.md)."""
    doc = r.stored("dm")
    vecs = np.asarray(doc["model"]["eigenvectors"])
    stored = np.asarray(doc["meta"]["residuals"])
    fits = [ref.loo_residual(vecs[:, 1:k], vecs[:, k], 3.0) for k in range(2, vecs.shape[1])]
    mine = np.array([1.0] + [res for res, _ in fits])
    # the program solves each point's normal equations by lstsq, which drops
    # singular values below about 1e-15 of the largest; where a fit's normal
    # matrices reach a condition number of 1e13 its residual is not
    # determined to the tolerance, and only its side of the threshold is
    # checked (see the FOUND: line on select_independent in CHANGES.md)
    sound = np.array([True] + [cond < 1e13 for _, cond in fits])
    err = float(np.max(np.abs(stored - mine)[sound]))
    require(err < 1e-6, f"stored pruning residuals {stored} differ from the reference {mine}")
    kept = doc["model"]["kept_indices"]
    expected = [1] + [k for k in range(2, vecs.shape[1]) if stored[k - 1] > 0.2]
    recomputed = [1] + [k for k in range(2, vecs.shape[1]) if mine[k - 1] > 0.2]
    require(kept == expected == recomputed == doc["meta"]["kept_indices"],
            f"pruning keeps {kept}; the stored residuals {np.round(stored, 3)} keep {expected}, "
            f"the recomputed ones {np.round(mine, 3)} keep {recomputed}")
    return f"pruning keeps {kept} ({len(kept)} coordinates; criterion 06 expects 3), as the " \
           f"leave-one-out residuals decide; {int(sound.sum())} of {sound.size} recomputed " \
           f"to {err:.1e}, the rest on an ill-conditioned fit"


def held_out(seed, n_trajectories=16):
    """Snapshots from the sampling window drawn with a seed the workload does not use."""
    sz, box = wl.KS, np.asarray(wl.KS_BOX)
    rng = np.random.default_rng([seed, 1])
    a0 = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random((n_trajectories, 8))
    n_steps = round((sz["transient_time"] + sz["sample_time"]) / sz["dt"])
    path = ref.rk4_batch(ref.ks_rhs, a0, sz["dt"], n_steps)
    keep = path[round(sz["transient_time"] / sz["dt"])::sz["snapshot_stride"]]
    return keep.reshape(-1, 8)


def held_out_reconstruction(r):
    x = held_out(r.seed)
    dm, lift, ae = r.model("dm"), r.model("lift"), r.model("ae")
    z = ref.dmaps_restrict(dm, x)[:, dm["kept_indices"]]
    mse_dd = float(np.mean((ref.gh_extend(lift, z) - x) ** 2))
    recon = ref.mlp_forward(ae["decoder"], ref.mlp_forward(ae["encoder"], x))
    mse_ae = float(np.mean((recon - x) ** 2))
    require(mse_dd <= 4.92e-2, f"held-out lift MSE {mse_dd:.3e} > 4.92e-2")
    require(mse_ae <= 0.155, f"held-out autoencoder MSE {mse_ae:.3e} > 0.155")
    return f"held-out MSE on {x.shape[0]} snapshots: lift {mse_dd:.3e} (<= 4.92e-2), " \
           f"autoencoder {mse_ae:.3e} (<= 0.155)"


# ---------------------------------------------------------------- KS gray-box

def gray_box_beats_truncation(r):
    c = np.asarray(r.metrics("eval-gray-box")["corrected_coeffs"])[:3]
    truth = r.truth[:3]
    err_gb = float(np.linalg.norm(c - truth) / np.linalg.norm(truth))
    err_tr = float(np.linalg.norm(r.truncated - truth) / np.linalg.norm(truth))
    require(err_gb < err_tr, f"gray-box low-mode error {err_gb:.3e} not below truncated {err_tr:.3e}")
    return f"low-mode relative error: gray-box {err_gb:.3e} < truncated {err_tr:.3e}"


CHECKS = {
    "chafee-postprocess": {
        "snapshot_count": snapshot_count,
        "sampled_trajectory": sampled_trajectory,
        "euler_galerkin_coeffs": euler_galerkin_coeffs,
        "scores:eval-euler-galerkin": partial(scores, name="eval-euler-galerkin"),
        "scores:eval-mlp": partial(scores, name="eval-mlp"),
        "mlp_removed_share": mlp_removed_share,
        "ensemble_medians": partial(
            ensemble_medians, better=("chafee/fourier/truncated/euler-galerkin",
                                      "chafee/fourier/truncated/mlp"),
            worse="chafee/fourier/truncated/none"),
    },
    "ks-dmaps": {
        "snapshot_count": snapshot_count,
        "dmap_spectrum": dmap_spectrum,
        "dmap_pruning": dmap_pruning,
        "held_out_reconstruction": held_out_reconstruction,
        "low_block:eval-double-dmaps": partial(low_block, name="eval-double-dmaps"),
        "scores:eval-double-dmaps": partial(scores, name="eval-double-dmaps"),
    },
    "ks-graybox": {
        "snapshot_count": snapshot_count,
        "sampled_trajectory": sampled_trajectory,
        "scores:eval-gray-box": partial(scores, name="eval-gray-box"),
        "scores:eval-black-box": partial(scores, name="eval-black-box"),
        "gray_box_beats_truncation": gray_box_beats_truncation,
        "ensemble_medians": partial(ensemble_medians, better=("ks/fourier/gray-box/none",),
                                    worse="ks/fourier/truncated/none"),
    },
}


def _files(root):
    return {p.relative_to(root): p for sub in ("out", wl.STORE, "config")
            for p in sorted((root / sub).rglob("*")) if p.is_file()}


def same_bytes(first, other):
    a, b = _files(first), _files(other)
    require(a.keys() == b.keys(), f"{other.name} wrote other files than {first.name}")
    differ = [str(k) for k in a if a[k].read_bytes() != b[k].read_bytes()]
    require(not differ, f"{other.name} differs from {first.name} in {differ}")
    return f"{other.name}: {len(a)} files byte-identical to {first.name}"


def run(workload, seed, roots):
    """Check the first round against the reference and the rest against the
    first; yields one line per passed check."""
    r = Round(workload, seed, roots[0])
    for check in CHECKS[workload].values():
        yield check(r)
    for other in roots[1:]:
        yield same_bytes(roots[0], other)
