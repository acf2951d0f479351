"""Fixed-step fourth-order integration and seeded attractor sampling."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import NumericalFailure

__all__ = [
    "BlowUpError",
    "Trajectory",
    "SampleSet",
    "draw_in_box",
    "rk4",
    "sample_attractor",
]


# dense batch states a sampler chunk may hold
_BATCH_BYTES = 32 * 2**20


class BlowUpError(NumericalFailure):
    """Raised when a state stops being finite during integration."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"non-finite state at t = {time:.6g}")


@dataclass(frozen=True)
class Trajectory:
    """Dense fixed-step output: times (n,) and states (n, dim), or a batch of
    trajectories with states (n, n_traj, dim).

    A batch's blowup_times (n_traj,) holds the time each row stopped being
    finite, NaN for a row that never did; the states of a blown-up row are
    NaN from that time on.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    blowup_times: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or s.ndim not in (2, 3) or s.shape[0] != t.shape[0]:
            raise ValueError("times (n,) and states (n, dim) or (n, n_traj, dim) must align")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    @property
    def dim(self):
        return self.states.shape[-1]

    @property
    def final_time(self):
        return float(self.times[-1])

    @property
    def final_state(self):
        return self.states[-1]

    def row(self, k):
        """Trajectory k of a batch; raises BlowUpError if that row blew up."""
        if not np.isnan(self.blowup_times[k]):
            raise BlowUpError(time=float(self.blowup_times[k]))
        return Trajectory(times=self.times, states=np.ascontiguousarray(self.states[:, k]))


def _rk4_step(f, a, dt, k1):
    k2 = f(a + 0.5 * dt * k1)
    k3 = f(a + 0.5 * dt * k2)
    k4 = f(a + dt * k3)
    return a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4(field_, a0, t_end, dt):
    """Classical RK4 from t = 0 to t_end with step dt; the last step is shortened
    if t_end is not an integer multiple of dt.  Returns the dense trajectory.

    a0 is one state (dim,) or a batch (n_traj, dim) stepped together, each
    row with the same arithmetic as a run of its own.  A single run raises
    BlowUpError when its state stops being finite; in a batch the row is
    dropped from the stepping and its time recorded in blowup_times.  The
    field is called on (rows, dim) arrays, a single run being one row.
    """
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim not in (1, 2) or a0.shape[-1] != field_.dim:
        raise ValueError(f"initial state must have shape ({field_.dim},) or (n_traj, {field_.dim})")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if not np.all(np.isfinite(a0)):
        raise ValueError("initial state must be finite")

    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    has_tail = remainder > 1e-9 * max(1.0, abs(t_end))

    n_states = n_full + 1 + (1 if has_tail else 0)
    times = np.empty(n_states)
    times[: n_full + 1] = np.arange(n_full + 1) * dt
    if has_tail:
        times[-1] = t_end
    a = a0.reshape(-1, field_.dim)
    states = np.empty((n_states,) + a.shape)
    states[0] = a
    blowup = np.full(a.shape[0], np.nan)

    f = field_.eval
    live = None  # indices of the rows still stepping; None while all are
    # overflow inside a step is handled by the finite check, keep it quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_states):
            k1 = f(a)
            # one row may get one state's derivative back, which broadcasts
            # to it; a batch may not
            if i == 1 and np.shape(k1) not in (a.shape, a.shape[1:] if len(a) == 1 else None):
                raise ValueError(f"field {field_.name!r} changed the shape of the state")
            a = _rk4_step(f, a, dt if i <= n_full else remainder, k1)
            if not np.isfinite(a).all():
                finite = np.isfinite(a).all(axis=1)
                rows = np.arange(a.shape[0]) if live is None else live
                blowup[rows[~finite]] = times[i]
                states[i:, rows[~finite]] = np.nan
                live, a = rows[finite], a[finite]
                if live.size == 0:
                    break
            if live is None:
                states[i] = a
            else:
                states[i, live] = a
    if a0.ndim == 1:
        if not np.isnan(blowup[0]):
            raise BlowUpError(time=blowup[0])
        return Trajectory(times=times, states=states[:, 0])
    return Trajectory(times=times, states=states, blowup_times=blowup)


def _box(ic_box):
    """ic_box as floats, checked to be (dim, 2) rows of [low, high]."""
    box = np.asarray(ic_box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or np.any(box[:, 1] < box[:, 0]):
        raise ValueError("ic_box must be (dim, 2) rows of [low, high] with low <= high")
    return box


def draw_in_box(ic_box, n, seed):
    """n states uniform in ic_box, drawn from default_rng(seed)."""
    box = _box(ic_box)
    return box[:, 0] + (box[:, 1] - box[:, 0]) * np.random.default_rng(seed).random((n, len(box)))


@dataclass(frozen=True)
class SampleSet:
    """Stacked snapshots with their source trajectory ids and times."""

    states: np.ndarray = field(repr=False)
    traj_ids: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    failed_ids: tuple = ()


def sample_attractor(field_, ic_box, n_trajectories, transient_time, sample_time,
                     snapshot_stride, dt, seed=0):
    """Integrate an ensemble and collect post-transient snapshots.

    Each trajectory starts uniform in ic_box, (dim, 2) rows of [low, high],
    drawn by draw_in_box from seed; it runs for transient_time + sample_time
    and keeps every snapshot_stride-th state from the end of the transient.

    All trajectories are stepped together as one batch (in chunks of about
    _BATCH_BYTES of dense states), each row with the arithmetic of a run of
    its own, so results are bit reproducible for a fixed seed and do not
    depend on the chunking.  A trajectory that blows up is dropped and
    recorded in failed_ids; if more than half fail the whole sample is
    abandoned.
    """
    box = _box(ic_box)
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be positive")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be positive")
    if transient_time < 0 or sample_time <= 0:
        raise ValueError("transient_time must be >= 0 and sample_time > 0")
    if box.shape[0] != field_.dim:
        raise ValueError(f"ic_box has {box.shape[0]} rows but the field has dimension {field_.dim}")
    ics = draw_in_box(box, n_trajectories, seed)

    t_total = transient_time + sample_time
    first_kept = int(round(transient_time / dt))
    chunk = max(1, _BATCH_BYTES // (8 * field_.dim * (int(t_total / dt) + 2)))

    states, ids, times = [], [], []
    failed = []
    for lo in range(0, n_trajectories, chunk):
        traj = rk4(field_, ics[lo : lo + chunk], t_total, dt)
        ok = np.isnan(traj.blowup_times)
        keep = np.arange(first_kept, traj.times.shape[0], snapshot_stride)
        # trajectory-major: every kept snapshot of one row, then the next row
        states.append(traj.states[keep][:, ok].transpose(1, 0, 2).reshape(-1, field_.dim))
        times.append(np.tile(traj.times[keep], int(ok.sum())))
        ids.append(np.repeat(lo + np.flatnonzero(ok), keep.shape[0]))
        failed.extend(int(lo + i) for i in np.flatnonzero(~ok))

    if len(failed) > n_trajectories / 2:
        raise BlowUpError(
            time=t_total,
            message=f"{len(failed)} of {n_trajectories} trajectories blew up",
        )
    return SampleSet(
        states=np.concatenate(states, axis=0),
        traj_ids=np.concatenate(ids, axis=0),
        times=np.concatenate(times, axis=0),
        failed_ids=tuple(failed),
    )
