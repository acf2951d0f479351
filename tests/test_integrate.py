import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimrom.integrate import (
    BlowUpError,
    Trajectory,
    rk4,
    sample_attractor,
)
from aimrom.models import VectorField, analytic_field, toy_field


def scalar_field(f):
    return VectorField(1, lambda a: np.array([f(a[0])]))


def test_rk4_linear_decay_matches_exponential():
    field = scalar_field(lambda x: -x)
    traj = rk4(field, np.array([1.0]), t_end=1.0, dt=1e-3)
    assert traj.times[0] == 0.0
    assert traj.final_time == pytest.approx(1.0, abs=1e-12)
    assert traj.final_state[0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_rk4_row_count_matches_step_count():
    field = scalar_field(lambda x: -x)
    traj = rk4(field, np.array([1.0]), t_end=5.0, dt=1e-3)
    assert traj.states.shape == (5001, 1)
    assert traj.times.shape == (5001,)


def test_rk4_shortened_final_step():
    field = scalar_field(lambda x: -x)
    traj = rk4(field, np.array([1.0]), t_end=0.25, dt=0.1)
    assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.25])
    assert traj.final_state[0] == pytest.approx(math.exp(-0.25), abs=1e-5)


def test_rk4_fourth_order_convergence():
    # logistic-type nonlinear scalar with known solution
    field = scalar_field(lambda x: x * (1 - x))
    x0 = np.array([0.1])
    exact = 1.0 / (1.0 + 9.0 * math.exp(-2.0))

    errors = []
    for dt in (0.2, 0.1, 0.05):
        traj = rk4(field, x0, t_end=2.0, dt=dt)
        errors.append(abs(traj.final_state[0] - exact))
    order1 = math.log(errors[0] / errors[1]) / math.log(2.0)
    order2 = math.log(errors[1] / errors[2]) / math.log(2.0)
    assert order1 > 3.8
    assert order2 > 3.8


def test_rk4_rejects_bad_arguments():
    field = scalar_field(lambda x: -x)
    with pytest.raises(ValueError):
        rk4(field, np.array([1.0, 2.0]), 1.0, 0.1)
    with pytest.raises(ValueError):
        rk4(field, np.array([1.0]), -1.0, 0.1)
    with pytest.raises(ValueError):
        rk4(field, np.array([1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        rk4(field, np.array([np.nan]), 1.0, 0.1)


def test_rk4_blowup_reports_time():
    field = scalar_field(lambda x: x * x)  # finite-time blow-up at t = 1 for x0 = 1
    with pytest.raises(BlowUpError) as err:
        rk4(field, np.array([1.0]), 2.0, 1e-3)
    assert 0.9 < err.value.time < 1.1


def test_trajectory_validates_alignment():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 2)))


def test_rk4_chafee_settles_toward_attractor():
    field = analytic_field("chafee", 3, 0.16)
    traj = rk4(field, np.array([1.0, 0.5, 0.1]), t_end=20.0, dt=1e-3)
    # late-time state should nearly be a fixed point
    assert np.max(np.abs(field.eval(traj.final_state))) < 1e-6


def test_sampler_single_trajectory_identity():
    # one trajectory, no transient, stride 1: the dataset is the rk4 output
    field = toy_field(0.05)
    plan = dict(ic_box=[[0.0, 1.0], [0.0, 1.0]], n_trajectories=1, transient_time=0.0,
                sample_time=0.5, snapshot_stride=1, seed=42)
    out = sample_attractor(field, dt=1e-3, **plan)
    rng = np.random.default_rng(42)
    ic = rng.random((1, 2))[0]
    traj = rk4(field, ic, 0.5, 1e-3)
    assert np.array_equal(out.states, traj.states)
    assert np.array_equal(out.times, traj.times)
    assert np.all(out.traj_ids == 0)


def test_sampler_stride_and_transient():
    field = toy_field(0.05)
    plan = dict(ic_box=[[0.0, 1.0], [0.0, 1.0]], n_trajectories=3, transient_time=0.1,
                sample_time=0.2, snapshot_stride=10, seed=7)
    out = sample_attractor(field, dt=1e-3, **plan)
    per_traj = 21  # floor(0.2 / (10 * 1e-3)) + 1
    assert out.states.shape[0] == 3 * per_traj
    assert out.times[0] == pytest.approx(0.1, abs=1e-12)
    assert np.all(out.times >= 0.1 - 1e-12)
    assert set(out.traj_ids.tolist()) == {0, 1, 2}


def test_sampler_reproducible_under_seed():
    field = analytic_field("chafee", 2, 0.16)
    plan = dict(ic_box=[[-1.0, 1.0], [-1.0, 1.0]], n_trajectories=4, transient_time=0.0,
                sample_time=0.1, snapshot_stride=5, seed=123)
    a = sample_attractor(field, dt=1e-3, **plan)
    b = sample_attractor(field, dt=1e-3, **plan)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.traj_ids, b.traj_ids)


def test_sampler_excludes_blowups_but_keeps_majority():
    # blow up only when started above x = 1; box spans both regimes
    field = VectorField(1, lambda a: np.where(a > 1.0, a**3, -a))
    plan = dict(ic_box=[[0.5, 1.2]], n_trajectories=10, transient_time=0.0,
                sample_time=40.0, snapshot_stride=1, seed=1)
    out = sample_attractor(field, dt=0.05, **plan)
    assert len(out.failed_ids) > 0
    kept = set(range(10)) - set(out.failed_ids)
    assert set(out.traj_ids.tolist()) == kept


def test_sampler_raises_when_most_trajectories_blow_up():
    field = VectorField(1, lambda a: a**3)
    plan = dict(ic_box=[[2.0, 3.0]], n_trajectories=4, transient_time=0.0,
                sample_time=50.0, snapshot_stride=1, seed=1)
    with pytest.raises(BlowUpError):
        sample_attractor(field, dt=0.5, **plan)


def test_sampler_config_validation():
    field = VectorField(1, lambda a: -a)
    with pytest.raises(ValueError, match="n_trajectories must be positive"):
        sample_attractor(field, [[0.0, 1.0]], 0, 0.0, 1.0, 1, 1e-3)
    with pytest.raises(ValueError, match="low <= high"):
        sample_attractor(field, [[1.0, 0.0]], 1, 0.0, 1.0, 1, 1e-3)
    with pytest.raises(ValueError, match="snapshot_stride must be positive"):
        sample_attractor(field, [[0.0, 1.0]], 1, 0.0, 1.0, 0, 1e-3)


def test_rk4_rejects_a_field_that_changes_the_shape():
    # a field written for one state broadcasts row 0's derivative to the batch
    field = VectorField(1, lambda a: np.array([-a.flat[0]]))
    assert rk4(field, np.array([1.0]), 0.1, 0.05).states.shape == (3, 1)
    with pytest.raises(ValueError, match="changed the shape"):
        rk4(field, np.array([[1.0], [2.0]]), 0.1, 0.05)


def test_rk4_batch_shapes_and_rows():
    field = analytic_field("chafee", 3, 0.16)
    a0 = np.array([[1.0, 0.5, 0.1], [-0.3, 0.2, 0.0]])
    batch = rk4(field, a0, 0.25, 0.1)
    assert batch.states.shape == (4, 2, 3)
    assert batch.dim == 3 and batch.final_time == 0.25
    assert np.all(np.isnan(batch.blowup_times))
    assert np.array_equal(batch.row(1).states, rk4(field, a0[1], 0.25, 0.1).states)
    with pytest.raises(ValueError):
        rk4(field, a0[None], 0.25, 0.1)


# (field, dt, box half-width): steps small enough for each field's stiffness
_EQUIVALENCE_FIELDS = {
    "chafee-2": (analytic_field("chafee", 2, 0.16), 1e-2, 1.2),
    "chafee-3": (analytic_field("chafee", 3, 0.16), 1e-2, 1.2),
    "ks-3": (analytic_field("ks", 3, 33.0), 1e-4, 1.0),
    "ks-8": (analytic_field("ks", 8, 33.0), 1e-4, 1.0),
    "toy": (toy_field(0.01), 1e-3, 2.0),
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(_EQUIVALENCE_FIELDS)),
    n_traj=st.integers(1, 6),
    n_steps=st.integers(1, 60),
    tail=st.sampled_from([0.0, 0.37]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rk4_equals_per_row_rk4_bitwise(name, n_traj, n_steps, tail, seed):
    field, dt, half = _EQUIVALENCE_FIELDS[name]
    a0 = np.random.default_rng(seed).uniform(-half, half, (n_traj, field.dim))
    t_end = (n_steps + tail) * dt
    batch = rk4(field, a0, t_end, dt)
    assert np.all(np.isnan(batch.blowup_times))
    for k in range(n_traj):
        solo = rk4(field, a0[k], t_end, dt)
        assert np.array_equal(batch.times, solo.times)
        assert batch.states[:, k].tobytes() == solo.states.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n_traj=st.integers(2, 6),
    bad=st.integers(0, 5),
    a3=st.floats(4.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_blown_up_row_leaves_the_others_bitwise_equal(n_traj, bad, a3, seed):
    # at dt = 0.3 the explicit step is unstable from a3 = 4 on and stable for
    # every start in [-1, 1]^3 (checked on a 9^3 grid and 20 000 draws)
    field = analytic_field("chafee", 3, 0.16)
    a0 = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_traj, 3))
    bad = bad % n_traj
    a0[bad, 2] = a3
    batch = rk4(field, a0, 3.0, 0.3)
    for k in range(n_traj):
        if k == bad:
            with pytest.raises(BlowUpError) as solo:
                rk4(field, a0[k], 3.0, 0.3)
            assert batch.blowup_times[k] == solo.value.time
            assert np.all(np.isnan(batch.states[batch.times >= solo.value.time, k]))
            with pytest.raises(BlowUpError):
                batch.row(k)
        else:
            assert np.isnan(batch.blowup_times[k])
            assert batch.row(k).states.tobytes() == rk4(field, a0[k], 3.0, 0.3).states.tobytes()
