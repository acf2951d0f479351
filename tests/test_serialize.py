import json

import numpy as np
import pytest

from aimrom import __version__, serialize
from aimrom.dmaps import dmaps_fit, gh_extend, gh_fit, nystrom_restrict
from aimrom.integrate import rk4
from aimrom.models import chafee_field, ks_field, toy_field
from aimrom.nn import TrainHistory, init_autoencoder, init_mlp
from aimrom.pod import pod_fit
from aimrom.rom import LearnedField
from aimrom.serialize import (
    ModelStore,
    canonical_json,
    content_hash,
    model_from_dict,
    model_to_dict,
    read_table,
    trajectory_to_csv,
    write_histogram_csv,
    write_long_samples,
    write_loss_csv,
    write_manifest,
    write_table,
)


def _roundtrip(obj):
    # through actual JSON text, not just dicts
    return model_from_dict(json.loads(json.dumps(model_to_dict(obj))))


def test_mlp_roundtrip_is_bitwise():
    net = init_mlp((3, 17, 17, 2), seed=9)
    back = _roundtrip(net)
    assert back.layer_sizes == net.layer_sizes
    for a, b in zip(back.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, net.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(back.x_shift, net.x_shift)
    assert np.array_equal(back.y_scale, net.y_scale)


def test_autoencoder_roundtrip():
    ae = init_autoencoder(8, 3, (16, 16), seed=2)
    back = _roundtrip(ae)
    assert back.bottleneck_dim == 3
    assert np.array_equal(back.decoder.weights[-1], ae.decoder.weights[-1])


@pytest.mark.parametrize(
    "base", [chafee_field(2, 0.16), chafee_field(5, 0.2), ks_field(3, 33.0), ks_field(11, 30.0),
             toy_field(0.01), None]
)
def test_learned_field_rebuilds_base_by_name(base):
    dim = 2 if base is None else base.dim
    kind = "black-box" if base is None else "gray-box"
    lf = LearnedField(kind=kind, dim=dim, net=init_mlp((dim, 8, dim), seed=0), base=base)
    back = _roundtrip(lf)
    assert back.kind == lf.kind and back.dim == lf.dim
    if base is None:
        assert back.base is None
    else:
        assert back.base.name == base.name
        a = np.linspace(-0.4, 0.4, dim)
        assert np.allclose(back.base.eval(a), base.eval(a), atol=0)
    a = np.linspace(-0.3, 0.3, dim)
    assert np.array_equal(back.eval(a), lf.eval(a))


def test_dmap_roundtrip_preserves_restriction():
    rng = np.random.default_rng(4)
    pts = rng.random((60, 3))
    dm = dmaps_fit(pts, n_eigs=5)
    back = _roundtrip(dm)
    query = rng.random((7, 3))
    assert np.array_equal(nystrom_restrict(back, query), nystrom_restrict(dm, query))
    assert back.kept_indices == dm.kept_indices


def test_gh_roundtrip_preserves_extension():
    rng = np.random.default_rng(5)
    x = rng.random((40, 2))
    f = np.column_stack([x[:, 0] ** 2, x[:, 1]])
    gh = gh_fit(x, f)
    back = _roundtrip(gh)
    q = rng.random((6, 2))
    assert np.array_equal(gh_extend(back, q), gh_extend(gh, q))
    assert back.in_sample_mse == gh.in_sample_mse


def test_pod_roundtrip():
    rng = np.random.default_rng(6)
    pod = pod_fit(rng.random((30, 6)))
    back = _roundtrip(pod)
    assert np.array_equal(back.modes, pod.modes)
    assert np.array_equal(back.energy_fractions, pod.energy_fractions)
    assert back.centered is True


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown model format"):
        model_from_dict({"format": "mystery-v9"})
    with pytest.raises(TypeError, match="no serializer"):
        model_to_dict(object())


def test_canonical_json_is_key_order_independent():
    a = {"b": 1.0, "a": [np.float64(2.5), 3]}
    b = {"a": [2.5, 3], "b": 1.0}
    assert canonical_json(a) == canonical_json(b)
    assert content_hash(a) == content_hash(b)


def test_store_content_addressing(tmp_path):
    store = ModelStore(tmp_path / "models")
    net = init_mlp((2, 8, 1), seed=1)
    k1 = store.save(net, alias="closure", meta={"seed": 1})
    k2 = store.save(net, alias="again", meta={"seed": 1})
    assert k1 == k2
    assert len(list((tmp_path / "models").glob("*.json"))) == 2  # model + aliases
    assert store.aliases() == {"closure": k1, "again": k1}
    back = store.load("closure")
    assert np.array_equal(back.weights[0], net.weights[0])
    doc = json.loads((tmp_path / "models" / f"{k1}.json").read_text())
    assert doc["meta"] == {"seed": 1}
    assert content_hash(doc) == k1
    # different meta -> different key
    k3 = store.save(net, meta={"seed": 2})
    assert k3 != k1


def test_store_save_repairs_a_truncated_model_file(tmp_path):
    store = ModelStore(tmp_path)
    net = init_mlp((2, 8, 1), seed=1)
    key = store.save(net, alias="cl")
    path = tmp_path / f"{key}.json"
    good = path.read_bytes()
    path.write_bytes(good[: len(good) // 2])
    assert store.save(net, alias="cl") == key
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"{key}.json", "aliases.json"])


def test_store_load_rejects_a_file_that_does_not_hash_to_its_key(tmp_path):
    store = ModelStore(tmp_path)
    key = store.save(init_mlp((2, 8, 1), seed=1), alias="cl")
    path = tmp_path / f"{key}.json"
    good = path.read_text()
    for bad in (good[: len(good) // 2], good.replace("[[", "[[1", 1), good + "\n"):
        path.write_text(bad)
        with pytest.raises(KeyError, match=key):
            store.load("cl")
    path.write_text(good)
    assert store.load(key).layer_sizes == (2, 8, 1)


def test_store_alias_update_failure_keeps_old_table(tmp_path, monkeypatch):
    store = ModelStore(tmp_path)
    store.save(init_mlp((2, 8, 1), seed=1), alias="old")
    before = (tmp_path / "aliases.json").read_bytes()
    real_replace = serialize.os.replace

    def failing_replace(src, dst):
        if str(dst).endswith("aliases.json"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(serialize.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        store.save(init_mlp((2, 8, 1), seed=2), alias="new")
    assert (tmp_path / "aliases.json").read_bytes() == before
    assert not list(tmp_path.glob(".*.tmp"))
    assert store.aliases() == json.loads(before)


def test_store_missing_alias_lists_known(tmp_path):
    store = ModelStore(tmp_path)
    store.save(init_mlp((1, 4, 1), seed=0), alias="only-one")
    with pytest.raises(KeyError, match="only-one"):
        store.resolve("absent")


def test_store_alias_table_is_not_a_model(tmp_path):
    store = ModelStore(tmp_path)
    key = store.save(init_mlp((1, 4, 1), seed=0), alias="cl")
    assert store.resolve(key) == key
    with pytest.raises(KeyError, match="no stored model 'aliases'; available aliases: cl"):
        store.resolve("aliases")


def test_table_roundtrip_is_exact(tmp_path):
    rows = np.array([[np.pi, 1.0 / 3.0], [1e-17, -2.5e108]])
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], rows, comments=["x: 1,2"])
    header, data, comments = read_table(path)
    assert header == ["a", "b"]
    assert np.array_equal(data, rows)
    assert comments == ["x: 1,2"]


def test_table_rejects_header_mismatch(tmp_path):
    with pytest.raises(ValueError, match="column names"):
        write_table(tmp_path / "t.csv", ["a"], np.ones((2, 3)))


def test_trajectory_csv_roundtrip(tmp_path):
    traj = rk4(chafee_field(3, 0.16), np.array([1.0, 0.5, 0.1]), 0.05, 1e-3)
    trajectory_to_csv(traj, tmp_path / "traj.csv")
    header, data, _ = read_table(tmp_path / "traj.csv")
    assert header == ["t", "a1", "a2", "a3"]
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:], traj.states)


def test_loss_csv_roundtrip(tmp_path):
    hist = TrainHistory(train_mse=np.array([3.0, 2.0, 1.5]), val_mse=np.array([4.0, 2.5, 2.0]))
    write_loss_csv(hist, tmp_path / "loss.csv")
    header, data, _ = read_table(tmp_path / "loss.csv")
    assert header == ["epoch", "train_mse", "val_mse"]
    assert np.array_equal(data[:, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(data[:, 1], hist.train_mse)
    assert np.array_equal(data[:, 2], hist.val_mse)


def test_long_samples_and_histogram_layout(tmp_path):
    write_long_samples(tmp_path / "s.csv", ("cfg-a", "cfg-b"),
                       (np.array([1.0, 2.0]), np.array([3.0])))
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "config,ic_index,value"
    assert lines[1] == "cfg-a,0,1"
    assert len(lines) == 4

    write_histogram_csv(tmp_path / "h.csv", ("cfg-a",), np.array([0.0, 1.0, 2.0]),
                        (np.array([3, 1]),))
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "config,bin_lo,bin_hi,count"
    assert lines[1] == "cfg-a,0,1,3"
    assert lines[2] == "cfg-a,1,2,1"


def test_manifest_has_version_and_no_timestamps(tmp_path):
    path = write_manifest(tmp_path, {"command": "simulate", "seed": 0})
    doc = json.loads(path.read_text())
    assert doc["package_version"] == __version__
    assert doc["command"] == "simulate"
    assert not any("time" in k or "date" in k for k in doc)
