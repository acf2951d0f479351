import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aimrom import MissingArtifactError, __version__, serialize
from aimrom.dmaps import (
    DiffusionMap,
    GeometricHarmonics,
    dmaps_fit,
    gh_extend,
    gh_fit,
    nystrom_restrict,
)
from aimrom.integrate import rk4
from aimrom.models import VectorField, analytic_field, toy_field
from aimrom.nn import Autoencoder, Mlp, TrainHistory, init_autoencoder, init_mlp
from aimrom.pod import PodModel, pod_fit
from aimrom.rom import LearnedField
from aimrom.serialize import (
    ModelStore,
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


def _canonical(doc):
    """A stored file's byte form: sorted keys, no whitespace, shortest-repr floats."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


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
    assert back.encoder.d_out == 3
    assert np.array_equal(back.decoder.weights[-1], ae.decoder.weights[-1])


@pytest.mark.parametrize(
    "base", [analytic_field("chafee", 2, 0.16), analytic_field("chafee", 5, 0.2), analytic_field("ks", 3, 33.0), analytic_field("ks", 11, 30.0),
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


def _mlp(sizes, array):
    """An Mlp of the given layer sizes whose arrays come from array(*shape)."""
    return Mlp(
        layer_sizes=tuple(sizes),
        weights=tuple(array(o, i) for i, o in zip(sizes, sizes[1:])),
        biases=tuple(array(o) for o in sizes[1:]),
        x_shift=array(sizes[0]), x_scale=array(sizes[0]),
        y_shift=array(sizes[-1]), y_scale=array(sizes[-1]),
    )


def _pinned_models():
    """One tiny instance of each stored type, built from seeded draws; some
    fields hold numpy scalars, as fitted models do."""
    rng = np.random.default_rng(20240611)

    def normal(*shape):
        return rng.standard_normal(shape)

    return {
        "mlp-v1": _mlp((2, 3, 1), normal),
        "autoencoder-v1": Autoencoder(_mlp((3, 2, 1), normal), _mlp((1, 2, 3), normal)),
        "learned-field-v1": LearnedField(kind="gray-box", dim=2, net=_mlp((2, 3, 2), normal),
                                         base=analytic_field("chafee", 2, 0.16)),
        "dmap-v1": DiffusionMap(
            epsilon=np.float64(0.37), alpha_density=1.0, train_points=rng.random((4, 2)),
            eigenvalues=np.array([1.0, 0.5, 0.25]), eigenvectors=rng.random((4, 3)),
            point_density=rng.random(4), kept_indices=tuple(np.arange(1, 3))),
        "gh-v1": GeometricHarmonics(
            epsilon_star=0.81, delta=1e-6, inputs=rng.random((3, 1)),
            eigenvalues=np.array([0.9, 0.3]), eigenvectors=rng.random((3, 2)),
            coefficients=rng.random((2, 2))),
        "pod-v1": PodModel(
            mean=rng.random(3), modes=rng.random((3, 2)), singular_values=np.array([2.0, 1.0]),
            energy_fractions=np.array([0.8, 1.0]), centered=np.False_),
    }


# sha256 keys of the _pinned_models files in the v1 formats: any change to a
# stored byte moves them
PINNED_KEYS = {
    "mlp-v1": "45d2426b0795f7cc4bc600d94f7e9515450d988c11c2403c7048f64d3462e61c",
    "autoencoder-v1": "db3b3d40ca62ab75bb1bb19bd815f925af7a9c59711cdfc2d29e09759569c3be",
    "learned-field-v1": "be585d2ca88e8580d646325c53ae68d3dac95d1c5f225b35b7522d6a6ac161c1",
    "dmap-v1": "8fc0a959675efc9a960bdcabb3ecb03ed58be3166faafba33f5a386935119e25",
    "gh-v1": "1b786247c1bc1c761f1fa866a3ddc0151f6ac58bce62a59ca17eb986164ed228",
    "pod-v1": "0476980d05480d65f35b1da0ab449d56f7343d71b66dd5cd0d0305bebebe5fa8",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_KEYS))
def test_store_keys_are_pinned(tmp_path, fmt):
    obj = _pinned_models()[fmt]
    key = ModelStore(tmp_path).save(obj, alias=fmt, meta={"seed": 0})
    assert key == PINNED_KEYS[fmt]
    assert json.loads((tmp_path / f"{key}.json").read_text())["model"]["format"] == fmt
    assert json.dumps(model_to_dict(ModelStore(tmp_path).load(key))) == \
        json.dumps(model_to_dict(obj))


@pytest.mark.parametrize("fmt", sorted(serialize._FORMATS.values()))
def test_a_saved_file_is_the_canonical_json_of_its_payload(tmp_path, fmt):
    obj = _pinned_models()[fmt]
    meta = {"seed": np.int64(3), "widths": (2, np.int64(8)), "loss": np.float64(0.1)}
    key = ModelStore(tmp_path).save(obj, meta=meta)
    text = (tmp_path / f"{key}.json").read_text()
    # numpy scalars and tuples in meta are written as plain JSON numbers and lists
    plain = {"seed": 3, "widths": [2, 8], "loss": 0.1}
    assert text == _canonical({"model": model_to_dict(obj), "meta": plain}) + "\n"


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SIZE = st.integers(1, 4)


@st.composite
def _models(draw):
    """A random instance of one stored type: random widths, shapes and values."""
    fmt = draw(st.sampled_from(sorted(PINNED_KEYS)))

    def array(*shape):
        return draw(arrays(np.float64, shape, elements=_FLOATS))

    hidden = draw(st.lists(_SIZE, max_size=2))
    if fmt == "mlp-v1":
        return _mlp([draw(_SIZE), *hidden, draw(_SIZE)], array)
    if fmt == "autoencoder-v1":
        d, k = draw(_SIZE), draw(_SIZE)
        return Autoencoder(_mlp([d, *hidden, k], array), _mlp([k, *hidden[::-1], d], array))
    if fmt == "learned-field-v1":
        nu = draw(st.floats(0.01, 100.0))
        base = draw(st.sampled_from([None, "chafee", "ks", "toy"]))
        dim = 2 if base == "toy" else draw(_SIZE)
        if base is not None:
            base = toy_field(nu) if base == "toy" else analytic_field(base, dim, nu)
        return LearnedField(kind="black-box" if base is None else "gray-box", dim=dim,
                            net=_mlp([dim, *hidden, dim], array), base=base)
    n, d, m = draw(_SIZE), draw(_SIZE), draw(_SIZE)
    if fmt == "dmap-v1":
        return DiffusionMap(
            epsilon=draw(_FLOATS), alpha_density=draw(_FLOATS), train_points=array(n, d),
            eigenvalues=array(m), eigenvectors=array(n, m),
            point_density=array(n),
            kept_indices=tuple(draw(st.lists(st.integers(1, 9), unique=True, max_size=4))))
    if fmt == "gh-v1":
        return GeometricHarmonics(
            epsilon_star=draw(_FLOATS), delta=draw(_FLOATS), inputs=array(n, d),
            eigenvalues=array(m), eigenvectors=array(n, m),
            coefficients=array(m, draw(_SIZE)), in_sample_mse=draw(st.floats()))
    return PodModel(mean=array(n), modes=array(n, m),
                    singular_values=array(m), energy_fractions=array(m),
                    centered=draw(st.booleans()))


def _assert_bitwise_equal(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bitwise_equal(x, y)
    elif isinstance(a, VectorField):
        assert a.name == b.name
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b or (a != a and b != b)  # NaN stays NaN


@settings(max_examples=80, deadline=None)
@given(_models())
def test_model_documents_round_trip_bitwise(obj):
    text = json.dumps(model_to_dict(obj))
    back = model_from_dict(json.loads(text))
    assert json.dumps(model_to_dict(back)) == text
    _assert_bitwise_equal(obj, back)


def test_nested_document_of_the_wrong_format_is_rejected():
    models = _pinned_models()
    doc = model_to_dict(models["autoencoder-v1"])
    doc["encoder"] = model_to_dict(models["pod-v1"])
    with pytest.raises(ValueError, match="expected a 'mlp-v1' document, got 'pod-v1'"):
        model_from_dict(doc)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown model format"):
        model_from_dict({"format": "mystery-v9"})
    with pytest.raises(TypeError, match="no serializer"):
        model_to_dict(object())


def test_a_store_key_is_independent_of_meta_key_order(tmp_path):
    net = init_mlp((2, 3, 1), seed=0)
    store = ModelStore(tmp_path)
    assert store.save(net, meta={"b": 1.0, "a": [np.float64(2.5), 3]}) == \
        store.save(net, meta={"a": [2.5, 3], "b": 1.0})


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
    assert hashlib.sha256(_canonical(doc).encode()).hexdigest() == k1
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
        with pytest.raises(MissingArtifactError, match=key):
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
    with pytest.raises(MissingArtifactError, match="only-one"):
        store.resolve("absent")


def test_a_document_without_a_field_is_a_missing_artifact():
    ae = model_to_dict(init_autoencoder(3, 2, (4,), seed=0))
    del ae["decoder"]["y_scale"]
    with pytest.raises(MissingArtifactError, match=r"'mlp-v1' document lacks fields \['y_scale'\]"):
        model_from_dict(ae)


def test_store_alias_table_is_not_a_model(tmp_path):
    store = ModelStore(tmp_path)
    key = store.save(init_mlp((1, 4, 1), seed=0), alias="cl")
    assert store.resolve(key) == key
    with pytest.raises(MissingArtifactError,
                       match="no stored model 'aliases'; available aliases: cl"):
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
    traj = rk4(analytic_field("chafee", 3, 0.16), np.array([1.0, 0.5, 0.1]), 0.05, 1e-3)
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
                       (np.array([1.0, 2.0]), np.array([3.0])), ((0, 1), (1,)))
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines == ["config,ic_index,value", "cfg-a,0,1", "cfg-a,1,2", "cfg-b,1,3"]

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
