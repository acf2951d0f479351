import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import aimrom
from aimrom import rom
from aimrom.cli import TRAIN_KINDS, main
from aimrom.dmaps import dmaps_fit, gh_fit, select_independent
from aimrom.nn import TrainConfig, init_autoencoder, init_mlp, train
from aimrom.pod import pod_fit
from aimrom.serialize import ModelStore, model_to_dict, read_table, write_table


def _write(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return path


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _run_proc(args, python=("-m", "aimrom.cli")):
    # the child imports the same aimrom as this process, whichever path found it
    src = str(Path(aimrom.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *python] + [str(a) for a in args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


SIM_DOC = {"model": "chafee", "ic": [1.0, 0.5, 0.1], "final_time": 0.5, "dt": 0.001}

SAMPLE_DOC = {
    "model": "chafee",
    "ic_box": [[-1.2, 1.2], [-0.6, 0.6], [-0.4, 0.4]],
    "n_trajectories": 6,
    "transient_time": 0.2,
    "sample_time": 0.5,
    "snapshot_stride": 50,
    "dt": 0.001,
    "seed": 7,
}


def test_importing_the_cli_loads_no_network_modules():
    # xml.sax.saxutils.escape alone loaded all of these, which lengthened every command's start
    network = ("urllib.request", "http.client", "ssl", "email", "socket")
    proc = _run_proc([], python=("-c", f"import sys, aimrom.cli; "
                                       f"print([m for m in {network} if m in sys.modules])"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point_shows_commands():
    proc = _run_proc(["--help"])
    assert proc.returncode == 0
    for cmd in ("simulate", "sample", "train", "evaluate", "ensemble"):
        assert cmd in proc.stdout


def test_postprocess_is_not_a_command(tmp_path):
    # evaluate runs the same pipeline and writes the corrected state to metrics.json
    cfg = _write(tmp_path / "pp.yaml", {"pipeline": EVAL_PIPELINE})
    res = _invoke(["postprocess", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2
    assert "No such command 'postprocess'" in res.output
    assert not (tmp_path / "out").exists()


def test_simulate_outputs(tmp_path):
    cfg = _write(tmp_path / "sim.yaml", SIM_DOC)
    res = _invoke(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 502  # header + 501 states
    assert lines[0] == "t,a1,a2,a3"
    header, data, comments = read_table(tmp_path / "out" / "field.csv")
    assert data.shape == (501, 66)  # t + 65 grid values
    assert comments and comments[0].startswith("x: ")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["model"] == "chafee"
    assert "final state" in res.output and "wall time" in res.output


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path / "sim.yaml", SIM_DOC)
    assert _invoke(["simulate", "--config", cfg, "--out", tmp_path / "a"]).exit_code == 0
    assert _invoke(["simulate", "--config", cfg, "--out", tmp_path / "b"]).exit_code == 0
    for name in ("trajectory.csv", "field.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_toy_writes_no_field(tmp_path):
    doc = {"model": "toy", "epsilon": 0.01, "ic": [1.5, 0.5], "final_time": 1.0, "dt": 0.001}
    cfg = _write(tmp_path / "toy.yaml", doc)
    res = _invoke(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert not (tmp_path / "out" / "field.csv").exists()


def test_simulate_with_fewer_than_two_grid_points_exits_2(tmp_path):
    cfg = _write(tmp_path / "sim.yaml", dict(SIM_DOC, grid_points=1))
    res = _invoke(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "simulate config: grid_points must be at least 2" in res.output
    assert list((tmp_path / "out").iterdir()) == []


def test_simulate_toy_rejects_grid_points(tmp_path):
    # toy writes no field, so a grid would go unused
    doc = {"model": "toy", "ic": [1.5, 0.5], "final_time": 1.0, "dt": 0.001, "grid_points": 65}
    res = _invoke(["simulate", "--config", _write(tmp_path / "toy.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "toy writes no field and takes no grid_points" in res.output
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("doc, message", [
    ({"model": "toy", "n_modes": 5, "nu": 3.0, "ic": [1.5, 0.5]}, "'toy' takes epsilon"),
    (dict(SIM_DOC, epsilon=3.0), "'chafee' takes n_modes and nu, not epsilon"),
])
def test_model_keys_the_model_does_not_take_exit_2(tmp_path, doc, message):
    cfg = _write(tmp_path / "sim.yaml", {"final_time": 0.5, "dt": 0.001, **doc})
    res = _invoke(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2
    assert message in res.output


def test_unknown_model_exits_2(tmp_path):
    cfg = _write(tmp_path / "bad.yaml", dict(SIM_DOC, model="navier"))
    proc = _run_proc(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 2
    assert "navier" in proc.stderr


def test_unknown_key_reports_line(tmp_path):
    cfg = _write(tmp_path / "bad.yaml", dict(SIM_DOC, typo_key=3))
    proc = _run_proc(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 2
    assert "simulate config (line 1): unknown keys ['typo_key']" in proc.stderr


def test_a_nested_block_error_reports_the_block_line(tmp_path):
    # the train block starts on line 3 of the file
    cfg = tmp_path / "t.yaml"
    cfg.write_text("kind: closure\nalias: cl\ntrain:\n  epochs: 5\n  typo_key: 1\n"
                   "data: absent.csv\nn_low: 2\n")
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "train block (line 4): unknown keys ['typo_key']" in res.output


def test_a_key_named_like_the_old_line_marker_is_unknown(tmp_path):
    # the loader once kept each mapping's line under this key and dropped a user's value
    cfg = _write(tmp_path / "bad.yaml", dict(SIM_DOC, __line__=7))
    res = _invoke(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "unknown keys ['__line__']" in res.output


def test_invalid_yaml_exits_2(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model: [unclosed\n")
    proc = _run_proc(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 2


def test_missing_config_file_exits_2(tmp_path):
    proc = _run_proc(["simulate", "--config", tmp_path / "absent.yaml", "--out", tmp_path])
    assert proc.returncode == 2


def test_blowup_exits_3(tmp_path):
    doc = {"model": "ks", "ic": [1.0, 0.5, 0.1, 0, 0, 0, 0, 0],
           "final_time": 1.0, "dt": 0.01}
    cfg = _write(tmp_path / "blow.yaml", doc)
    proc = _run_proc(["simulate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr


def test_disconnected_kernel_exits_3(tmp_path):
    pts = [[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [50.0, 50.0]]
    data = tmp_path / "far.csv"
    data.write_text("a1,a2\n" + "".join(f"{a},{b}\n" for a, b in pts))
    doc = {"kind": "dmap", "alias": "dm", "data": str(data), "store": str(tmp_path / "store"),
           "n_eigs": 2, "kernel_epsilon": 1e-4}
    cfg = _write(tmp_path / "dmap.yaml", doc)
    proc = _run_proc(["train", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr and "disconnected" in proc.stderr


def test_decoder_inversion_failure_exits_3(tmp_path):
    # a decoder whose output overflows the objective from the encoder's start
    ae = init_autoencoder(3, 2, (4,), seed=0)
    weights = (*ae.decoder.weights[:-1], np.full_like(ae.decoder.weights[-1], 1e300))
    ae = dataclasses.replace(ae, decoder=dataclasses.replace(ae.decoder, weights=weights))
    ModelStore(tmp_path / "store").save(ae, alias="ae")
    doc = {"pipeline": dict(EVAL_PIPELINE, latent_route="autoencoder",
                            closure="decoder-inversion", final_time=0.01),
           "store": str(tmp_path / "store"), "artifacts": {"autoencoder": "ae"}}
    cfg = _write(tmp_path / "eval.yaml", doc)
    proc = _run_proc(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 3
    assert "numeric failure" in proc.stderr and "did not reach a finite objective" in proc.stderr


def test_numpys_own_linalg_error_exits_3_not_2(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, which alone would exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(aimrom.cli, "dmaps_fit", fail)
    data = tmp_path / "pts.csv"
    data.write_text("a1,a2\n0,0\n1,0\n0,1\n1,1\n")
    doc = {"kind": "dmap", "alias": "dm", "data": str(data), "store": str(tmp_path / "store"),
           "n_eigs": 1}
    res = _invoke(["train", "--config", _write(tmp_path / "dmap.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 3, res.output
    assert "numeric failure: Eigenvalues did not converge" in res.output


def test_sample_snapshot_count(tmp_path):
    cfg = _write(tmp_path / "sample.yaml", SAMPLE_DOC)
    res = _invoke(["sample", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    header, data, _ = read_table(tmp_path / "out" / "snapshots.csv")
    assert header == ["traj_id", "t", "a1", "a2", "a3"]
    # 6 trajectories, snapshots at strides 0..500 step 50 -> 11 each
    assert data.shape[0] == 66
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["n_snapshots"] == 66


def _sampled(tmp_path):
    cfg = _write(tmp_path / "sample.yaml", SAMPLE_DOC)
    assert _invoke(["sample", "--config", cfg, "--out", tmp_path / "data"]).exit_code == 0
    return tmp_path / "data" / "snapshots.csv"


def _closure_doc(data, store):
    return {
        "kind": "closure", "alias": "cl", "data": str(data), "store": str(store),
        "n_low": 2, "hidden": [16, 16],
        "train": {"learning_rate": 0.002, "epochs": 20, "batch_size": 32, "seed": 0},
    }


def _hash_from(output):
    for line in output.splitlines():
        if line.startswith("model hash:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no model hash line in:\n{output}")


def test_train_closure_reruns_reuse_hash(tmp_path):
    data = _sampled(tmp_path)
    cfg = _write(tmp_path / "train.yaml", _closure_doc(data, tmp_path / "store"))
    res1 = _invoke(["train", "--config", cfg, "--out", tmp_path / "t1"])
    assert res1.exit_code == 0, res1.output
    res2 = _invoke(["train", "--config", cfg, "--out", tmp_path / "t2"])
    assert res2.exit_code == 0, res2.output
    assert _hash_from(res1.output) == _hash_from(res2.output)
    assert (tmp_path / "t1" / "loss.csv").exists()
    aliases = json.loads((tmp_path / "store" / "aliases.json").read_text())
    assert aliases["cl"] == _hash_from(res1.output)


def test_gray_box_on_toy_names_the_missing_base(tmp_path):
    data = tmp_path / "toy.csv"
    write_table(data, ["a1", "a2"], [[1.0, 1.0], [1.2, 1.4], [0.9, 0.8]])
    doc = {"kind": "gray-box", "alias": "gb", "data": str(data), "model": "toy", "n_low": 1}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path])
    assert res.exit_code == 2
    assert "gray-box needs a Galerkin base model, one of chafee, ks" in res.output


@pytest.mark.parametrize("train_nu, eval_nu, code", [(0.3, None, 2), (1.0, 1, 0), (1, 1.0, 0)])
def test_a_gray_box_evaluates_only_at_the_nu_it_was_trained_at(tmp_path, train_nu, eval_nu,
                                                                code):
    data, store = _sampled(tmp_path), str(tmp_path / "store")
    doc = {"kind": "gray-box", "alias": "gb", "data": str(data), "store": store,
           "model": "chafee", "nu": train_nu, "n_low": 2, "hidden": [4],
           "train": {"epochs": 2, "seed": 0}}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 0, res.output
    pipeline = dict(EVAL_PIPELINE, dynamics="gray-box", closure="none", final_time=0.1, dt=0.01)
    if eval_nu is not None:
        pipeline["nu"] = eval_nu
    doc = {"pipeline": pipeline, "store": store, "artifacts": {"dynamics-net": "gb"},
           "plots": False}
    res = _invoke(["evaluate", "--config", _write(tmp_path / "e.yaml", doc),
                   "--out", tmp_path / "e"])
    assert res.exit_code == code, res.output
    if code:
        assert "dynamics-net base chafee-2(nu=0.3) != pipeline base chafee-2(nu=0.16)" \
            in res.output


def test_seed_override_changes_hash(tmp_path):
    data = _sampled(tmp_path)
    cfg = _write(tmp_path / "train.yaml", _closure_doc(data, tmp_path / "store"))
    res1 = _invoke(["train", "--config", cfg, "--out", tmp_path / "t1"])
    res2 = _invoke(["train", "--config", cfg, "--out", tmp_path / "t2", "--seed", "1"])
    assert res1.exit_code == 0 and res2.exit_code == 0
    assert _hash_from(res1.output) != _hash_from(res2.output)


def test_train_pod_writes_energy(tmp_path):
    data = _sampled(tmp_path)
    doc = {"kind": "pod", "alias": "pod", "data": str(data), "store": str(tmp_path / "store")}
    cfg = _write(tmp_path / "pod.yaml", doc)
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    header, data_, _ = read_table(tmp_path / "out" / "energy.csv")
    assert header == ["mode", "cumulative_energy"]
    assert data_.shape[0] == 3
    assert data_[-1, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(data_[:, 1]) >= -1e-15)


def test_train_dmap_latent_map_and_lift_chain(tmp_path):
    # 1d curve embedded in 3d: pruning must keep exactly one coordinate
    t = np.linspace(0.0, 1.0, 80)
    pts = np.column_stack([t, 0.5 * t, -0.25 * t])
    lines = ["a1,a2,a3"] + [",".join("%.17g" % v for v in row) for row in pts]
    data = tmp_path / "line.csv"
    data.write_text("\n".join(lines) + "\n")
    store = tmp_path / "store"

    dmap_doc = {"kind": "dmap", "alias": "dm", "data": str(data), "store": str(store),
                "n_eigs": 6}
    cfg = _write(tmp_path / "dmap.yaml", dmap_doc)
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "d"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["config"]["kind"] == "dmap"

    lift_doc = {"kind": "lift", "alias": "lift", "dmap": "dm", "store": str(store),
                "delta": 1e-8}
    cfg = _write(tmp_path / "lift.yaml", lift_doc)
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "l"])
    assert res.exit_code == 0, res.output

    lm_doc = {"kind": "latent-map", "alias": "lm", "dmap": "dm", "store": str(store),
              "n_low": 2, "hidden": [8], "train": {"epochs": 3, "seed": 0}}
    cfg = _write(tmp_path / "lm.yaml", lm_doc)
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "m"])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "m" / "loss.csv").exists()

    aliases = json.loads((store / "aliases.json").read_text())
    assert set(aliases) == {"dm", "lift", "lm"}


EVAL_PIPELINE = {
    "model": "chafee", "latent_route": "fourier", "dynamics": "truncated",
    "closure": "euler-galerkin", "ic": [1.0, 0.5, 0.1], "final_time": 1.0, "dt": 0.001,
}


def test_evaluate_writes_metrics_and_plots(tmp_path):
    cfg = _write(tmp_path / "eval.yaml", {"pipeline": EVAL_PIPELINE})
    res = _invoke(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert doc["label"] == "chafee/fourier/truncated/euler-galerkin"
    assert doc["corrected"]["mape_final"] < doc["raw"]["mape_final"]
    assert set(doc["decomposition"]) == {
        "delta_low", "delta_closure_mass", "delta_truncated", "delta_corrected"}
    # the printed summary must reproduce the stored value exactly
    assert ("MAPE corrected: %.17g" % doc["corrected"]["mape_final"]) in res.output
    _, series, _ = read_table(tmp_path / "out" / "error_series.csv")
    assert series.shape == (1001, 2)
    assert series[0, 0] == 0.0 and series[-1, 0] == pytest.approx(1.0, abs=1e-12)
    for name in ("overlay.svg", "error_series.svg"):
        text = (tmp_path / "out" / name).read_text()
        assert text.startswith("<svg") and "provenance" in text


def test_evaluate_without_plots_writes_the_corrected_state_and_no_svg(tmp_path):
    cfg = _write(tmp_path / "eval.yaml", {"pipeline": EVAL_PIPELINE, "plots": False})
    res = _invoke(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert len(doc["corrected_coeffs"]) == rom.PipelineConfig(**EVAL_PIPELINE).n_full
    assert not list((tmp_path / "out").glob("*.svg"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["metrics.json", "error_series.csv"]


def test_evaluate_missing_artifact_exits_4(tmp_path):
    data = _sampled(tmp_path)
    cfg = _write(tmp_path / "train.yaml", _closure_doc(data, tmp_path / "store"))
    assert _invoke(["train", "--config", cfg, "--out", tmp_path / "t"]).exit_code == 0
    doc = {"pipeline": dict(EVAL_PIPELINE, closure="mlp"),
           "store": str(tmp_path / "store"), "artifacts": {"closure-net": "typo"}}
    cfg = _write(tmp_path / "eval.yaml", doc)
    proc = _run_proc(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 4
    assert "typo" in proc.stderr and "cl" in proc.stderr


def test_evaluate_with_a_missing_store_exits_4_and_creates_nothing(tmp_path):
    store = tmp_path / "typo-store"
    doc = {"pipeline": dict(EVAL_PIPELINE, closure="mlp"), "store": str(store),
           "artifacts": {"closure-net": "cl"}}
    cfg = _write(tmp_path / "eval.yaml", doc)
    res = _invoke(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 4, res.output
    assert f"no model store at {store}" in res.output
    assert not store.exists()


@pytest.mark.parametrize("command", ["evaluate", "ensemble"])
def test_a_pipeline_check_error_names_its_block(tmp_path, command):
    bogus = dict(EVAL_PIPELINE, closure="bogus")
    if command == "ensemble":
        doc = {"pipelines": [EVAL_PIPELINE, bogus], "ic_box": [[0.5, 1.2]] * 3, "n_ic": 2}
        section = "pipelines[1]"
    else:
        doc, section = {"pipeline": bogus}, "pipeline block"
    cfg = _write(tmp_path / "cfg.yaml", doc)
    res = _invoke([command, "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert f"config error: {section}: unknown closure: 'bogus'" in res.output


def test_a_pod_rank_key_is_unknown(tmp_path):
    # every route runs at the model's widths; the pod route has no width keys of its own
    pipeline = dict(EVAL_PIPELINE, latent_route="pod", dynamics="black-box", closure="none",
                    pod_rank_low=2)
    res = _invoke(["evaluate", "--config", _write(tmp_path / "eval.yaml", {"pipeline": pipeline}),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "unknown keys ['pod_rank_low']" in res.output


def test_a_pipeline_seed_key_is_unknown(tmp_path):
    # nothing in a pipeline draws a random number
    doc = {"pipeline": dict(EVAL_PIPELINE, seed=3)}
    res = _invoke(["evaluate", "--config", _write(tmp_path / "eval.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "unknown keys ['seed']" in res.output


@pytest.mark.parametrize("command", ["evaluate"])
def test_a_pipeline_manifest_records_the_seed_override(tmp_path, command):
    cfg = _write(tmp_path / "eval.yaml", {"pipeline": dict(EVAL_PIPELINE, final_time=0.01)})
    for out, seed in (("a", []), ("b", ["--seed", "5"])):
        res = _invoke([command, "--config", cfg, "--out", tmp_path / out, *seed])
        assert res.exit_code == 0, res.output
    seeds = [json.loads((tmp_path / out / "manifest.json").read_text())["seed"] for out in "ab"]
    assert seeds == [None, 5]


def test_an_undamped_slaved_mode_exits_2(tmp_path):
    # KS at nu = 70: the first slaved mode has A_4 = 4 * 4**4 - 70 * 4**2 = -96
    pipeline = dict(EVAL_PIPELINE, model="ks", ic=[0.1] * 8, final_time=0.01, dt=1e-4,
                    nu=70.0)
    cfg = _write(tmp_path / "eval.yaml", {"pipeline": pipeline})
    res = _invoke(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "config error" in res.output and "k = 4 has A = -96" in res.output


def test_ensemble_outputs_and_determinism(tmp_path):
    doc = {
        "pipelines": [EVAL_PIPELINE, dict(EVAL_PIPELINE, closure="none")],
        "ic_box": [[0.5, 1.2], [-0.5, 0.5], [-0.2, 0.2]],
        "n_ic": 4, "seed": 3, "bins": 5, "plots": True,
    }
    cfg = _write(tmp_path / "ens.yaml", doc)
    res = _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "a"])
    assert res.exit_code == 0, res.output
    samples = (tmp_path / "a" / "samples.csv").read_text().splitlines()
    assert samples[0] == "config,ic_index,value"
    assert len(samples) == 9  # header + 2 configs x 4 ics
    hist = (tmp_path / "a" / "histogram.csv").read_text().splitlines()
    assert len(hist) == 11  # header + 2 configs x 5 bins
    assert (tmp_path / "a" / "histogram.svg").read_text().startswith("<svg")
    assert _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "b"]).exit_code == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == \
        (tmp_path / "b" / "samples.csv").read_bytes()


ENSEMBLE_DOC = {"pipelines": [EVAL_PIPELINE], "ic_box": [[0.5, 1.2], [-0.5, 0.5], [-0.2, 0.2]],
                "n_ic": 2, "plots": False}


@pytest.mark.parametrize("box", [
    [[1.2, -1.2], [-0.5, 0.5], [-0.2, 0.2]],
    [[0.5, 1.2, 9.0]] * 3,
], ids=["reversed", "three-entries"])
def test_ensemble_checks_ic_box_as_sample_does(tmp_path, box):
    cfg = _write(tmp_path / "ens.yaml", dict(ENSEMBLE_DOC, ic_box=box))
    res = _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "ic_box must be (dim, 2) rows of [low, high] with low <= high" in res.output
    assert not (tmp_path / "out" / "samples.csv").exists()


@pytest.mark.parametrize("bins, plots, message", [
    (0, False, "bins must be at least 1"),
    (-3, False, "bins must be at least 1"),
    (0, True, "bins must be at least 2 when plots is on"),
    (1, True, "bins must be at least 2 when plots is on"),
])
def test_too_few_ensemble_bins_exit_2_before_any_run(tmp_path, bins, plots, message):
    cfg = _write(tmp_path / "ens.yaml", dict(ENSEMBLE_DOC, bins=bins, plots=plots))
    res = _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert list((tmp_path / "out").iterdir()) == []


def test_one_ensemble_bin_without_plots_exits_0(tmp_path):
    cfg = _write(tmp_path / "ens.yaml", dict(ENSEMBLE_DOC, bins=1))
    res = _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    assert len((tmp_path / "out" / "histogram.csv").read_text().splitlines()) == 2


def test_sample_ic_box_of_another_width_exits_2(tmp_path):
    cfg = _write(tmp_path / "sample.yaml", dict(SAMPLE_DOC, ic_box=SAMPLE_DOC["ic_box"][:2]))
    res = _invoke(["sample", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "ic_box has 2 rows but the field has dimension 3" in res.output
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, doc, key", [
    ("simulate", dict(SIM_DOC, final_time=True), "final_time"),
    ("simulate", dict(SIM_DOC, grid_points=True), "grid_points"),
    ("sample", dict(SAMPLE_DOC, n_trajectories=True), "n_trajectories"),
    ("sample", dict(SAMPLE_DOC, dt=False), "dt"),
    ("train", {"kind": "closure", "alias": "cl", "data": "absent.csv", "n_low": True},
     "n_low"),
    ("train", {"kind": "pod", "alias": "p", "data": "absent.csv", "delta": True}, "delta"),
    ("evaluate", {"pipeline": dict(EVAL_PIPELINE, final_time=True)}, "final_time"),
    ("evaluate", {"pipeline": dict(EVAL_PIPELINE, grid_points=True)}, "grid_points"),
    ("ensemble", dict(ENSEMBLE_DOC, n_ic=True), "n_ic"),
    ("ensemble", dict(ENSEMBLE_DOC, final_time=False), "final_time"),
])
def test_numeric_keys_reject_booleans(tmp_path, command, doc, key):
    # isinstance(True, int) holds, so the schema check must rule bools out itself
    cfg = _write(tmp_path / "bool.yaml", doc)
    res = _invoke([command, "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert f"key {key!r} expects" in res.output and "got bool" in res.output


def test_train_block_rejects_booleans(tmp_path):
    data = _sampled(tmp_path)
    doc = _closure_doc(data, tmp_path / "store")
    doc["train"]["epochs"] = True
    cfg = _write(tmp_path / "train.yaml", doc)
    res = _invoke(["train", "--config", cfg, "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "key 'epochs' expects int, got bool" in res.output


def test_bool_keys_still_accept_booleans(tmp_path):
    cfg = _write(tmp_path / "ens.yaml", ENSEMBLE_DOC)
    res = _invoke(["ensemble", "--config", cfg, "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    assert not (tmp_path / "out" / "histogram.svg").exists()


def test_overflowing_closure_exits_3(tmp_path):
    # a closure net whose output overflows: a numerical failure, not a config error
    net = init_mlp((2, 4, 1), seed=0)
    net = dataclasses.replace(net, weights=(net.weights[0], np.full_like(net.weights[1], 1e300)),
                              y_scale=np.full(1, 1e300))
    ModelStore(tmp_path / "store").save(net, alias="cl")
    doc = {"pipeline": dict(EVAL_PIPELINE, closure="mlp", final_time=0.01),
           "store": str(tmp_path / "store"), "artifacts": {"closure-net": "cl"}}
    cfg = _write(tmp_path / "eval.yaml", doc)
    proc = _run_proc(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure" in proc.stderr and "not finite" in proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ensemble_lists_each_initial_condition_a_numeric_failure_ended(tmp_path):
    # the same overflowing closure net: every run of its pipeline fails, the run goes on
    net = init_mlp((2, 4, 1), seed=0)
    net = dataclasses.replace(net, weights=(net.weights[0], np.full_like(net.weights[1], 1e300)),
                              y_scale=np.full(1, 1e300))
    ModelStore(tmp_path / "store").save(net, alias="cl")
    mlp = dict(EVAL_PIPELINE, closure="mlp", final_time=0.01)
    doc = {"pipelines": [mlp, dict(mlp, closure="none")], "ic_box": [[0.5, 1.2]] * 3,
           "n_ic": 3, "store": str(tmp_path / "store"), "artifacts": {"closure-net": "cl"}}
    with np.errstate(over="ignore", invalid="ignore"):
        res = _invoke(["ensemble", "--config", _write(tmp_path / "ens.yaml", doc),
                       "--out", tmp_path / "out"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    label = "chafee/fourier/truncated/mlp"
    assert manifest["failed"] == {label: 3, "chafee/fourier/truncated/none": 0}
    assert manifest["failures"] == [
        {"pipeline": label, "ic_index": k, "error": "NumericalFailure: closure output is not finite"}
        for k in range(3)]
    assert f"{label}: all 3 runs failed" in res.output
    samples = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in samples[1:]] == [
        ["chafee/fourier/truncated/none", str(k)] for k in range(3)]


def test_edited_stored_model_exits_4(tmp_path):
    store = ModelStore(tmp_path / "store")
    key = store.save(init_mlp((2, 4, 1), seed=0), alias="cl")
    doc = {"pipeline": dict(EVAL_PIPELINE, closure="mlp", final_time=0.01),
           "store": str(tmp_path / "store"), "artifacts": {"closure-net": "cl"}}
    cfg = _write(tmp_path / "eval.yaml", doc)
    assert _invoke(["evaluate", "--config", cfg, "--out", tmp_path / "ok"]).exit_code == 0
    # one digit of the first weight changes: still a valid model document
    path = tmp_path / "store" / f"{key}.json"
    text = path.read_text()
    i = text.index('"weights":[[[') + len('"weights":[[[')
    i += next(j for j, c in enumerate(text[i:]) if c in "123456789")
    path.write_text(text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1:])
    proc = _run_proc(["evaluate", "--config", cfg, "--out", tmp_path / "out"])
    assert proc.returncode == 4, proc.stderr
    assert key in proc.stderr and "does not match its hash" in proc.stderr


def test_hidden_rejects_booleans(tmp_path):
    # bool subclasses int: [true, 8] would otherwise build a (2, 1, 8, 1) net
    data = _sampled(tmp_path)
    doc = dict(_closure_doc(data, tmp_path / "store"), hidden=[True, 8])
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "key 'hidden' expects list of int, got bool at hidden[0]" in res.output


def test_hidden_widths_must_be_positive(tmp_path):
    doc = {"kind": "closure", "alias": "cl", "data": "absent.csv", "n_low": 2, "hidden": [8, 0]}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "hidden must be positive integers" in res.output


# the kinds that train no network, each with its required keys
NO_NETWORK_KINDS = [
    ("pod", {"data": "absent.csv"}),
    ("dmap", {"data": "absent.csv"}),
    ("lift", {"dmap": "dm"}),
]


@pytest.mark.parametrize("kind, keys", NO_NETWORK_KINDS)
def test_kinds_without_a_network_reject_a_train_block(tmp_path, kind, keys):
    doc = {"kind": kind, "alias": "m", "store": str(tmp_path / "store"), **keys,
           "train": {"epochs": 5}}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert f"kind {kind!r} does not read keys ['train']" in res.output


@pytest.mark.parametrize("kind, keys", NO_NETWORK_KINDS)
def test_kinds_without_a_network_reject_hidden_widths(tmp_path, kind, keys):
    doc = {"kind": kind, "alias": "m", "store": str(tmp_path / "store"), **keys,
           "hidden": [8]}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert f"kind {kind!r} does not read keys ['hidden']" in res.output


@pytest.mark.parametrize("extra, unread", [
    ({"center": True}, ["center"]),
    ({"latent_dim": 2, "dmap": "dm"}, ["dmap", "latent_dim"]),
], ids=["center", "dmap-and-latent_dim"])
def test_a_closure_rejects_the_keys_it_does_not_read(tmp_path, extra, unread):
    doc = {"kind": "closure", "alias": "m", "data": "absent.csv", "n_low": 2, **extra}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert f"kind 'closure' does not read keys {unread}" in res.output


def test_a_closure_checks_its_data_against_the_model_it_names(tmp_path):
    # ks has 8 modes; the sampled chafee snapshots are 3 wide
    data = _sampled(tmp_path)
    doc = dict(_closure_doc(data, tmp_path / "store"), model="ks")
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "train config: data width 3 != model dim 8" in res.output
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("params", [{"n_modes": 3}, {"nu": 0.16, "epsilon": 0.1}],
                         ids=["n_modes", "nu-and-epsilon"])
def test_a_closure_with_model_parameters_needs_the_model_key(tmp_path, params):
    data = _sampled(tmp_path)
    doc = dict(_closure_doc(data, tmp_path / "store"), **params)
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert f"train config: keys {sorted(params)} need the key model" in res.output
    assert not (tmp_path / "store").exists()


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """A readable snapshot file and a store holding a pruned dmap named dm and a
    pod named p."""
    root = tmp_path_factory.mktemp("inputs")
    t = np.linspace(0.0, 1.0, 40)
    pts = np.column_stack([t, 0.5 * t, -0.25 * t])
    write_table(root / "snapshots.csv", ["a1", "a2", "a3"], pts)
    ModelStore(root / "store").save(select_independent(dmaps_fit(pts, n_eigs=4))[0], alias="dm")
    ModelStore(root / "store").save(pod_fit(pts), alias="p")
    return root


@pytest.mark.parametrize("kind, key", [
    ("closure", "data"), ("closure", "n_low"),
    ("black-box", "data"), ("black-box", "model"), ("black-box", "n_low"),
    ("gray-box", "data"), ("gray-box", "model"), ("gray-box", "n_low"),
    ("latent-map", "dmap"), ("latent-map", "n_low"),
    ("autoencoder", "data"), ("autoencoder", "latent_dim"),
    ("pod", "data"), ("dmap", "data"), ("lift", "dmap"),
])
def test_each_kind_names_each_required_key_it_lacks(train_inputs, tmp_path, kind, key):
    # every key any kind needs is set, bar the one dropped
    keys = {"data": str(train_inputs / "snapshots.csv"), "dmap": "dm", "model": "chafee",
            "n_low": 2, "latent_dim": 2}
    del keys[key]
    doc = {"kind": kind, "alias": "m", "store": str(train_inputs / "store"), **keys}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert f"kind {kind!r} needs keys [{key!r}]" in res.output


@pytest.mark.parametrize("kind", ["closure", "black-box", "gray-box", "latent-map"])
@pytest.mark.parametrize("n_low", [3, 0])
def test_n_low_must_leave_a_tail_of_the_input_width(train_inputs, tmp_path, kind, n_low):
    # the snapshots and the stored dmap's points are both 3 wide
    inputs = {"data": str(train_inputs / "snapshots.csv"), "dmap": "dm", "model": "chafee"}
    doc = {"kind": kind, "alias": "m", "n_low": n_low, "store": str(train_inputs / "store"),
           "train": {"epochs": 2, "seed": 0},
           **{key: value for key, value in inputs.items() if key in TRAIN_KINDS[kind][0]}}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "n_low must leave at least one tail mode" in res.output


@pytest.mark.parametrize("kind", ["lift", "latent-map"])
def test_a_dmap_key_that_names_another_model_type_exits_2(train_inputs, tmp_path, kind):
    doc = {"kind": kind, "alias": "m", "store": str(train_inputs / "store"), "dmap": "p",
           "n_low": 2 if kind == "latent-map" else None}
    res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc), "--out", tmp_path / "t"])
    assert res.exit_code == 2, res.output
    assert "dmap 'p' must name a DiffusionMap, not a PodModel" in res.output


@pytest.mark.parametrize("pipeline, artifacts", [
    ({"closure": "mlp"}, {"closure-net": "p"}),
    ({"latent_route": "dmaps", "closure": "double-dmaps"}, {"latent-map": "p", "lift": "p"}),
], ids=["closure-net", "latent-map"])
def test_a_stored_model_of_the_wrong_type_exits_2(train_inputs, tmp_path, pipeline, artifacts):
    doc = {"pipeline": dict(EVAL_PIPELINE, **pipeline), "store": str(train_inputs / "store"),
           "artifacts": artifacts}
    res = _invoke(["evaluate", "--config", _write(tmp_path / "e.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    role = next(iter(artifacts))
    assert f"artifact '{role}' must be of type Mlp, not PodModel" in res.output


def test_a_nested_ic_exits_2(tmp_path):
    doc = {"pipeline": dict(EVAL_PIPELINE, ic=[[1, 0.5], [0.1, 0]])}
    res = _invoke(["evaluate", "--config", _write(tmp_path / "e.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert "pipeline block (line 2): key 'ic' expects list of int/float, got list at ic[0]" \
        in res.output


_NUMS = "expects list of int/float"
_BOX = "expects list of list of int/float"


@pytest.mark.parametrize("command, doc, section, message", [
    ("simulate", dict(SIM_DOC, ic=[1.0, {"a": 1}, 0.1]), "simulate config",
     f"key 'ic' {_NUMS}, got dict at ic[1]"),
    ("simulate", dict(SIM_DOC, ic=[1.0, True, 0.1]), "simulate config",
     f"key 'ic' {_NUMS}, got bool at ic[1]"),
    ("simulate", dict(SIM_DOC, ic=[1.0, "0.5", 0.1]), "simulate config",
     f"key 'ic' {_NUMS}, got str at ic[1]"),
    ("sample", dict(SAMPLE_DOC, ic_box=[[-1.2, {"a": 1}], [-0.6, 0.6], [-0.4, 0.4]]),
     "sample config", f"key 'ic_box' {_BOX}, got dict at ic_box[0][1]"),
    ("sample", dict(SAMPLE_DOC, ic_box=[[-1.2, 1.2], 0.6, [-0.4, 0.4]]), "sample config",
     f"key 'ic_box' {_BOX}, got float at ic_box[1]"),
    ("train", {"kind": "closure", "alias": "cl", "data": "absent.csv", "n_low": 2,
               "hidden": [8, 2.5]}, "train config", "key 'hidden' expects list of int, "
                                                    "got float at hidden[1]"),
    ("evaluate", {"pipeline": dict(EVAL_PIPELINE, ic=[1.0, None, 0.1])}, "pipeline block",
     f"key 'ic' {_NUMS}, got NoneType at ic[1]"),
    ("evaluate", {"pipeline": dict(EVAL_PIPELINE, ic=[1.0, "0.5", 0.1])}, "pipeline block",
     f"key 'ic' {_NUMS}, got str at ic[1]"),
    ("ensemble", dict(ENSEMBLE_DOC, ic_box=[[0.5, 1.2], [-0.5, {"a": 1}], [-0.2, 0.2]]),
     "ensemble config", f"key 'ic_box' {_BOX}, got dict at ic_box[1][1]"),
    ("ensemble", dict(ENSEMBLE_DOC, pipelines=[EVAL_PIPELINE, "none"]), "ensemble config",
     "key 'pipelines' expects list of dict, got str at pipelines[1]"),
    ("ensemble", dict(ENSEMBLE_DOC, pipelines=[dict(EVAL_PIPELINE, ic=[1.0, True, 0.1])]),
     r"pipelines\[0\]", f"key 'ic' {_NUMS}, got bool at ic[1]"),
], ids=["simulate-mapping", "simulate-bool", "simulate-string", "sample-mapping",
        "sample-flat-row", "train-hidden", "evaluate-null", "evaluate-string",
        "ensemble-box", "ensemble-pipeline", "ensemble-pipeline-ic"])
def test_a_list_element_of_the_wrong_type_exits_2_before_any_file_is_written(
        tmp_path, command, doc, section, message):
    _exits_2_before_any_file(tmp_path, command, _write(tmp_path / "c.yaml", doc),
                             section, message)


def _exits_2_before_any_file(tmp_path, command, config, section, message):
    res = _invoke([command, "--config", config, "--out", tmp_path / "out"])
    assert res.exit_code == 2, res.output
    assert re.search(rf"{section} \(line \d+\): {re.escape(message)}", res.output), res.output
    assert list((tmp_path / "out").iterdir()) == []


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("command, doc, section, message", [
    ("simulate", dict(SIM_DOC, final_time=_INF), "simulate config",
     "key 'final_time' expects int/float, got non-finite inf"),
    ("simulate", dict(SIM_DOC, dt=_INF), "simulate config",
     "key 'dt' expects int/float, got non-finite inf"),
    ("simulate", dict(SIM_DOC, dt=_NAN), "simulate config",
     "key 'dt' expects int/float, got non-finite nan"),
    ("simulate", dict(SIM_DOC, ic=[1.0, _NAN, 0.1]), "simulate config",
     f"key 'ic' {_NUMS}, got non-finite nan at ic[1]"),
    ("sample", dict(SAMPLE_DOC, transient_time=_INF), "sample config",
     "key 'transient_time' expects int/float, got non-finite inf"),
    ("sample", dict(SAMPLE_DOC, ic_box=[[-_INF, 1.2], [-0.6, 0.6], [-0.4, 0.4]]),
     "sample config", f"key 'ic_box' {_BOX}, got non-finite -inf at ic_box[0][0]"),
    ("evaluate", {"pipeline": dict(EVAL_PIPELINE, final_time=_NAN)}, "pipeline block",
     "key 'final_time' expects int/float, got non-finite nan"),
    ("ensemble", dict(ENSEMBLE_DOC, pipelines=[dict(EVAL_PIPELINE, dt=_INF)]),
     r"pipelines\[0\]", "key 'dt' expects int/float, got non-finite inf"),
    ("ensemble", dict(ENSEMBLE_DOC, final_time=_NAN), "ensemble config",
     "key 'final_time' expects int/float, got non-finite nan"),
    ("train", {"kind": "closure", "alias": "cl", "data": "absent.csv", "n_low": 2,
               "train": {"learning_rate": _NAN}}, "train block",
     "key 'learning_rate' expects int/float, got non-finite nan"),
], ids=["simulate-final-time", "simulate-dt-inf", "simulate-dt-nan", "simulate-ic",
        "sample-transient-time", "sample-ic-box", "evaluate-final-time", "ensemble-dt",
        "ensemble-final-time", "train-learning-rate"])
def test_a_non_finite_number_exits_2_before_any_file_is_written(
        tmp_path, command, doc, section, message):
    # the config holds YAML's .inf or .nan, which load as floats no run can use
    config = _write(tmp_path / "c.yaml", doc)
    assert re.search(r"\.(inf|nan)\b", config.read_text())
    _exits_2_before_any_file(tmp_path, command, config, section, message)


def test_an_ensemble_checks_its_last_pipeline_before_any_run(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(rom, "rk4", lambda *args: calls.append(args))
    doc = dict(ENSEMBLE_DOC, pipelines=[dict(EVAL_PIPELINE, closure="none"),
                                        dict(EVAL_PIPELINE, closure="mlp")])
    res = _invoke(["ensemble", "--config", _write(tmp_path / "ens.yaml", doc),
                   "--out", tmp_path / "out"])
    assert res.exit_code == 4, res.output
    assert "pipeline needs artifact 'closure-net'" in res.output
    assert calls == [] and list((tmp_path / "out").iterdir()) == []


COMMANDS = ("simulate", "sample", "train", "evaluate", "ensemble")


@pytest.fixture(scope="module")
def frame_runs(tmp_path_factory):
    """Each command run once; the pipelines use a closure trained on one sample."""
    root = tmp_path_factory.mktemp("frame")
    store = str(root / "train" / "models")  # the train command's default store
    train_doc = _closure_doc(root / "sample" / "snapshots.csv", store)
    del train_doc["store"]
    pipeline = {"pipeline": dict(EVAL_PIPELINE, closure="mlp"), "store": store,
                "artifacts": {"closure-net": "cl"}}
    docs = {
        "simulate": SIM_DOC,
        "sample": SAMPLE_DOC,
        "train": train_doc,
        "evaluate": pipeline,
        "ensemble": dict(ENSEMBLE_DOC, pipelines=[pipeline["pipeline"]], plots=True,
                         store=store, artifacts=pipeline["artifacts"]),
    }
    for command in COMMANDS:
        cfg = _write(root / f"{command}.yaml", docs[command])
        res = _invoke([command, "--config", cfg, "--out", root / command])
        assert res.exit_code == 0, res.output
    return {command: root / command for command in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_names_the_command_and_every_file_written(frame_runs, command):
    out = frame_runs[command]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    written = sorted(p.name for p in out.iterdir() if p.name not in ("manifest.json", "models"))
    assert sorted(manifest["outputs"]) == written


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_takes_config_out_and_seed(command):
    res = _invoke([command, "--help"])
    assert res.exit_code == 0, res.output
    for option in ("--config", "--out", "--seed"):
        assert option in res.output


def test_unset_train_keys_take_the_library_defaults(frame_runs, tmp_path):
    data = frame_runs["sample"] / "snapshots.csv"
    states = read_table(data)[1][:, 2:]
    store = ModelStore(tmp_path / "store")

    def stored(doc):
        doc = {"alias": doc["kind"], "store": str(store.root), **doc}
        res = _invoke(["train", "--config", _write(tmp_path / "t.yaml", doc),
                       "--out", tmp_path / doc["kind"]])
        assert res.exit_code == 0, res.output
        text = (store.root / f"{store.resolve(doc['alias'])}.json").read_text()
        return json.loads(text)["model"]

    def expected(obj):
        return json.loads(json.dumps(model_to_dict(obj)))

    assert stored({"kind": "pod", "data": str(data)}) == expected(pod_fit(states))
    assert stored({"kind": "closure", "data": str(data), "n_low": 2}) == \
        expected(train(init_mlp((2, 24, 24, 1)), states[:, :2], states[:, 2:], TrainConfig())[0])
    assert stored({"kind": "dmap", "data": str(data)}) == \
        expected(select_independent(dmaps_fit(states))[0])
    dm = store.load("dmap")
    assert stored({"kind": "lift", "dmap": "dmap"}) == \
        expected(gh_fit(dm.coordinates(), dm.train_points))


def test_ensemble_without_bins_writes_twenty(frame_runs):
    hist = (frame_runs["ensemble"] / "histogram.csv").read_text().splitlines()
    assert len(hist) == 1 + 20  # header + one pipeline x 20 bins
