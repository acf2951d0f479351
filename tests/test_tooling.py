"""Whole-package checks: the benchmark's tracer (perfbench/spans.py) still
finds every name it wraps and every argument its hooks read, every exported
name exists, every exception class is an AimromError, README's route,
dynamics and train-kind tables are the closures of rom.ROUTES, rom.DYNAMICS
and cli.TRAIN_KINDS, its command list is the CLI's commands, and its example
configs pass their commands' schemas and run in order."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import aimrom
import aimrom.cli  # noqa: F401  (imports every module the tracer patches)
from aimrom import AimromError, cli, dmaps, integrate, metrics, models, nn, rom, serialize
from aimrom.aim import euler_galerkin_closure

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_binds_and_is_restored(spans):
    targets = spans._targets()
    originals = [inspect.getattr_static(owner, attr) for owner, attr, _, _ in targets]
    with spans.install(spans.Tracer()):
        for owner, attr, name, _ in targets:
            assert hasattr(inspect.getattr_static(owner, attr), "__wrapped__"), name
    for (owner, attr, name, _), original in zip(targets, originals):
        assert inspect.getattr_static(owner, attr) is original, name


@pytest.mark.parametrize("model, n_modes, span", [
    ("chafee", 3, "models.chafee_rhs_3"),
    ("chafee", 2, "models.chafee_rhs_2"),
    ("chafee", 5, "models.chafee_rhs_3"),
    ("ks", 8, "models.ks_rhs"),
    ("ks", 3, "models.ks_rhs"),
    ("toy", None, "models.toy_rhs"),
])
def test_each_field_evaluation_is_one_traced_call(spans, model, n_modes, span):
    field = models.analytic_field(model, n_modes)
    tracer = spans.Tracer()
    with spans.install(tracer):
        field.eval(np.zeros(field.dim))
        field.eval(np.zeros((4, field.dim)))
    summary = tracer.summary()
    assert {k: v[0] for k, v in summary.items() if k.startswith("models.")} == {span: 2}


def test_one_slaving_map_call_is_one_traced_rhs_call(spans):
    tracer = spans.Tracer()
    with spans.install(tracer):
        euler_galerkin_closure("chafee", 2, 3, 0.16)(np.array([0.9, -0.2]))
    summary = tracer.summary()
    assert {k: v[0] for k, v in summary.items() if k.startswith("models.")} == {
        "models.chafee_rhs_3": 1}


def test_one_pipeline_run_records_its_postprocess_and_reconstruct_spans(spans):
    cfg = rom.PipelineConfig("chafee", "fourier", "truncated", "euler-galerkin",
                             (1.0, 0.5, 0.1), 0.1, 1e-2)
    tracer = spans.Tracer()
    with spans.install(tracer):
        # through the module attribute, which install replaces
        rom.run_pipeline(cfg, {})
    summary = tracer.summary()
    assert summary["rom.run_pipeline"][0] == 1
    assert summary["aim.postprocess"][0] == 1
    assert summary["spectral.reconstruct"][0] >= 1


def test_each_argument_hook_tallies_its_hand_count(spans, tmp_path):
    # the hooks read call arguments by name, so a renamed parameter breaks only a traced run
    cfg = nn.TrainConfig(epochs=3, batch_size=8)
    # at dt = 0.3 the 3-mode truth blows up from a3 >= 4; seed 5 draws one such start of 5
    eg = rom.PipelineConfig("chafee", "fourier", "truncated", "euler-galerkin",
                            (1.0, 0.5, 0.1), 3.0, 0.3)
    pipelines = [eg, replace(eg, closure="none")]
    store = serialize.ModelStore(tmp_path / "store")
    tracer = spans.Tracer()
    with spans.install(tracer):
        integrate.rk4(models.analytic_field("chafee", 3), np.zeros(3), 1.05, 0.1)
        nn.train(nn.init_mlp((2, 4, 1)), np.zeros((20, 2)), np.zeros((20, 1)), cfg)
        nn.train_autoencoder(nn.init_autoencoder(3, 2, (4,)), np.zeros((10, 3)), cfg)
        dm, _ = dmaps.select_independent(
            dmaps.dmaps_fit(np.random.default_rng(0).normal(size=(30, 2)), n_eigs=3))
        result = metrics.ensemble_histogram(pipelines, {}, [[-1.0, 1.0], [-1.0, 1.0],
                                                            [-1.0, 5.0]], n_ic=5, seed=5)
        serialize.write_table(tmp_path / "t.csv", ["a"], np.zeros((2, 1)))
        serialize.write_manifest(tmp_path, {"command": "none"})
        store.save(nn.init_mlp((2, 4, 1)), alias="net")
    written = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
    assert result.failed == (1, 1) and dm.kept_indices
    assert dict(tracer.tally) == {
        # 10 steps and a short tail; the ensemble's truth and the reduced run
        # its two pipelines share take 10 steps each
        "integrate.rk4_steps": 11 + 2 * 10,
        # 18 and 9 training rows after the 10% validation split: 3 and 2 batches
        "nn.train_epochs": 3 + 3,
        "nn.adam_steps": 3 * 3 + 3 * 2,
        "dmaps.kept_coords": len(dm.kept_indices),
        "metrics.pipelines_attempted": 2 * 5,
        "metrics.pipelines_failed": 2,
        "serialize.bytes_written": written,
    }


MODULES = [aimrom] + [importlib.import_module(f"aimrom.{m.name}")
                      for m in pkgutil.iter_modules(aimrom.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_a_module_exports_is_bound_in_it(module):
    # a deleted name cannot stay in __all__
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_every_exception_class_is_an_aimrom_error_with_the_readme_exit_code():
    defined = [obj for module in MODULES for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__]
    assert {cls.__name__ for cls in defined} >= {
        "AimromError", "BlowUpError", "TrainingDivergedError"}
    bases = AimromError.__subclasses__()
    # each class is the root or below one of its children, which carry the exit codes
    for cls in defined:
        assert cls is AimromError or issubclass(cls, tuple(bases)), cls.__qualname__
    # README lists each failure class as "- <exit code> `<class>`"
    readme = re.findall(r"^- (\d) `(\w+)`", (ROOT / "README.md").read_text(), re.M)
    assert {cls.__name__: cls.exit_code for cls in bases} == {
        name: int(code) for code, name in readme}
    assert sorted(cls.exit_code for cls in bases) == [2, 3, 4]


def test_readme_command_list_is_the_cli_commands():
    # README lists the commands as "... `--seed` override: `<command>`, ..., `<command>`."
    listed = re.search(r"`--seed` override:\s+((?:`[\w-]+`,?\s+)*`[\w-]+`)\.",
                       (ROOT / "README.md").read_text())
    assert sorted(re.findall(r"`([\w-]+)`", listed.group(1))) == sorted(cli.main.commands)


def test_readme_route_table_is_rom_routes():
    # README lists each route as "| `<route>` | `<closure>`, `<closure>` | ..."
    rows = re.findall(r"^\| `([\w-]+)` \| ((?:`[\w-]+`(?:, )?)+) \|",
                      (ROOT / "README.md").read_text(), re.M)
    assert {route: tuple(re.findall(r"`([\w-]+)`", closures))
            for route, closures in rows} == {
        route: closures for route, (closures, _) in rom.ROUTES.items()}


def test_readme_dynamics_table_is_rom_dynamics():
    # README lists each dynamics as "| `<dynamics>` | yes|no | yes|no |"
    rows = re.findall(r"^\| `([\w-]+)` \| (yes|no) \| (yes|no) \|$",
                      (ROOT / "README.md").read_text(), re.M)
    assert {dynamics: (base == "yes", net == "yes") for dynamics, base, net in rows} == \
        rom.DYNAMICS


def test_readme_train_kind_table_is_cli_train_kinds():
    # README lists each kind as
    # "| `<kind>` | `[<width>, ...]` or no network | `<key>`, ... | `<key>`, ... |"
    keys = r"((?:`\w+`(?:, )?)+)"
    rows = re.findall(rf"^\| `([\w-]+)` \| (`\[[\d, ]+\]`|no network) \| {keys} \| {keys} \|$",
                      (ROOT / "README.md").read_text(), re.M)
    assert {kind: (tuple(re.findall(r"`(\w+)`", needs)), tuple(re.findall(r"`(\w+)`", reads)),
                   None if net == "no network" else tuple(map(int, re.findall(r"\d+", net))))
            for kind, net, needs, reads in rows} == cli.TRAIN_KINDS


def test_every_train_kind_key_is_in_the_train_schema_and_every_schema_key_is_used():
    used = {key for needs, reads, _ in cli.TRAIN_KINDS.values() for key in needs + reads}
    assert used <= set(cli._TRAIN_SCHEMA)
    assert set(cli._TRAIN_SCHEMA) - used == {"kind", "alias", "store"}


def test_readme_examples_pass_their_schemas_and_run_in_order(tmp_path, monkeypatch):
    # README gives each config as a "# <name>.yaml" block and each run as an
    # "aimrom <command> --config <name>.yaml --out <dir>" line
    readme = (ROOT / "README.md").read_text()
    configs = dict(re.findall(r"^```yaml\n# ([\w-]+\.yaml)\n(.*?)^```", readme, re.M | re.S))
    runs = re.findall(r"^aimrom ([\w-]+) --config ([\w-]+\.yaml) --out (\S+)$", readme, re.M)
    assert [command for command, _, _ in runs] == list(cli.main.commands)
    assert sorted(name for _, name, _ in runs) == sorted(configs)
    schemas = {"simulate": cli._SIM_SCHEMA, "sample": cli._SAMPLE_SCHEMA,
               "train": cli._TRAIN_SCHEMA, "evaluate": cli._PIPELINE_SCHEMA,
               "ensemble": cli._ENSEMBLE_SCHEMA}
    for command, name, _ in runs:
        cli._check(yaml.safe_load(configs[name]), schemas[command], name)
    # the configs name their data and store relative to the working directory
    monkeypatch.chdir(tmp_path)
    for command, name, out in runs:
        (tmp_path / name).write_text(configs[name])
        res = CliRunner().invoke(cli.main, [command, "--config", name, "--out", out])
        assert res.exit_code == 0, (name, res.output)
