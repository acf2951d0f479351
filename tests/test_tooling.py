"""Whole-package checks: the benchmark's tracer (perfbench/spans.py) still
finds every name it wraps, every exported name exists, every exception class
is an AimromError, and README's route, dynamics and train-kind tables are
the closures of rom.ROUTES, rom.DYNAMICS and cli.TRAIN_KINDS."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import aimrom
import aimrom.cli  # noqa: F401  (imports every module the tracer patches)
from aimrom import AimromError, cli, models, rom
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
