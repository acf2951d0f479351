"""The benchmark's tracer (perfbench/spans.py) still finds every name it wraps."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import aimrom.cli  # noqa: F401  (imports every module the tracer patches)
from aimrom import models

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
