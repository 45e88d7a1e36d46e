"""The benchmark's tracer wraps package functions by name.

``perfbench/tracer.py`` replaces each function named in its
``SELF_METRIC`` table with a timing wrapper, so deleting or renaming one
of them breaks traced benchmark runs.  This reads the table from the
tracer's source, without importing or running it, and checks every name
against the package.  The tracer's ``NOTES`` also read the arguments and
results of some traced calls; the attributes they read are checked here
too.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from fivecast import bpnn, grnn, linalg, svr
from fivecast.kernels import KernelSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[str]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SELF_METRIC" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no SELF_METRIC table in {TRACER}")


def test_the_table_is_found():
    assert "bpnn.training_cost" in traced_names()


@pytest.mark.parametrize("qualname", traced_names())
def test_traced_function_exists(qualname):
    layer, attr = qualname.split(".")
    module = importlib.import_module(f"fivecast.{layer}")
    assert callable(getattr(module, attr, None)), f"fivecast.{qualname} is traced by {TRACER.name}"


def test_train_takes_its_config_fourth():
    # the tracer reads args[3].epochs of each bpnn.train call
    assert list(inspect.signature(bpnn.train).parameters)[3] == "cfg"
    assert "epochs" in {f.name for f in dataclasses.fields(bpnn.SgdConfig)}


def test_fitted_svr_model_has_the_noted_fields():
    x = np.arange(4.0)[:, None]
    model = svr.fit(x, x[:, 0], KernelSpec("linear"))
    assert isinstance(model.kernel.kind, str)
    assert isinstance(model.passes, int)
    assert isinstance(model.converged, bool)
    assert model.coefs.shape == (4,)
    assert isinstance(model.c_reg, float)


def test_grnn_model_counts_its_neurons():
    model = grnn.fit(np.ones((3, 2)), np.ones(3), beta=1.0)
    assert model.n_neurons == 3


def test_solve_returns_a_vector():
    assert linalg.solve(np.eye(3), np.ones(3)).shape == (3,)
