"""The benchmark's tracer wraps package functions by name.

``perfbench/tracer.py`` replaces each function named in its
``SELF_METRIC`` table with a timing wrapper, so deleting or renaming one
of them breaks traced benchmark runs.  This reads the table from the
tracer's source, without importing or running it, and checks every name
against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
