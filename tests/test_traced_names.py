"""Every function the benchmark traces exists in normbase.

perfbench/tracing.py wraps ``normbase.<module>.<function>`` for each key of
its TARGETS and SETUP_TARGETS. A renamed function would otherwise fail only
the traced benchmark run. The file is parsed, not imported, so nothing is
written next to it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> list:
    names = []
    for stmt in ast.parse(TRACING.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TARGETS", "SETUP_TARGETS") for t in stmt.targets
        ):
            names += [ast.literal_eval(key) for key in stmt.value.keys]
    return names


def test_both_tables_are_read():
    names = traced_names()
    assert ("gbmodels", "build_tree_exact") in names
    assert ("synthgen", "generate") in names


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"normbase.{module}"), function, None))
