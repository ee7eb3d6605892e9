"""The package runs on the standard library and NumPy alone, its one declared
dependency. CI installs the test extras (pytest, hypothesis, jsonschema) as
well, so a stray import of one of those in ``src/normbase`` would pass every
other test and still break an install without them; this test reads the
imports from the source instead. With no linter installed, it also finds a
module-level import that nothing in its module reads."""

import ast
import sys
from pathlib import Path

import pytest

import normbase

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
SOURCES = sorted(Path(normbase.__file__).parent.glob("*.py"))


def top_level_imports(text: str) -> set:
    """The top-level module of every absolute import in ``text``."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def unused_imports(text: str) -> set:
    """The names that the module-level imports of ``text`` bind and that no
    expression in it reads (``from __future__`` binds none)."""
    tree = ast.parse(text)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "normalize.py", "tsdata.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert top_level_imports(path.read_text(encoding="utf-8")) - ALLOWED == set()


def test_an_import_outside_the_rule_is_found():
    text = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import tsdata\n"
        "from .errors import ConfigError\n"
        "def f():\n"
        "    import jsonschema.validators\n"
        "    from hypothesis import given\n"
    )
    assert top_level_imports(text) == {"__future__", "os", "numpy", "jsonschema", "hypothesis"}
    assert top_level_imports(text) - ALLOWED == {"jsonschema", "hypothesis"}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_an_unused_import_is_found():
    text = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from .errors import ConfigError, DataError\n"
        "from .metrics import FitTrace\n"
        "def f(x: np.ndarray) -> FitTrace:\n"
        "    \"\"\"Returns a FitTrace.\"\"\"\n"
        "    import json\n"
        "    raise DataError(os.path.join(json.dumps(x)))\n"
    )
    assert unused_imports(text) == {"ConfigError"}
    assert unused_imports(text.replace("-> FitTrace", "")) == {"ConfigError", "FitTrace"}
