"""Every function the benchmark traces exists in normbase, and a traced
command runs.

perfbench/tracing.py wraps ``normbase.<module>.<function>`` for each key of
its TARGETS and SETUP_TARGETS. A renamed function would otherwise fail only
the traced benchmark run. The file is parsed, not imported, so nothing is
written next to it. Its observers read the arguments and results of the
calls they wrap, so the CLI is also run through it as a script, which fails
on an observer that no longer fits its function. On one CPU the channels
are read and the models fitted in that one process, where the tracer sees
those calls too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import data_dir, run_config, write_config  # noqa: F401 (data_dir is a fixture)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def run_traced(argv: list, spans: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(TRACING), str(spans), *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def test_traced_normalize_and_evaluate_exit_0(data_dir, tmp_path):
    models = tmp_path / "out" / "models"
    fit = run_config(data_dir, save_models=True, output_dir=str(tmp_path / "out"))
    score = run_config(data_dir, output_dir=str(tmp_path / "scored"))
    commands = [
        ["normalize", "--config", write_config(tmp_path / "fit.json", fit)],
        ["evaluate", "--config", write_config(tmp_path / "score.json", score), "--models", str(models)],
    ]
    for i, argv in enumerate(commands):
        spans = tmp_path / f"spans{i}.json"
        run = run_traced(argv, spans)
        assert run.returncode == 0, run.stderr
        names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
        assert {"cli.main", "tsdata.align", "cli.load_run_settings"} <= names
