"""The shipped report schema rejects damaged copies of a real report.json.

Each damage breaks one rule of the schema: a type, a range, a closed object,
a model name or the info shape that goes with it. The schema is generated
from the Report dataclasses (normalize.report_schema), and from_json(Report,
...) rejects every damage that the annotations alone express.
"""

import copy
import importlib.resources as res
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import encode_report
from normbase import normalize
from normbase.savefile import from_json

REGENERATE = "python -m normbase.normalize > src/normbase/schemas/report.schema.json"

DROP = object()  # delete the key instead of setting it

# id: (key path, new value or a function of the whole document)
DAMAGES = {
    "schema_version-2": (("schema_version",), 2),
    "schema_version-missing": (("schema_version",), DROP),
    "kpi_p-negative": (("kpi_p",), -1),
    "model-p-negative": (("models", "mlp", "kpis", "p"), -1),
    "selection-best": (("selection",), "best"),
    "unknown-used-model": (("models_used",), lambda doc: [*doc["models_used"], "arima"]),
    "unknown-model-key": (("models", "arima"), lambda doc: doc["models"]["mlp"]),
    "mlp-tree-info": (("models", "mlp", "info"), {"rounds": 10, "best_round": 9, "n_trees": 10}),
    "gbt_hist-net-info": (("models", "gbt_hist", "info"), {"epochs": 10, "best_epoch": 9}),
    "daily-n-0": (("models", "gbt_exact", "kpis", "daily", "n"), 0),
    "epochs-0": (("models", "lstm", "info", "epochs"), 0),
    "best_round-minus-2": (("models", "gbt_exact", "info", "best_round"), -2),
    "extra-top-level-key": (("notes",), "x"),
    "extra-info-key": (("models", "mlp", "info", "patience"), 5),
    "unpadded-date": (("study", "dates", 0), "2019-1-1"),
    "three-item-period": (("periods", "train"), lambda doc: [*doc["periods"]["train"], "2019-01-01"]),
    "string-in-series": (("study", "actual_kwh", 0), "1.5"),
    "gate-passed-missing": (("models", "gbt_exact", "kpis", "gate", "passed"), DROP),
    "reference-total-null": (("totals", "reference_total_kwh"), None),
}
# rules only the schema checks: a defaulted field and the ties of model names
# to their info dataclass
SCHEMA_ONLY = {
    "schema_version-missing", "unknown-used-model", "unknown-model-key", "mlp-tree-info",
    "gbt_hist-net-info",
}


def damage(doc: dict, keys: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value(doc) if callable(value) else value
    return doc


@pytest.fixture(scope="module")
def report_doc(full_report):
    return json.loads(encode_report(full_report.report))


@pytest.fixture(scope="module")
def shipped_validator():
    schema = json.loads(res.files("normbase").joinpath("schemas/report.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@pytest.mark.parametrize("keys, value", DAMAGES.values(), ids=DAMAGES.keys())
def test_shipped_schema_rejects_damaged_report(report_doc, shipped_validator, keys, value):
    assert shipped_validator.is_valid(report_doc)
    damaged = damage(report_doc, keys, value)
    assert damaged != report_doc
    assert not shipped_validator.is_valid(damaged)


@pytest.mark.parametrize("name", DAMAGES)
def test_from_json_rejects_what_the_annotations_express(report_doc, name):
    damaged = damage(report_doc, *DAMAGES[name])
    if name in SCHEMA_ONLY:
        from_json(normalize.Report, damaged)
    else:
        with pytest.raises(ValueError):
            from_json(normalize.Report, damaged)


def shipped_text() -> str:
    return res.files("normbase").joinpath("schemas/report.schema.json").read_text()


def test_shipped_schema_is_generated_from_the_dataclasses():
    assert shipped_text() == json.dumps(normalize.report_schema(), indent=2) + "\n", (
        f"report.schema.json is out of date; regenerate it with: {REGENERATE}")


def test_the_module_prints_the_schema():
    src = str(Path(normalize.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "normbase.normalize"], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == shipped_text()
