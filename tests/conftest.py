import concurrent.futures
import importlib.resources as res
import json
import os
from datetime import date

import pytest

from normbase import gbmodels, normalize, synthgen, tsdata
from normbase.savefile import from_json, to_json


def encode_report(report: normalize.Report) -> str:
    """report.json's text, as the CLI writes it."""
    return json.dumps(to_json(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def nested_tree(doc: dict, node: int = 0) -> dict:
    """A saved flat tree in the nested layout that gbmodels no longer reads:
    one object per node, children inside."""
    fields = {k: v[node] for k, v in doc.items()}
    if fields["feature"] < 0:
        return {**fields, "left": None, "right": None}
    return {**fields, "left": nested_tree(doc, fields["left"]), "right": nested_tree(doc, fields["right"])}


@pytest.fixture(scope="session")
def read_report():
    """read(report) decodes a report.json's text (or a Report, encoded as the
    CLI writes it) after checking that it validates against the shipped
    schema and reads back through from_json(Report, ...) to a Report that
    encodes to the same text."""
    import jsonschema

    schema = json.loads(res.files("normbase").joinpath("schemas/report.schema.json").read_text())

    def read(report) -> dict:
        text = report if isinstance(report, str) else encode_report(report)
        doc = json.loads(text)
        jsonschema.validate(doc, schema)
        assert encode_report(from_json(normalize.Report, doc)) == text
        return doc

    return read


@pytest.fixture(scope="session")
def small_dataset():
    """Synthetic building with a 35% occupancy drop in autumn 2018.

    Training must span a full seasonal cycle or tree models cannot reach
    summer test temperatures and the quality gate (correctly) rejects them.
    """
    cfg = synthgen.SynthConfig(
        start=date(2017, 1, 1),
        study_start=date(2018, 9, 1),
        study_end=date(2018, 10, 15),
        occupancy_drop=0.35,
        seed=11,
    )
    return synthgen.generate(cfg)


@pytest.fixture(scope="session")
def small_table(small_dataset):
    daily = tsdata.resample_daily(small_dataset.energy, "sum")
    weather = {
        ch: tsdata.resample_daily(s, "mean") for ch, s in small_dataset.weather.items()
    }
    return tsdata.align(daily, weather)


@pytest.fixture(scope="session")
def small_periods():
    return normalize.PeriodSpec(
        train=(date(2017, 1, 1), date(2018, 6, 30)),
        test=(date(2018, 7, 1), date(2018, 8, 31)),
        study=(date(2018, 9, 1), date(2018, 10, 15)),
    )


@pytest.fixture()
def tree_models():
    """Fast tree-only model set for pipeline plumbing tests."""
    return {
        "gbt_exact": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=33),
        "gbt_hist": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=44),
    }


@pytest.fixture(scope="session")
def full_report(small_table, small_periods):
    """One pipeline run with all four models, shared across assertions."""
    models = {
        "mlp": normalize.MlpSetup(hidden_sizes=(16,), epochs=200, seed=11),
        "lstm": normalize.LstmSetup(hidden_size=16, epochs=120, batch_size=64, seed=22),
        "gbt_exact": gbmodels.BoostConfig(rounds=150, learning_rate=0.1, seed=33),
        "gbt_hist": gbmodels.BoostConfig(rounds=150, learning_rate=0.1, seed=44),
    }
    return normalize.run_pipeline(
        small_table, normalize.RunSetup(periods=small_periods, models=models, seed=7)
    )


@pytest.fixture()
def cpus(monkeypatch):
    """use(n) makes run_pipeline see n usable CPUs, so at most n workers."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return use


@pytest.fixture()
def pools(monkeypatch):
    """The worker count of every process pool opened during the test."""
    opened = []
    real = concurrent.futures.ProcessPoolExecutor

    class Counting(real):
        def __init__(self, max_workers, **kwargs):
            opened.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return opened
