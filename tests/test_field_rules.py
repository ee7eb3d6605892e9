"""Each field's allowed values are declared once, on the field: a Literal
annotation or JSON Schema bounds in its metadata. These tests build every
dataclass that declares any at each bound and just past it, directly and
through from_json, so a bound that construction does not enforce fails here."""

import dataclasses
import importlib
import json
import math
import pkgutil
import re
from datetime import date
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np
import pytest

import normbase
from normbase.errors import ConfigError
from normbase.savefile import from_json, to_json

KEYWORDS = {"minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"}
MODULES = [importlib.import_module(f"normbase.{m.name}") for m in pkgutil.iter_modules(normbase.__path__)]
DATACLASSES = sorted(
    {cls for mod in MODULES for cls in vars(mod).values()
     if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == mod.__name__},
    key=lambda cls: (cls.__module__, cls.__name__),
)

PERIODS = normbase.PeriodSpec(train=(date(2019, 1, 1), date(2019, 6, 30)),
                              test=(date(2019, 7, 1), date(2019, 9, 30)),
                              study=(date(2019, 10, 1), date(2019, 12, 31)))
KPIS = dict(rmse=1.0, cv_rmse=0.1, r_squared=0.9, nmbe=0.01, n=30)


def valid(name: str) -> dict:
    """Constructor arguments of a valid instance of the dataclass ``name``."""
    n = normbase.normalize
    return {
        "SeriesSchema": dict(channel="kwh", unit="kWh", timezone="UTC", interval_seconds=3600),
        "RunSetup": dict(periods=PERIODS),
        "RunSettings": dict(periods=PERIODS, interval_seconds=3600, inputs={}),
        "KpiSet": KPIS,
        "KpiReport": dict(daily=normbase.metrics.KpiSet(**KPIS), monthly=None, gate=None, p=1),
        "MlpParams": dict(layer_sizes=[1, 1], activation="relu", weights=[np.ones((1, 1))],
                          biases=[np.zeros(1)], target_scaler=None),
        "NetInfo": dict(epochs=5, best_epoch=2),
        "TreeInfo": dict(rounds=5, best_round=2, n_trees=3),
        "Report": dict(periods=PERIODS, seed=0, kpi_p=1, selection=n.SELECTION_GATE, feature_names=[],
                       models={}, models_used=[], flags=n.Flags(False, []),
                       study=n.StudySeries([], [], [], {}), ensemble_test_kpis=None,
                       cumulative=n.Cumulative([], [], []), totals=n.Totals(None, None, None, 1.0)),
    }.get(name, {})


# a boundary value that only fits with another field moved too: goss_a + goss_b <= 1
PARTNER = {("BoostConfig", "goss_a"): {"goss_b": 0.0}, ("BoostConfig", "goss_b"): {"goss_a": 0.0}}


def declared(cls) -> bool:
    hints = get_type_hints(cls)
    return any(f.metadata or get_origin(hints[f.name]) is Literal for f in dataclasses.fields(cls))


CHECKED = [cls for cls in DATACLASSES if declared(cls)]


def step(value, towards: float):
    """The next value after ``value`` towards ``towards``: the next integer
    for an int, the next float for a float."""
    if isinstance(value, int):
        return value + (1 if towards > value else -1)
    return math.nextafter(value, towards)


def bound_cases():
    """(class, field, keyword, value inside, value outside) for every bound."""
    for cls in CHECKED:
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            for keyword, limit in f.metadata.items():
                limit = hints[f.name](limit)
                inward = math.inf if keyword.endswith("inimum") else -math.inf
                if keyword.startswith("exclusive"):
                    inside, outside = step(limit, inward), limit
                else:
                    inside, outside = limit, step(limit, -inward)
                yield pytest.param(cls, f.name, keyword, inside, outside,
                                   id=f"{cls.__name__}.{f.name}.{keyword}")


def literal_cases():
    for cls in CHECKED:
        for name, hint in get_type_hints(cls).items():
            if get_origin(hint) is Literal:
                yield pytest.param(cls, name, get_args(hint), id=f"{cls.__name__}.{name}")


def as_doc(obj) -> dict:
    """What a config or report file holds for ``obj`` (a Path as its string)."""
    return json.loads(json.dumps(to_json(obj), default=str))


def test_the_checked_dataclasses():
    assert {cls.__name__ for cls in CHECKED} == {
        "BoostConfig", "TrainConfig", "MlpParams", "MlpSetup", "LstmSetup", "KpiSetup", "EnsembleSetup",
        "RunSettings", "FeatureSpec", "GapFillPolicy", "SeriesSchema", "SynthConfig",
        "KpiSet", "KpiReport", "NetInfo", "TreeInfo", "Report",
    }


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: cls.__name__)
def test_metadata_holds_only_bound_keywords(cls):
    # a misspelt keyword would declare nothing, and its bound would go unchecked
    for f in dataclasses.fields(cls):
        assert set(f.metadata) <= KEYWORDS, f"{cls.__name__}.{f.name}: {sorted(f.metadata)}"


@pytest.mark.parametrize("cls, name, keyword, inside, outside", bound_cases())
def test_a_bound_admits_its_boundary_and_rejects_the_next_value(cls, name, keyword, inside, outside):
    args = {**valid(cls.__name__), **PARTNER.get((cls.__name__, name), {})}
    ok = cls(**{**args, name: inside})
    assert getattr(ok, name) == inside
    assert as_doc(from_json(cls, as_doc(ok), "cfg")) == as_doc(ok)
    with pytest.raises(ConfigError, match=f"^{name} must be .*, not {re.escape(repr(outside))}$"):
        cls(**{**args, name: outside})
    doc = {**as_doc(ok), name: outside}
    with pytest.raises(ValueError, match=f"^key 'cfg.{name}' must be .*, not {re.escape(repr(outside))}$"):
        from_json(cls, doc, "cfg")
    if isinstance(inside, float):
        with pytest.raises(ConfigError, match=f"^{name} must be .*, not nan$"):
            cls(**{**args, name: math.nan})


@pytest.mark.parametrize("cls, name, values", literal_cases())
def test_a_literal_admits_its_values_only(cls, name, values):
    args = valid(cls.__name__)
    for value in values:
        assert getattr(cls(**{**args, name: value}), name) == value
    with pytest.raises(ConfigError, match=f"^{name} must be .*, not 'other'$"):
        cls(**{**args, name: "other"})
    doc = {**as_doc(cls(**args)), name: "other"}
    with pytest.raises(ValueError, match=f"^key 'cfg.{name}' must be .*, not 'other'$"):
        from_json(cls, doc, "cfg")
