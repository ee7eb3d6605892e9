import dataclasses
import json
import re
from datetime import date
from typing import Literal, Optional, Union

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase.cli import RunSettings
from normbase.features import Scaler, TargetScaler
from normbase.normalize import MODEL_KINDS, PeriodSpec
from normbase.savefile import from_json, to_json
from normbase.synthgen import SynthConfig

finite = st.floats(allow_nan=False, allow_infinity=False)
MAX = 1.7976931348623157e308


def round_trip(x):
    return from_json(type(x), json.loads(json.dumps(to_json(x), allow_nan=False)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# A fitted Scaler has one entry per feature column and a feature spec selects
# at least one column, so the arrays are never empty.
@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(finite, finite, st.booleans()), min_size=1, max_size=20),
    finite,
    finite,
)
@example([(-0.0, 5e-324, True), (MAX, -MAX, False)], -0.0, 5e-324)
@example([(5e-324, -0.0, False)], MAX, -MAX)
def test_scalers_reload_bit_identical(columns, mean, std):
    mean_col, std_col, exempt = (np.array(c) for c in zip(*columns))
    sc = Scaler(mean=mean_col, std=std_col, exempt=exempt)
    back = round_trip(sc)
    assert same_bits(back.mean, sc.mean)
    assert same_bits(back.std, sc.std)
    assert same_bits(back.exempt, sc.exempt)
    assert back.exempt.dtype == bool

    ts = TargetScaler(mean=mean, std=std)
    back = round_trip(ts)
    assert type(back.mean) is float and type(back.std) is float
    assert same_bits(back.mean, ts.mean)
    assert same_bits(back.std, ts.std)


# Every config dataclass at its defaults; RunSettings holds the sections.
CONFIGS = {
    "run": RunSettings(interval_seconds=3600, inputs={}, periods=PeriodSpec(
        train=(date(2019, 1, 1), date(2019, 6, 30)),
        test=(date(2019, 7, 1), date(2019, 9, 30)),
        study=(date(2019, 10, 1), date(2019, 12, 31)),
    )),
    **{f"models.{name}": kind.setup() for name, kind in MODEL_KINDS.items()},
    "synth": SynthConfig(),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_config_dataclasses_round_trip_at_their_defaults(config):
    # an annotation the decoder cannot read raises TypeError here
    doc = json.loads(json.dumps(to_json(config), default=str))
    assert from_json(type(config), doc) == config


def test_an_annotation_without_a_decoding_is_a_type_error():
    @dataclasses.dataclass
    class Odd:
        members: set[int]

    with pytest.raises(TypeError, match="no JSON decoding"):
        from_json(Odd, {"members": [1]})


def test_errors_name_the_key_path():
    doc = {"mean": [0.0], "std": [1.0], "exempt": [False], "scale": 2}
    with pytest.raises(ValueError, match="^unknown key 'scaler.scale'$"):
        from_json(Scaler, doc, path="scaler")
    del doc["scale"], doc["std"]
    with pytest.raises(ValueError, match="^missing required config key 'std'$"):
        from_json(Scaler, doc, noun="config key")
    with pytest.raises(ValueError, match=r"^key 'pair\[1\]' must be a number$"):
        from_json(tuple[int, float], [1, True], path="pair")


def test_to_json_writes_dates_tuples_dicts_and_non_finite_numbers():
    @dataclasses.dataclass
    class Section:
        span: tuple[date, date]
        series: dict[str, list[Optional[float]]]
        total: Optional[float]

    nan, inf = float("nan"), float("inf")
    section = Section(
        span=(date(2020, 3, 12), date(2020, 7, 31)),
        series={"a": np.array([1.5, nan, -inf]), "b": [np.float64(2.0), inf], "c": np.arange(2.0)},
        total=nan,
    )
    doc = to_json(section)
    assert doc == {
        "span": ["2020-03-12", "2020-07-31"],
        "series": {"a": [1.5, None, None], "b": [2.0, None], "c": [0.0, 1.0]},
        "total": None,
    }
    assert [type(v) for v in doc["series"]["b"]] == [float, type(None)]
    back = from_json(Section, json.loads(json.dumps(doc, allow_nan=False)))
    assert back.span == section.span
    assert back.series == {"a": [1.5, None, None], "b": [2.0, None], "c": [0.0, 1.0]}
    assert to_json(back) == doc


def test_a_typed_dict_decodes_each_value_under_its_key():
    assert from_json(dict[str, date], {"a": "2020-01-02"}) == {"a": date(2020, 1, 2)}
    with pytest.raises(ValueError, match="^key 'runs.b' must be an integer$"):
        from_json(dict[str, int], {"a": 1, "b": 1.5}, path="runs")
    with pytest.raises(ValueError, match="^key 'runs' must be an object$"):
        from_json(dict[str, int], [1], path="runs")


def test_a_float_must_be_finite_but_an_array_may_hold_nan():
    for value in (float("nan"), float("-inf"), float("inf"), 10**400):
        with pytest.raises(ValueError, match=r"^key 'scale\[0\]' must be a finite number$"):
            from_json(tuple[float], [value], path="scale")
    assert from_json(float, 10**308) == 1e308
    assert np.isnan(from_json(np.ndarray, [1.0, float("nan")])[1])


def test_a_literal_matches_type_and_value():
    assert from_json(Literal[1], 1) == 1
    assert from_json(Literal["a", "b"], "b") == "b"
    for doc in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^key 'version' must be 1, not {re.escape(repr(doc))}$"):
            from_json(Literal[1], doc, path="version")
    with pytest.raises(ValueError, match="^key 'mode' must be 'a' or 'b', not 'c'$"):
        from_json(Literal["a", "b"], "c", path="mode")


def test_a_union_takes_the_first_alternative_that_fits():
    @dataclasses.dataclass
    class Net:
        epochs: int

    @dataclasses.dataclass
    class Tree:
        rounds: int

    @dataclasses.dataclass
    class Wide:
        epochs: float

    assert from_json(Union[Net, Tree], {"rounds": 3}) == Tree(3)
    assert from_json(Union[Net, Wide], {"epochs": 3}) == Net(3)
    assert from_json(Union[Wide, Net], {"epochs": 3}) == Wide(3.0)
    assert type(from_json(Union[float, int], 2)) is float


def test_a_union_no_alternative_fits_names_the_key():
    with pytest.raises(ValueError, match=r"^key 'models\.mlp\.info' fits none of its forms: "
                                         r"key 'models\.mlp\.info' must be an integer; "
                                         r"key 'models\.mlp\.info' must be a string$"):
        from_json(Union[int, str], [1], path="models.mlp.info")


def test_optional_reads_null_as_none_and_anything_else_as_its_type():
    assert from_json(Optional[int], None) is None
    assert from_json(Optional[tuple[date, date]], None) is None
    assert from_json(Optional[int], 4) == 4
    with pytest.raises(ValueError, match="^key 'seed' must be an integer$"):
        from_json(Optional[int], "4", path="seed")
