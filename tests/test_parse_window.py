"""parse_series_bytes with a start and an end epoch against the full parse.

For any file, any ``start`` and any ``end``,
parse_series_bytes(data, schema, start, end) must raise exactly what the
full parse raises (class, message and line number), or return the full
parse's rows from the anchor to ``last``, bit for bit, with the same
``duplicates_collapsed``. The anchor is the last present sample before
``start``, and ``last`` the first present sample at or after ``end``;
without one, the rows run to that end of the file. The rows outside the two
skip only the cast of their plain decimal cells, which ``_cell_classes``
picks out; these tests also hold that rule against float().
"""

import itertools
import re
from datetime import datetime, timedelta, timezone
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase import tsdata
from normbase.errors import ParseError, SchemaError
from normbase.tsdata import GapFillPolicy, SeriesSchema
from test_parse_differential import GRID_STARTS, csv_texts, five_minute_channel, outcome

NEW_YORK = ZoneInfo("America/New_York")
SCHEMA_5MIN = SeriesSchema("kwh", "kWh", "America/New_York", 300)
PLAIN = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)")


def encode(text):
    return text.encode("utf-8", "surrogatepass")


def windowed(text, schema, start, end=None):
    return outcome(lambda t, s: tsdata.parse_series_bytes(encode(t), s, start, end), text, schema)


def full_from(text, schema, start, end=None):
    """The full parse's outcome, its rows cut from the last present row before
    ``start`` to the first present row at or after ``end``. Without such a
    row (or without the epoch) the rows run to that end of the file."""
    try:
        s = tsdata.parse_series_bytes(encode(text), schema)
    except Exception as e:
        return type(e), str(e), getattr(e, "line_number", None)
    rows = list(enumerate(zip(s.epochs, s.missing)))
    before = [i for i, (t, m) in rows if start is not None and t < start and not m]
    after = [i for i, (t, m) in rows if end is not None and t >= end and not m]
    cut = slice(before[-1] if before else 0, after[0] + 1 if after else len(rows))
    return (s.epochs[cut].tobytes(), s.values[cut].tobytes(), s.missing[cut].tobytes(),
            s.duplicates_collapsed)


def assert_window_alike(text, schema, start, end=None):
    assert windowed(text, schema, start, end) == full_from(text, schema, start, end)


# -- drawn files and windows ---------------------------------------------------


epochs = st.one_of(
    # on, between, before and after the hourly grids the drawn rows sit on
    st.builds(lambda t0, half_hours: (t0 + timedelta(minutes=30 * half_hours)).timestamp(),
              st.sampled_from(GRID_STARTS), st.integers(-4, 66)),
    st.sampled_from([-np.inf, np.inf, 0.0, -1.5, 1e18]),
)
windows = st.one_of(
    st.tuples(epochs, st.none()),  # a start only
    st.tuples(st.none(), epochs),  # an end only
    st.tuples(epochs, epochs).map(sorted).map(tuple),
)


@settings(deadline=None, max_examples=400)
@given(csv_texts(), windows, st.booleans(), st.sampled_from([1, 2, 5, tsdata._PARSE_BLOCK]))
@example(("UTC", "timestamp,kwh\n2020-11-01T02:00:00+00:00,1.2.3\n2020-11-01T03:00:00+00:00,1"),
         (datetime(2020, 11, 1, 3, tzinfo=timezone.utc).timestamp(), None), False, 2)
@example(("UTC", "timestamp,kwh\n2020-11-01T02:00:00+00:00,1\n2020-11-01T03:00:00+00:00,1.2.3"),
         (None, datetime(2020, 11, 1, 2, tzinfo=timezone.utc).timestamp()), False, 2)
def test_window_matches_the_full_parse_cut_at_both_ends(drawn, window, bom, block):
    zone, text = drawn
    schema = SeriesSchema("kwh", "kWh", zone, 3600)
    with mock.patch.object(tsdata, "_PARSE_BLOCK", block):
        assert_window_alike("\ufeff" + text if bom else text, schema, *window)


# -- fixed files ------------------------------------------------------------------


def hourly(values, t0=datetime(2020, 1, 1, tzinfo=timezone.utc)):
    lines = [f"{(t0 + timedelta(hours=i)).isoformat()},{v}" for i, v in enumerate(values)]
    return "timestamp,kwh\n" + "\n".join(lines) + "\n"


HOURLY = SeriesSchema("kwh", "kWh", "UTC", 3600)
AT_ROW_4 = datetime(2020, 1, 1, 4, tzinfo=timezone.utc).timestamp()


@pytest.mark.parametrize("cell", ["1.2.3", "+-1", "1e", ".", "-", "e5", "1-", "1" * 40 + "x"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_malformed_cell_before_start_raises_at_its_line(cell, newline):
    text = hourly(["1.5", cell, "2", "2.5", "3", "3.5"]).replace("\n", newline)
    assert_window_alike(text, HOURLY, AT_ROW_4)
    with pytest.raises(ParseError) as e:
        tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    assert e.value.line_number == 3
    assert f"unparseable value {cell!r}" in str(e.value)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "1e400", "1e-5", "-2.5E+3", "1" * 40,
                                  "", " 1.5", "+.5", "5.", "-0"])
def test_unusual_cells_before_start_leave_the_window_alone(cell):
    text = hourly(["1.5", cell, "2", "2.5", "3", "3.5", "4"])
    assert_window_alike(text, HOURLY, AT_ROW_4)
    assert_window_alike("\ufeff" + text.replace("\n", "\r\n"), HOURLY, AT_ROW_4)


def test_exponent_cells_after_start_are_cast():
    text = hourly(["1e3", "2", "3", "4", "5E-3", "-6.5e+2", "7e0"])
    series = tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    assert series.values.tolist() == [4.0, 5e-3, -650.0, 7.0]


def test_unsorted_and_duplicate_rows_across_start():
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    stamps = [(t0 + timedelta(hours=h)).isoformat() for h in (5, 0, 1, 4, 2, 3, 4, 1, 6, 4)]
    text = "timestamp,kwh\n" + "\n".join(f"{s},{i}.25" for i, s in enumerate(stamps)) + "\n"
    for start in (AT_ROW_4, AT_ROW_4 - 1, AT_ROW_4 + 1, t0.timestamp()):
        assert_window_alike(text, HOURLY, start)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    assert series.duplicates_collapsed == 3
    assert series.values.tolist() == [5.25, (3.25 + 6.25 + 9.25) / 3, 0.25, 8.25]


def test_duplicate_count_covers_rows_before_start():
    text = hourly(["1", "2", "3", "4", "5", "6"]).replace("\n", "\n2020-01-01T00:00:00+00:00,9\n", 1)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    assert series.duplicates_collapsed == 1
    assert len(series) == 3


def test_cadence_check_covers_rows_before_start():
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    lines = [f"{(t0 + timedelta(hours=2 * i)).isoformat()},1" for i in range(9)]
    text = "timestamp,kwh\n" + "\n".join(lines) + "\n"
    start = (t0 + timedelta(hours=16)).timestamp()
    assert_window_alike(text, HOURLY, start)
    with pytest.raises(SchemaError, match="median spacing 7200.0s"):
        tsdata.parse_series_bytes(encode(text), HOURLY, start)


@pytest.mark.parametrize("day", [datetime(2020, 3, 8), datetime(2020, 3, 9), datetime(2020, 3, 7)])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_new_york_dst_day_at_start(day, newline):
    text = five_minute_channel(10).replace("\n", newline)  # 2020-03-01 on, DST on 03-08
    start = day.replace(tzinfo=NEW_YORK).timestamp()
    assert_window_alike(text, SCHEMA_5MIN, start)
    assert_window_alike("\ufeff" + text, SCHEMA_5MIN, start)
    series = tsdata.parse_series_bytes(encode(text), SCHEMA_5MIN, start)
    assert series.epochs[:2].tolist() == [start - 300, start]


def test_every_row_before_start_is_checked():
    """A start past the end returns the last row only but still checks every line."""
    lines = five_minute_channel(3).splitlines()
    assert len(tsdata.parse_series_bytes(encode("\n".join(lines)), SCHEMA_5MIN, 1e18)) == 1
    lines[700] = lines[700].split(",")[0] + ",1.2.3"
    with pytest.raises(ParseError) as e:
        tsdata.parse_series_bytes(encode("\n".join(lines)), SCHEMA_5MIN, 1e18)
    assert e.value.line_number == 701


# -- the anchor: the last present sample before start ------------------------------


def test_anchor_duplicates_average_as_in_the_full_parse():
    """The anchor's rows are cast, empty and non-canonical ones included."""
    text = hourly(["1.5", "2", "3", "0.1", "5", "6"]) + (
        "2020-01-01T03:00:00+00:00,0.7\n2020-01-01T03:00:00+00:00,\n"
        "2020-01-01T03:00:00Z,0.25\n2020-01-01T02:00:00+00:00,9\n")
    assert_window_alike(text, HOURLY, AT_ROW_4)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    full = tsdata.parse_series_bytes(encode(text), HOURLY)
    assert series.epochs[0] == AT_ROW_4 - 3600
    assert series.values[0] == full.values[3] == pytest.approx((0.1 + 0.7 + 0.25) / 3)
    assert series.duplicates_collapsed == 4


@pytest.mark.parametrize("block", [1, 2, 5])
def test_anchor_blocks_back_behind_a_blank_run(block, monkeypatch):
    """Two and a half blank days before and after ``start``: the run is
    filled from the same two samples as in the full parse."""
    text = hourly(["1.5", "2.25"] + [""] * 60 + ["7", "8"])
    start = datetime(2020, 1, 2, tzinfo=timezone.utc).timestamp()  # row 24
    monkeypatch.setattr(tsdata, "_PARSE_BLOCK", block)
    assert_window_alike(text, HOURLY, start)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, start)
    assert series.values[0] == 2.25 and len(series) == 63
    policy = GapFillPolicy(max_interior=60)
    windowed, _ = tsdata.fill_gaps(series, policy)
    full, _ = tsdata.fill_gaps(tsdata.parse_series_bytes(encode(text), HOURLY), policy)
    assert windowed.values[23:].tobytes() == full.values[24:].tobytes()


def test_non_canonical_anchor():
    text = hourly(["1.5", "2", "", "", "5", "6"]).replace(
        "2020-01-01T01:00:00+00:00,2", "2020-01-01T01:00:00Z,2.5")
    assert_window_alike(text, HOURLY, AT_ROW_4)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_4)
    assert series.values.tolist() == [2.5, 0.0, 0.0, 5.0, 6.0]
    assert series.missing.tolist() == [False, True, True, False, False]


@pytest.mark.parametrize("start", [AT_ROW_4, -np.inf])
def test_no_present_row_before_start_returns_every_row(start):
    text = hourly(["", "", "", "", "5", "6"])
    assert_window_alike(text, HOURLY, start)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, start)
    assert len(series) == 6 and series.missing[:4].all()


# -- last: the first present sample at or after end ---------------------------------


AT_ROW_2 = datetime(2020, 1, 1, 2, tzinfo=timezone.utc).timestamp()


def test_last_duplicates_average_as_in_the_full_parse():
    """The rows at ``last`` are cast, empty and non-canonical ones included."""
    text = hourly(["1.5", "2", "", "0.1", "5", "6"]) + (
        "2020-01-01T03:00:00+00:00,0.7\n2020-01-01T03:00:00+00:00,\n"
        "2020-01-01T03:00:00Z,0.25\n2020-01-01T04:00:00+00:00,9\n")
    assert_window_alike(text, HOURLY, None, AT_ROW_2)
    assert_window_alike(text, HOURLY, AT_ROW_2 - 3600, AT_ROW_2)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, None, AT_ROW_2)
    full = tsdata.parse_series_bytes(encode(text), HOURLY)
    assert series.epochs[-1] == AT_ROW_2 + 3600 and len(series) == 4
    assert series.values[-1] == full.values[3] == pytest.approx((0.1 + 0.7 + 0.25) / 3)
    assert series.duplicates_collapsed == 4


def test_non_canonical_last():
    text = hourly(["1.5", "2", "", "", "5", "6"]).replace(
        "2020-01-01T04:00:00+00:00,5", "2020-01-01T04:00:00Z,5.5")
    assert_window_alike(text, HOURLY, None, AT_ROW_2)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, None, AT_ROW_2)
    assert series.values.tolist() == [1.5, 2.0, 0.0, 0.0, 5.5]
    assert series.missing.tolist() == [False, False, True, True, False]


@pytest.mark.parametrize("end", [AT_ROW_2, AT_ROW_4 + 3600, np.inf])
def test_no_present_row_at_or_after_end_returns_every_row(end):
    text = hourly(["1", "2", "", "", "", ""])
    assert_window_alike(text, HOURLY, None, end)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, None, end)
    assert len(series) == 6 and series.missing[2:].all()


@pytest.mark.parametrize("block", [1, 2, 5])
def test_last_bounds_a_blank_run_across_end(block, monkeypatch):
    """Two and a half blank days before and after ``end``: the run is
    filled from the same two samples as in the full parse."""
    text = hourly(["1.5", "2.25"] + [""] * 60 + ["7", "8", "9"])
    end = datetime(2020, 1, 2, tzinfo=timezone.utc).timestamp()  # row 24
    monkeypatch.setattr(tsdata, "_PARSE_BLOCK", block)
    assert_window_alike(text, HOURLY, None, end)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, None, end)
    assert series.values[-1] == 7.0 and len(series) == 63
    policy = GapFillPolicy(max_interior=60)
    windowed, _ = tsdata.fill_gaps(series, policy)
    full, _ = tsdata.fill_gaps(tsdata.parse_series_bytes(encode(text), HOURLY), policy)
    assert windowed.values.tobytes() == full.values[:63].tobytes()
    # longer than max_interior, the run stays missing in both
    windowed, _ = tsdata.fill_gaps(series)
    full, _ = tsdata.fill_gaps(tsdata.parse_series_bytes(encode(text), HOURLY))
    assert windowed.missing.tobytes() == full.missing[:63].tobytes()
    assert windowed.missing[2:62].all()


def test_exponent_cells_after_end_are_cast():
    """A skipped exponent cell could read as present; cast, 1e400 is missing."""
    text = hourly(["1", "2", "3", "1e400", "5E-1", "1e2", "7"])
    assert_window_alike(text, HOURLY, None, AT_ROW_2 + 3600)
    series = tsdata.parse_series_bytes(encode(text), HOURLY, None, AT_ROW_2 + 3600)
    assert series.values.tolist() == [1.0, 2.0, 3.0, 0.0, 0.5]
    assert series.missing.tolist() == [False, False, False, True, False]


@pytest.mark.parametrize("line, want", [
    ("2020-01-01T05:00:00+00:00,1.2.3", "unparseable value '1.2.3'"),
    ("2020-01-01T05:00:00+00:00,+-1", "unparseable value '+-1'"),
    ("2020-01-01T25:00:00+00:00,5", "unparseable timestamp '2020-01-01T25:00:00+00:00'"),
    ("2020-01-01T05:00:00+00:00,5,6", "expected 2 fields, got 3"),
])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_malformed_line_after_end_raises_at_its_line(line, want, newline):
    text = hourly(["1.5", "2", "2.5", "3", "3.5", "4", "4.5"]).replace(
        "2020-01-01T05:00:00+00:00,4", line).replace("\n", newline)
    assert_window_alike(text, HOURLY, AT_ROW_2, AT_ROW_2 + 3600)
    with pytest.raises(ParseError) as e:
        tsdata.parse_series_bytes(encode(text), HOURLY, AT_ROW_2, AT_ROW_2 + 3600)
    assert e.value.line_number == 7
    assert want in str(e.value)


def test_every_row_after_end_is_checked():
    """An end before the data returns the rows up to the first present one (the
    first row is empty) but still checks every line."""
    lines = five_minute_channel(3).splitlines()
    assert len(tsdata.parse_series_bytes(encode("\n".join(lines)), SCHEMA_5MIN, None, -1e18)) == 2
    lines[700] = lines[700].split(",")[0] + ",1.2.3"
    with pytest.raises(ParseError) as e:
        tsdata.parse_series_bytes(encode("\n".join(lines)), SCHEMA_5MIN, None, -1e18)
    assert e.value.line_number == 701


@pytest.mark.parametrize("day", [datetime(2020, 3, 8), datetime(2020, 3, 9)])
def test_new_york_dst_days_at_both_ends(day):
    text = five_minute_channel(10)  # 2020-03-01 on, DST on 03-08
    start = datetime(2020, 3, 3).replace(tzinfo=NEW_YORK).timestamp()
    end = day.replace(tzinfo=NEW_YORK).timestamp()
    assert_window_alike(text, SCHEMA_5MIN, start, end)
    series = tsdata.parse_series_bytes(encode(text), SCHEMA_5MIN, start, end)
    assert series.epochs[[0, 1, -2, -1]].tolist() == [start - 300, start, end - 300, end]


# -- the plain-decimal rule -------------------------------------------------------


def classes(strings):
    """_cell_classes of byte strings, as lists."""
    width = np.array([len(s) for s in strings])
    cells = np.zeros((len(strings), max(width.max(initial=0), 1)), dtype=np.uint8)
    for row, s in zip(cells, strings):
        row[:len(s)] = list(s)
    numeric, plain = tsdata._cell_classes(cells, width)
    return numeric.tolist(), plain.tolist()


def float_accepts(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def test_plain_rule_exhaustively_over_short_cells():
    strings = [""] + ["".join(p) for n in range(1, 5) for p in itertools.product("1+-.e", repeat=n)]
    numeric, plain = classes([s.encode() for s in strings])
    for s, is_numeric, is_plain in zip(strings, numeric, plain):
        assert is_numeric == (s != "")
        assert is_plain == bool(PLAIN.fullmatch(s)), s
        assert not is_plain or float_accepts(s), s
    assert sum(plain) == sum(1 for s in strings if float_accepts(s) and "e" not in s)


@settings(deadline=None, max_examples=500)
@given(st.text("0123456789+-.eE", min_size=1, max_size=tsdata._VALUE_WIDTH))
@example("+.5")
@example("-5.")
@example("1e5")
def test_plain_rule_against_float(s):
    numeric, plain = classes([s.encode()])
    assert numeric == [True]
    assert plain[0] == bool(PLAIN.fullmatch(s))
    assert not plain[0] or float_accepts(s)


@pytest.mark.parametrize("s", [" 1", "1 ", "1_0", "0x1", "1\x00", "١", "nan", "inf", "1,5"])
def test_other_bytes_are_not_numeric(s):
    assert classes([s.encode()]) == ([False], [False])


@settings(deadline=None, max_examples=500)
@given(st.lists(st.text("0123456789+-.eE", max_size=8), min_size=1, max_size=6))
def test_skipping_never_hides_a_malformed_cell(strings):
    """Skipped or not, a block of cells is accepted alike, and every cell
    cast under ``skip`` keeps its value."""
    data = ",".join(strings).encode() + b"\0" * 8
    width = np.array([len(s) for s in strings])
    first = np.cumsum(np.r_[0, width[:-1] + 1])
    buf = np.frombuffer(data, dtype=np.uint8)
    ok, values, missing = tsdata._cell_values(buf, first, width, np.zeros(len(strings), bool))
    ok_skip, values_skip, missing_skip = tsdata._cell_values(buf, first, width, np.ones(len(strings), bool))
    assert ok_skip.tolist() == ok.tolist()
    assert ok.all() == all(s == "" or float_accepts(s) for s in strings)
    if ok.all():
        _, plain = classes([s.encode() for s in strings])
        cast = ~np.array(plain)
        assert values_skip[cast].tobytes() == values[cast].tobytes()
        assert not values_skip[~cast].any() and not missing_skip[~cast].any()
