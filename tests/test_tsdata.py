import os
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normbase import tsdata
from normbase.errors import (
    DataError,
    EmptyInputError,
    NoOverlapError,
    ParseError,
    SchemaError,
    UnfillableChannelError,
)

UTC_SCHEMA = tsdata.SeriesSchema("drybulb_c", "degC", "UTC", 3600)


def hourly_csv(values, start="2020-01-01T00:00:00+00:00", channel="drybulb_c"):
    t0 = datetime.fromisoformat(start)
    lines = [f"timestamp,{channel}"]
    for i, v in enumerate(values):
        ts = (t0 + timedelta(hours=i)).isoformat()
        lines.append(f"{ts},{v}" if v is not None else f"{ts},")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_basic(self):
        s = tsdata.parse_series(hourly_csv([1.5, 2.5, 3.5]), UTC_SCHEMA)
        assert len(s) == 3
        assert s.values.tolist() == [1.5, 2.5, 3.5]
        assert not s.missing.any()

    def test_header_mismatch(self):
        text = hourly_csv([1.0, 2.0, 3.0], channel="windspeed_ms")
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "UTC", 3600)
        with pytest.raises(SchemaError):
            tsdata.parse_series(text, schema)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            tsdata.parse_series("time,value\n2020-01-01T00:00:00Z,1\n", UTC_SCHEMA)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            tsdata.parse_series("", UTC_SCHEMA)
        with pytest.raises(EmptyInputError):
            tsdata.parse_series("timestamp,drybulb_c\n", UTC_SCHEMA)

    def test_unparseable_value_has_line_number(self):
        text = hourly_csv([1.0, "oops", 3.0])
        with pytest.raises(ParseError) as exc:
            tsdata.parse_series(text, UTC_SCHEMA)
        assert exc.value.line_number == 3

    def test_unparseable_timestamp(self):
        text = "timestamp,drybulb_c\nnot-a-date,1.0\n"
        with pytest.raises(ParseError):
            tsdata.parse_series(text, UTC_SCHEMA)

    def test_empty_and_nan_cells_become_missing(self):
        text = hourly_csv([1.0, None, "nan", 4.0])
        s = tsdata.parse_series(text, UTC_SCHEMA)
        assert s.missing.tolist() == [False, True, True, False]

    def test_rows_sorted(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T02:00:00+00:00,3.0",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,2.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_duplicates_collapse_to_mean(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,10.0",
            "2020-01-01T01:00:00+00:00,20.0",
            "2020-01-01T02:00:00+00:00,3.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values.tolist() == [1.0, 15.0, 3.0]
        assert s.duplicates_collapsed == 1

    def test_duplicate_with_missing_keeps_present(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,",
            "2020-01-01T01:00:00+00:00,20.0",
            "2020-01-01T02:00:00+00:00,3.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values[1] == 20.0
        assert not s.missing[1]

    def test_cadence_mismatch(self):
        text = hourly_csv([1.0, 2.0, 3.0, 4.0])
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "UTC", 120)
        with pytest.raises(SchemaError):
            tsdata.parse_series(text, schema)

    def test_zulu_suffix(self):
        text = "timestamp,drybulb_c\n2020-01-01T00:00:00Z,1.0\n2020-01-01T01:00:00Z,2.0\n"
        s = tsdata.parse_series(text, UTC_SCHEMA)
        assert s.epochs[0] == datetime(2020, 1, 1, tzinfo=timezone.utc).timestamp()

    def test_naive_timestamps_use_schema_zone(self):
        text = "timestamp,drybulb_c\n2020-01-01T00:00:00,1.0\n2020-01-01T01:00:00,2.0\n"
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "+02:00", 3600)
        s = tsdata.parse_series(text, schema)
        expect = datetime.fromisoformat("2020-01-01T00:00:00+02:00").timestamp()
        assert s.epochs[0] == expect

    def test_unit_must_match_channel(self):
        with pytest.raises(SchemaError):
            tsdata.SeriesSchema("drybulb_c", "kWh", "UTC", 3600)

    def test_duplicate_group_of_three_averages_present_rows(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,2.0",
            "2020-01-01T01:00:00+00:00,",
            "2020-01-01T01:00:00+00:00,7.0",
            "2020-01-01T02:00:00+00:00,3.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values.tolist() == [1.0, 4.5, 3.0]
        assert s.missing.tolist() == [False, False, False]
        assert s.duplicates_collapsed == 2

    def test_duplicate_group_all_missing_stays_missing(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,",
            "2020-01-01T01:00:00+00:00,nan",
            "2020-01-01T02:00:00+00:00,3.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.missing.tolist() == [False, True, False]
        assert s.values.tolist() == [1.0, 0.0, 3.0]
        assert s.duplicates_collapsed == 1

    def test_duplicate_groups_at_both_ends(self):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T03:00:00+00:00,9.0",
            "2020-01-01T00:00:00+00:00,1.0",
            "2020-01-01T01:00:00+00:00,5.0",
            "2020-01-01T00:00:00+00:00,2.0",
            "2020-01-01T02:00:00+00:00,6.0",
            "2020-01-01T03:00:00+00:00,",
            "2020-01-01T03:00:00+00:00,12.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values.tolist() == [1.5, 5.0, 6.0, 10.5]
        assert not s.missing.any()
        assert s.duplicates_collapsed == 3

    @pytest.mark.parametrize("big, copies", [
        (1e308, 2), (1.7976931348623157e308, 3), (-1.7976931348623157e308, 3),
    ])
    def test_duplicates_whose_sum_overflows_collapse_to_their_mean(self, big, copies):
        lines = [
            "timestamp,drybulb_c",
            "2020-01-01T00:00:00+00:00,1.0",
            *[f"2020-01-01T01:00:00+00:00,{big!r}"] * copies,
            "2020-01-01T02:00:00+00:00,3.0",
        ]
        s = tsdata.parse_series("\n".join(lines), UTC_SCHEMA)
        assert s.values.tolist() == [1.0, big, 3.0]
        assert s.duplicates_collapsed == copies - 1

    def test_naive_timestamps_across_the_autumn_fold(self):
        # 01:30 occurs twice on 2020-11-01 in New York; naive rows take the
        # first (EDT) reading, fold=0
        walls = ["00:00", "01:00", "01:30", "02:00", "03:00"]
        text = "timestamp,drybulb_c\n" + "".join(
            f"2020-11-01T{w}:00,{i}\n" for i, w in enumerate(walls)
        )
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "America/New_York", 3600)
        s = tsdata.parse_series(text, schema)
        utc = ["04:00", "05:00", "05:30", "07:00", "08:00"]
        expect = [datetime.fromisoformat(f"2020-11-01T{u}:00+00:00").timestamp() for u in utc]
        assert s.epochs.tolist() == expect

    def test_naive_timestamp_in_the_spring_gap(self):
        # 02:30 does not exist on 2020-03-08 in New York; fold=0 reads it
        # with the EST offset, as 07:30 UTC
        walls = ["2020-03-07T23:00", "2020-03-08T00:00", "2020-03-08T01:00",
                 "2020-03-08T02:30", "2020-03-08T03:00"]
        text = "timestamp,drybulb_c\n" + "".join(f"{w}:00,1.0\n" for w in walls)
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "America/New_York", 3600)
        s = tsdata.parse_series(text, schema)
        utc = ["04:00", "05:00", "06:00", "07:00", "07:30"]
        expect = [datetime.fromisoformat(f"2020-03-08T{u}:00+00:00").timestamp() for u in utc]
        assert s.epochs.tolist() == expect

    def test_crlf_parses_like_lf(self):
        text = hourly_csv([1.5, None, "nan", 4.25, 1e-300])
        lf = tsdata.parse_series(text, UTC_SCHEMA)
        crlf = tsdata.parse_series(text.replace("\n", "\r\n"), UTC_SCHEMA)
        assert crlf.missing.tolist() == [False, True, True, False, False]
        for a, b in [(lf.epochs, crlf.epochs), (lf.values, crlf.values), (lf.missing, crlf.missing)]:
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "stamp",
        [
            "2019-02-29T00:00:00+00:00",
            "2020-01-01T24:00:00+00:00",
            "2020-01-01T00:00:60+00:00",
            "2020-01-01T00:00:00+24:00",
        ],
    )
    def test_out_of_range_timestamp_has_line_number(self, stamp):
        text = f"timestamp,drybulb_c\n2019-01-01T00:00:00+00:00,1.0\n{stamp},2.0\n"
        with pytest.raises(ParseError, match="unparseable timestamp") as exc:
            tsdata.parse_series(text, UTC_SCHEMA)
        assert exc.value.line_number == 3


@pytest.mark.parametrize("line, column", [
    (b"2020-01-01T01:00:00+00:00,\xff2.0", 26),  # a value cell
    (b"2020-01-01T01:00:00+00:0\xc30,2.0", 24),  # a timestamp, a two-byte lead alone
])
def test_bad_utf8_in_a_row_is_a_parse_error_naming_its_line(line, column):
    data = hourly_csv([1.0]).encode() + line + b"\n" + b"2020-01-01T02:00:00+00:00,x\n"
    with pytest.raises(ParseError) as e:
        tsdata.parse_series_bytes(data, UTC_SCHEMA)
    assert str(e.value) == f"line 3: not UTF-8: bad byte at offset {column} of the line"
    # lines are read in order: a malformed line before it raises first
    with pytest.raises(ParseError, match="^line 2: unparseable value 'oops'$"):
        tsdata.parse_series_bytes(hourly_csv(["oops"]).encode() + line + b"\n", UTC_SCHEMA)


def test_bad_utf8_in_the_header_is_a_parse_error_on_line_1():
    data = hourly_csv([1.0, 2.0, 3.0]).encode().replace(b"drybulb_c", b"drybulb\x80c", 1)
    with pytest.raises(ParseError, match="^line 1: not UTF-8: bad byte at offset 17 of the line$"):
        tsdata.parse_series_bytes(data, UTC_SCHEMA)


def test_multi_byte_whitespace_around_cells_parses():
    """U+3000 after the header's channel, U+00A0 after values and a line of
    U+2003 alone: UTF-8 that the vector pass leaves to the row-by-row parser."""
    text = hourly_csv([1.5, 2.5, None])
    plain = tsdata.parse_series_bytes(text.encode(), UTC_SCHEMA)
    lines = text.splitlines()
    lines[0] += "\u3000"
    lines[1:3] = [line + "\u00a0" for line in lines[1:3]]
    lines.insert(3, "\u2003")
    spaced = tsdata.parse_series_bytes(("\n".join(lines) + "\n").encode(), UTC_SCHEMA)
    for name in ("epochs", "values", "missing"):
        assert getattr(spaced, name).tobytes() == getattr(plain, name).tobytes()


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_any_non_utf8_byte_is_a_parse_error(data):
    text = hourly_csv([1.5, None, 3.25, 4.0]).encode()
    if data.draw(st.booleans()):
        text = text.replace(b"\n", b"\r\n")
    at = data.draw(st.integers(0, len(text)))
    byte = bytes([data.draw(st.integers(0x80, 0xFF))])
    with pytest.raises(ParseError) as e:  # never a UnicodeDecodeError
        tsdata.parse_series_bytes(text[:at] + byte + text[at:], UTC_SCHEMA)
    # a byte put between "\r" and "\n" leaves a lone "\r", which ends a line
    assert e.value.line_number == text[:at].count(b"\n") + text[:at].endswith(b"\r") + 1


def test_serialize_parse_round_trip():
    s = tsdata.parse_series(hourly_csv([1.25, None, 3.75]), UTC_SCHEMA)
    text = tsdata.serialize_series(s)
    s2 = tsdata.parse_series(text, UTC_SCHEMA)
    assert s2.epochs.tolist() == s.epochs.tolist()
    assert s2.missing.tolist() == s.missing.tolist()
    assert s2.values[~s2.missing].tolist() == s.values[~s.missing].tolist()


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.one_of(st.none(), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
        min_size=1,
        max_size=50,
    )
)
def test_round_trip_property(values):
    s = tsdata.parse_series(hourly_csv(values), UTC_SCHEMA)
    s2 = tsdata.parse_series(tsdata.serialize_series(s), UTC_SCHEMA)
    np.testing.assert_array_equal(s.epochs, s2.epochs)
    np.testing.assert_array_equal(s.missing, s2.missing)
    np.testing.assert_array_equal(s.values[~s.missing], s2.values[~s2.missing])


@pytest.mark.parametrize("steps", [
    [300.0],  # odd
    [300.0, 600.0],  # even
    [300.0, 300.0, 300.0, 3600.0, 300.0, 300.0],  # tied middle pair
    [900.0, 300.0, 3600.0, 600.0, 1.5],  # unsorted
    [3600.0, 7200.0, 1800.0, 5400.0],  # unsorted, even
])
def test_cadence_median_matches_np_median(steps):
    x = np.array(steps)
    assert tsdata._median(x) == float(np.median(x))
    assert tsdata._median(x[::-1].copy()) == float(np.median(x))


def test_ingest_leaves_numpy_ma_unimported(tmp_path):
    """np.median and np.unique import numpy.ma on first use, which each fresh
    ingest worker would pay for; parsing and resampling a file use neither."""
    (tmp_path / "s.csv").write_text(hourly_csv([1.0, 2.0, 4.0] * 20))
    script = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.ma' in sys.modules  # NumPy before 2.0 imports it with numpy\n"
        "from normbase import tsdata\n"
        "schema = tsdata.SeriesSchema('drybulb_c', 'degC', 'UTC', 3600)\n"
        "series = tsdata.parse_series_bytes(open(sys.argv[1], 'rb').read(), schema)\n"
        "tsdata.resample_daily(series, 'mean')\n"
        "print(eager or 'numpy.ma' not in sys.modules)\n"
    )
    src = str(Path(tsdata.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.csv")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "True\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_series_rejects_non_finite_epochs(bad):
    # NaN passes the order check, np.diff(epochs) <= 0, and resample_daily
    # then dropped the day's samples after it
    with pytest.raises(DataError, match="^timestamps must be finite$"):
        tsdata.RawSeries("kwh", "kWh", 3600, "UTC", [0, bad, 7200], [1, 2, 3], [False] * 3)


class TestGapFill:
    def series(self, values):
        return tsdata.parse_series(hourly_csv(values), UTC_SCHEMA)

    def test_single_interior_gap_is_neighbor_mean(self):
        filled, report = tsdata.fill_gaps(self.series([1.0, None, 5.0]))
        assert filled.values[1] == 3.0  # equal spacing -> exact midpoint
        assert not filled.missing.any()
        assert report.count("interpolated") == 1

    def test_interpolation_is_proportional(self):
        filled, _ = tsdata.fill_gaps(self.series([0.0, None, None, 9.0]))
        assert filled.values[1] == 3.0
        assert filled.values[2] == 6.0

    def test_interior_run_longer_than_limit_left_unfilled(self):
        vals = [1.0] + [None] * 3 + [5.0]
        filled, report = tsdata.fill_gaps(
            self.series(vals), tsdata.GapFillPolicy(max_interior=2, max_edge=0)
        )
        assert filled.missing[1:4].all()
        assert report.count("left-unfilled") == 1

    def test_edge_hold(self):
        filled, report = tsdata.fill_gaps(self.series([None, None, 7.0, 8.0, None]))
        assert filled.values[0] == 7.0 and filled.values[1] == 7.0
        assert filled.values[4] == 8.0
        assert report.count("edge-hold") == 2

    def test_edge_longer_than_limit(self):
        vals = [None] * 6 + [7.0, 8.0]
        filled, report = tsdata.fill_gaps(
            self.series(vals), tsdata.GapFillPolicy(max_interior=30, max_edge=5)
        )
        assert filled.missing[:6].all()
        assert report.count("left-unfilled") == 1

    def test_all_missing_raises(self):
        with pytest.raises(UnfillableChannelError):
            tsdata.fill_gaps(self.series([None, None, None]))

    def test_idempotent(self):
        filled, _ = tsdata.fill_gaps(self.series([1.0, None, 5.0, None, None]))
        again, report = tsdata.fill_gaps(filled)
        np.testing.assert_array_equal(filled.values, again.values)
        assert report.count() == 0

    def test_records_carry_positions(self):
        _, report = tsdata.fill_gaps(self.series([1.0, None, None, 4.0]))
        (rec,) = report.records
        assert rec.start_index == 1 and rec.length == 2
        assert rec.method == "interpolated"


class TestResample:
    def day_series(self, n_hours, value=1.0, start="2020-03-01T00:00:00+00:00"):
        return tsdata.parse_series(hourly_csv([value] * n_hours, start=start), UTC_SCHEMA)

    def test_sum_and_mean(self):
        s = self.day_series(48, 2.0)
        daily_sum = tsdata.resample_daily(s, "sum")
        daily_mean = tsdata.resample_daily(s, "mean")
        assert daily_sum.values.tolist() == [48.0, 48.0]
        assert daily_mean.values.tolist() == [2.0, 2.0]
        assert daily_sum.dates == [date(2020, 3, 1), date(2020, 3, 2)]

    def test_coverage_threshold(self):
        # 21/24 hours = 0.875 coverage -> below the 0.9 cut, day dropped
        s = self.day_series(21)
        d = tsdata.resample_daily(s, "mean")
        assert d.missing[0]
        assert d.coverage[0] == pytest.approx(21 / 24)

    def test_exactly_at_threshold_is_valid(self):
        vals = [1.0] * 24
        s = tsdata.parse_series(hourly_csv(vals), UTC_SCHEMA)
        # knock out 2 values -> 22/24 ≈ 0.917 valid; 0.9 boundary is inclusive
        vals[0] = None
        vals[1] = None
        s = tsdata.parse_series(hourly_csv(vals), UTC_SCHEMA)
        d = tsdata.resample_daily(s, "mean")
        assert not d.missing[0]

    def test_missing_samples_excluded_from_aggregate(self):
        vals = [2.0] * 24
        vals[3] = None
        s = tsdata.parse_series(hourly_csv(vals), UTC_SCHEMA)
        d = tsdata.resample_daily(s, "mean")
        assert d.values[0] == 2.0

    def test_unknown_aggregation(self):
        from normbase.errors import ConfigError

        with pytest.raises(ConfigError):
            tsdata.resample_daily(self.day_series(24), "median")

    def test_dst_day_bucketing(self):
        # America/New_York 2020-03-08 has only 23 local hours
        t0 = datetime.fromisoformat("2020-03-07T00:00:00-05:00")
        lines = ["timestamp,drybulb_c"]
        t = t0
        end = datetime.fromisoformat("2020-03-10T00:00:00-04:00")
        while t < end:
            lines.append(f"{t.isoformat()},1.0")
            t += timedelta(hours=1)
        schema = tsdata.SeriesSchema("drybulb_c", "degC", "America/New_York", 3600)
        s = tsdata.parse_series("\n".join(lines), schema)
        d = tsdata.resample_daily(s, "mean")
        i = d.dates.index(date(2020, 3, 8))
        assert d.coverage[i] == pytest.approx(23 / 24)
        assert not d.missing[i]  # 23/24 is still over the threshold

    @pytest.mark.parametrize("start, zone, day", [
        ("0001-01-01T00:00:00+00:00", "UTC", date(1, 1, 1)),
        ("9999-12-30T00:00:00+00:00", "UTC", date(9999, 12, 30)),
        # instants whose UTC date is not a date, on local days that are
        ("0001-01-01T00:00:00+09:00", "Asia/Tokyo", date(1, 1, 1)),
        ("9999-12-30T00:00:00-05:00", "America/New_York", date(9999, 12, 30)),
    ])
    def test_first_and_last_days_of_the_calendar(self, start, zone, day):
        schema = tsdata.SeriesSchema("drybulb_c", "degC", zone, 3600)
        s = tsdata.parse_series(hourly_csv([2.0, None] + [2.0] * 22, start), schema)
        filled, gaps = tsdata.fill_gaps(s, tsdata.GapFillPolicy())
        assert gaps.records[0].start - datetime.fromisoformat(start) == timedelta(hours=1)
        assert gaps.records[0].start.date() == day
        d = tsdata.resample_daily(filled, "mean")
        assert d.dates == [day]
        assert d.values.tolist() == [2.0]

    @pytest.mark.parametrize("start, zone", [
        ("9999-12-31T00:00:00+00:00", "UTC"),
        ("9999-12-30T00:00:00+00:00", "Asia/Tokyo"),
        ("0001-01-01T00:00:00+00:00", "America/New_York"),
    ])
    def test_day_outside_the_calendar_is_a_data_error(self, start, zone):
        schema = tsdata.SeriesSchema("drybulb_c", "degC", zone, 3600)
        s = tsdata.parse_series(hourly_csv([2.0, None] + [2.0] * 22, start), schema)
        message = "^drybulb_c: samples fall on local days outside 0001-01-01..9999-12-30$"
        with pytest.raises(DataError, match=message):
            tsdata.fill_gaps(s, tsdata.GapFillPolicy())
        with pytest.raises(DataError, match=message):
            tsdata.resample_daily(s, "mean")


class TestAlign:
    def daily(self, channel, start, values):
        dates = [start + timedelta(days=i) for i in range(len(values))]
        vals = np.array([0.0 if v is None else v for v in values])
        missing = np.array([v is None for v in values])
        return tsdata.DailySeries(channel, dates, vals, missing, np.ones(len(values)))

    def test_inner_join(self):
        e = self.daily("kwh", date(2020, 1, 1), [10.0, 11.0, 12.0])
        w = self.daily("drybulb_c", date(2020, 1, 2), [5.0, 6.0, 7.0])
        t = tsdata.align(e, {"drybulb_c": w})
        assert t.dates == [date(2020, 1, 2), date(2020, 1, 3)]
        assert t.energy.tolist() == [11.0, 12.0]
        assert t.weather["drybulb_c"].tolist() == [5.0, 6.0]

    def test_missing_flags_propagate_to_excluded(self):
        e = self.daily("kwh", date(2020, 1, 1), [10.0, None, 12.0])
        w = self.daily("drybulb_c", date(2020, 1, 1), [5.0, 6.0, None])
        t = tsdata.align(e, {"drybulb_c": w})
        assert t.excluded.tolist() == [False, True, True]
        assert t.n_excluded == 2

    def test_no_overlap(self):
        e = self.daily("kwh", date(2020, 1, 1), [10.0])
        w = self.daily("drybulb_c", date(2021, 1, 1), [5.0])
        with pytest.raises(NoOverlapError):
            tsdata.align(e, {"drybulb_c": w})

    def test_negative_energy_rejected(self):
        e = self.daily("kwh", date(2020, 1, 1), [10.0, -1.0])
        w = self.daily("drybulb_c", date(2020, 1, 1), [5.0, 6.0])
        with pytest.raises(DataError):
            tsdata.align(e, {"drybulb_c": w})

    def test_date_range_filter(self):
        e = self.daily("kwh", date(2020, 1, 1), [1.0, 2.0, 3.0, 4.0])
        w = self.daily("drybulb_c", date(2020, 1, 1), [5.0, 6.0, 7.0, 8.0])
        t = tsdata.align(e, {"drybulb_c": w}, date_range=(date(2020, 1, 2), date(2020, 1, 3)))
        assert t.dates == [date(2020, 1, 2), date(2020, 1, 3)]


class TestTimezones:
    def test_utc_and_offsets(self):
        assert tsdata.resolve_timezone("UTC") is not None
        assert tsdata.resolve_timezone("+05:30").utcoffset(None) == timedelta(hours=5, minutes=30)
        assert tsdata.resolve_timezone("-07:00").utcoffset(None) == timedelta(hours=-7)

    def test_iana(self):
        tz = tsdata.resolve_timezone("Europe/Berlin")
        assert tz is not None

    def test_unknown_zone(self):
        from normbase.errors import ConfigError

        with pytest.raises(ConfigError):
            tsdata.resolve_timezone("Mars/Olympus_Mons")
