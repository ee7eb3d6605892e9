"""tsdata.parse_series against the row-by-row parser it replaced.

``reference_parse_series`` is the earlier ``tsdata.parse_series``, kept
verbatim as the oracle except for two changes both share: duplicate rows
whose values overflow np.mean's sum collapse to their mean, not to inf, and
lines end at "\\n", "\\r\\n" or a lone "\\r" (universal newlines), not at
every break ``str.splitlines()`` knows. For every drawn CSV text the two
must return bit-identical series, or raise the same exception with the same
message and line number. That holds also with the parse's blocks cut down to
a few lines, and ``parse_series_bytes`` must agree with ``parse_series`` on
the encoded text.
"""

import logging
import math
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase import tsdata
from normbase.errors import EmptyInputError, ParseError, SchemaError
from normbase.tsdata import CADENCE_TOLERANCE, RawSeries, SeriesSchema, resolve_timezone

log = logging.getLogger(__name__)


# -- oracle: the row-by-row parser, unchanged -------------------------------


def _parse_timestamp(text: str, tz, line_number: int) -> float:
    s = text.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        raise ParseError(f"unparseable timestamp {text.strip()!r}", line_number)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=tz)
    return dt.timestamp()


def _finite_mean(x):
    # np.mean, and where its sum overflows the mean of x / max|x| scaled back
    with np.errstate(over="ignore"):
        mean = np.mean(x)
    if np.isfinite(mean):
        return float(mean)
    scale = np.max(np.abs(x))
    return float(np.mean(x / scale) * scale)


def reference_parse_series(text: str, schema: SeriesSchema) -> RawSeries:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":  # nothing follows the last line end, as splitlines() drops it
        lines.pop()
    if not lines:
        raise EmptyInputError(f"{schema.channel}: input is empty")

    header = [h.strip() for h in lines[0].split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError(f"expected header 'timestamp,<channel>', got {lines[0]!r}", 1)
    if header[1] != schema.channel:
        raise SchemaError(
            f"file carries channel {header[1]!r}, schema declares {schema.channel!r}"
        )

    tz = resolve_timezone(schema.timezone)
    epochs, values, missing = [], [], []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line_number)
        epochs.append(_parse_timestamp(parts[0], tz, line_number))
        raw = parts[1].strip()
        if raw == "":
            values.append(0.0)
            missing.append(True)
            continue
        try:
            v = float(raw)
        except ValueError:
            raise ParseError(f"unparseable value {raw!r}", line_number)
        if math.isfinite(v):
            values.append(v)
            missing.append(False)
        else:
            values.append(0.0)
            missing.append(True)

    if not epochs:
        raise EmptyInputError(f"{schema.channel}: no data rows")

    e = np.array(epochs)
    v = np.array(values)
    m = np.array(missing, dtype=bool)
    order = np.argsort(e, kind="stable")
    e, v, m = e[order], v[order], m[order]

    dupes = 0
    if e.size > 1 and np.any(np.diff(e) == 0):
        # Collapse runs of equal timestamps to the mean of present values.
        uniq, start = np.unique(e, return_index=True)
        out_v = np.zeros(uniq.size)
        out_m = np.zeros(uniq.size, dtype=bool)
        bounds = np.append(start, e.size)
        for i in range(uniq.size):
            seg = slice(bounds[i], bounds[i + 1])
            present = ~m[seg]
            if np.any(present):
                out_v[i] = _finite_mean(v[seg][present])
            else:
                out_m[i] = True
        dupes = int(e.size - uniq.size)
        log.warning("%s: collapsed %d duplicate timestamp rows", schema.channel, dupes)
        e, v, m = uniq, out_v, out_m

    if e.size >= 3:
        spacing = float(np.median(np.diff(e)))
        if abs(spacing - schema.interval_seconds) > CADENCE_TOLERANCE * schema.interval_seconds:
            raise SchemaError(
                f"{schema.channel}: median spacing {spacing:.1f}s inconsistent "
                f"with declared interval {schema.interval_seconds}s"
            )

    return RawSeries(
        channel=schema.channel,
        unit=schema.unit,
        interval_seconds=schema.interval_seconds,
        tz=schema.timezone,
        epochs=e,
        values=v,
        missing=m,
        duplicates_collapsed=dupes,
    )


# -- drawn CSV texts ---------------------------------------------------------

ZONES = ("UTC", "+05:30", "America/New_York")
# hourly grids through a DST fold, a DST gap, leap days and the epoch
GRID_STARTS = (
    datetime(2020, 11, 1, 2, tzinfo=timezone.utc),
    datetime(2020, 3, 8, 4, tzinfo=timezone.utc),
    datetime(2020, 2, 28, 12, tzinfo=timezone.utc),
    datetime(2019, 2, 28, 12, tzinfo=timezone.utc),
    datetime(1969, 12, 31, 20, tzinfo=timezone.utc),
)

VALUE_WORDS = (
    "", " ", "\t", "nan", "NaN", "inf", "-inf", "Infinity", "1_0", "abc",
    "1e400", "-1e400", "1e-400", "1e", "+.5", ".5", "5.", "-0", "+0.0", " 1.5",
    "1.5 ", "1E5", "1e+05", "0x10", "1..2", "--1", "1-2", "+-1", "e5", ".",
    "1\x002", "12\x00", "4.9e-324", "9007199254740993", "1" * 40,
    "0.1000000000000000055511151231257827",
)


def _offset(total_minutes):
    sign = "-" if total_minutes < 0 else "+"
    hh, mm = divmod(abs(total_minutes), 60)
    return f"{sign}{hh:02d}:{mm:02d}"


PARSEABLE_STAMPS = ["canonical"] * 6 + ["zulu", "lower_z", "naive", "fraction", "space"]
ANY_STAMP = PARSEABLE_STAMPS + ["offset", "fields", "garbage"]


@st.composite
def stamps(draw, tz, start, kinds):
    """One timestamp cell on the hourly grid from ``start``, in many spellings."""
    instant = start + timedelta(hours=draw(st.integers(0, 30)))
    local = instant.astimezone(tz)
    kind = draw(st.sampled_from(kinds))
    if kind == "canonical":
        return local.isoformat()
    if kind == "zulu":
        return instant.replace(tzinfo=None).isoformat() + "Z"
    if kind == "lower_z":
        return instant.replace(tzinfo=None).isoformat() + "z"
    if kind == "naive":
        return local.replace(tzinfo=None).isoformat()
    if kind == "fraction":
        return local.replace(microsecond=draw(st.sampled_from([1, 500, 500000]))).isoformat()
    if kind == "space":
        return local.isoformat(sep=" ")
    if kind == "offset":
        minutes = draw(st.integers(-25 * 60, 25 * 60))
        return local.replace(tzinfo=None).isoformat() + _offset(minutes)
    if kind == "fields":  # every field drawn, in range or not
        y = draw(st.sampled_from([0, 1, 4, 100, 1900, 1970, 2000, 2019, 2020, 9999]))
        mo, d = draw(st.integers(0, 13)), draw(st.integers(0, 32))
        h, mi, s = draw(st.integers(0, 25)), draw(st.integers(0, 61)), draw(st.integers(0, 61))
        tail = draw(st.sampled_from(["Z", "+00:00", "-05:00", "+23:59", "-23:59",
                                     "+24:00", "+00:60", "-00:00"]))
        return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}{tail}"
    return draw(st.sampled_from(["not-a-date", "", "2020-13", "2020-01-01T00:00:00+0",
                                 "2020-01-01T00:00:00+00:00 ", " 2020-01-01T00:00:00Z",
                                 "2020-01-01t00:00:00Z", "２０２０-01-01T00:00:00Z"]))


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e4, max_value=1e4).map(lambda v: f"{v:.3f}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["", " ", "nan", "inf", "1e400", "1e-400", "-0", "4.9e-324"]),
)
values = st.one_of(numbers, st.sampled_from(VALUE_WORDS))


@st.composite
def rows(draw, tz, start, dirty):
    """One line; a clean text draws only rows that parse."""
    shapes = ["row"] * 12 + ["blank", "spaces"] + (["one", "three"] if dirty else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "blank":
        return ""
    if shape == "spaces":
        return " \t "
    stamp = draw(stamps(tz, start, ANY_STAMP if dirty else PARSEABLE_STAMPS))
    if not dirty:
        return f"{stamp},{draw(numbers)}"
    if shape == "one":
        return stamp
    if shape == "three":
        return f"{stamp},{draw(values)},{draw(values)}"
    return f"{stamp},{draw(values)}"


@st.composite
def csv_texts(draw):
    zone = draw(st.sampled_from(ZONES))
    start, dirty = draw(st.sampled_from(GRID_STARTS)), draw(st.booleans())
    body = draw(st.lists(rows(resolve_timezone(zone), start, dirty), max_size=40))
    if body and draw(st.booleans()):  # repeat some rows, in any order
        body += draw(st.lists(st.sampled_from(body), max_size=5))
        body = draw(st.permutations(body))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join(["timestamp,kwh"] + list(body))
    if draw(st.booleans()):
        text += newline
    return zone, text


def outcome(parse, text, schema):
    try:
        s = parse(text, schema)
    except Exception as e:
        return type(e), str(e), getattr(e, "line_number", None)
    return (
        s.epochs.tobytes(),
        s.values.tobytes(),
        s.missing.tobytes(),
        s.duplicates_collapsed,
    )


def assert_parsed_alike(text, zone="UTC"):
    schema = SeriesSchema("kwh", "kWh", zone, 3600)
    assert outcome(tsdata.parse_series, text, schema) == outcome(
        reference_parse_series, text, schema
    )


@settings(deadline=None, max_examples=300)
@given(csv_texts())
@example(("UTC", "timestamp,kwh\n2020-11-01T02:00:00+00:00,-0\n"
                 "2020-11-01T03:00:00+00:00,0.0\n2020-11-01T03:00:00+00:00,0.0"))
@example(("UTC", "timestamp,kwh\n2020-01-01T00:00:00Z,1e308\n2020-01-01T00:00:00Z,1e308\n"
                 "2020-01-01T00:00:00+00:00,-1.7976931348623157e308"))
def test_matches_row_by_row_parser(drawn):
    zone, text = drawn
    assert_parsed_alike(text, zone)


LINE_BREAK_TEXTS = [
    "",
    "\n",
    "\r",
    "timestamp,kwh",
    "timestamp,kwh\r\n",
    "timestamp,kwh\r2020-01-01T00:00:00Z,1\r2020-01-01T01:00:00Z,2\r",
    "timestamp,kwh\n2020-01-01T00:00:00Z,1\r\r\n2020-01-01T01:00:00Z,2\n",
    "timestamp,kwh\x0b2020-01-01T00:00:00Z,1\x852020-01-01T01:00:00Z,bad\n",
    "timestamp,kwh\n2020-01-01T00:00:00Z,1 2020-01-01T01:00:00Z,2,3\n",
    "timestamp , kwh \n2020-01-01T00:00:00Z,1\n",
    "timestamp,kwh,x\n2020-01-01T00:00:00Z,1\n",
    "timestamp,kwh\n2020-01-01T00:00:00Z,1\x1f\n2020-01-01T00:00:00Z,\x1f\n",
    "timestamp,kwh\n2020-01-01T00:00:00Z,\ud800\n",
    "timestamp,kwh\n2020-01-01T00:00:00Z,1\n" * 2,
]


@pytest.mark.parametrize("text", LINE_BREAK_TEXTS)
def test_line_breaks_and_headers_match_row_by_row_parser(text):
    assert_parsed_alike(text)


@pytest.mark.parametrize(
    "date",
    ["1900-02-29", "2000-02-29", "2100-02-29", "2020-02-29", "2019-02-29", "2020-04-31",
     "2020-04-30", "2020-12-31", "2020-13-01", "2020-00-10", "2020-01-00", "0001-01-01",
     "0000-12-31", "9999-12-31"],
)
@pytest.mark.parametrize("tail", ["Z", "+23:59", "-23:59", "+24:00", "+00:60", "-00:00"])
def test_calendar_edges_match_row_by_row_parser(date, tail):
    assert_parsed_alike(f"timestamp,kwh\n{date}T23:59:59{tail},1.5\n")


def spy_on_row_parser(monkeypatch):
    """Record every line that reaches tsdata._parse_lines."""
    seen = []
    original = tsdata._parse_lines

    def spy(numbered_lines, tz):
        numbered_lines = list(numbered_lines)
        seen.extend(line for _, line in numbered_lines)
        return original(numbered_lines, tz)

    monkeypatch.setattr(tsdata, "_parse_lines", spy)
    return seen


def test_canonical_rows_skip_the_per_row_parser(monkeypatch):
    tz = timezone(timedelta(hours=-5))
    t0 = datetime(2000, 2, 28, tzinfo=tz)  # 2000-02-29 exists (400-year rule)
    lines = ["timestamp,kwh"]
    for i in range(48):
        t = t0 + timedelta(hours=i)
        stamp = t.astimezone(timezone.utc).isoformat() if i % 3 else t.isoformat()
        lines.append(f"{stamp},{'' if i % 7 == 0 else repr(i * 0.1)}")
    text = "\n".join(lines) + "\n"
    per_row = spy_on_row_parser(monkeypatch)
    assert_parsed_alike(text)
    assert per_row == [""]  # only the empty line after the final newline


def test_zulu_rows_take_the_row_parser(monkeypatch):
    text = "timestamp,kwh\n2020-01-01T00:00:00Z,1.5\n2020-01-01T01:00:00+00:00,2.5"
    per_row = spy_on_row_parser(monkeypatch)
    assert_parsed_alike(text)
    assert per_row == ["2020-01-01T00:00:00Z,1.5"]


def test_naive_file_parses_row_by_row(monkeypatch):
    walls = ["2020-11-01T00:00:00", "2020-11-01T01:00:00", "2020-11-01T01:00:00",
             "2020-11-01T02:00:00", "2020-11-01T03:00:00"]
    text = "timestamp,kwh\n" + "".join(f"{w},{i}\n" for i, w in enumerate(walls))
    per_row = spy_on_row_parser(monkeypatch)
    assert_parsed_alike(text, "America/New_York")
    assert per_row == [f"{w},{i}" for i, w in enumerate(walls)] + [""]


# -- the blockwise bytes core ------------------------------------------------


SCHEMA_5MIN = SeriesSchema("kwh", "kWh", "America/New_York", 300)


def parse_bytes(text, schema):
    return tsdata.parse_series_bytes(text.encode("utf-8", "surrogatepass"), schema)


def canonical_lines(n, start=datetime(2020, 1, 1, tzinfo=timezone.utc)):
    return [f"{(start + timedelta(hours=i)).isoformat()},{i * 0.5}" for i in range(n)]


def with_rows(rows, at):
    """Twelve canonical rows, with ``rows`` put in place of data lines ``at``
    (numbered from 0), which sit on a block edge for blocks of 1, 2 and 5."""
    lines = canonical_lines(12)
    lines[at:at + len(rows)] = rows
    return "timestamp,kwh\n" + "\n".join(lines) + "\n"


BLOCK_EDGE_TEXTS = [
    pytest.param(with_rows(["2020-01-01T04:00:00Z,2", "2020-01-01T05:00:00Z,2.5"], 4),
                 id="zulu_rows"),
    pytest.param(with_rows(["2020-01-01T04:00:00+00:00,1e", "2020-01-01T05:00:00+00:00,x"], 4),
                 id="bad_values"),
    pytest.param(with_rows(["2020-01-01T04:00:00+00:00,1", "2020-01-01T05:00:00+00:00,2,3"], 4),
                 id="three_fields"),
    pytest.param(with_rows(["", "2020-01-01T05:00:00+00:00,2.5"], 4), id="blank_line"),
    pytest.param(with_rows(["2020-01-01T04:00:00+00:00,1e", "2020-01-01T05:00:00+00:00,3"], 4),
                 id="bad_then_canonical"),
    # the last line has no "\n" and is shorter than a stamp and a cell
    pytest.param("timestamp,kwh\n" + "\n".join(canonical_lines(6)), id="last_row"),
    pytest.param("timestamp,kwh\r\n" + "\r\n".join(canonical_lines(6)), id="last_row_crlf"),
    pytest.param("timestamp,kwh\n" + "\n".join(canonical_lines(6) + ["2020-01-01T06:00:00+00:00,"]),
                 id="last_cell_empty"),
    pytest.param("timestamp,kwh\n" + "\n".join(canonical_lines(6) + ["2020-01-01T06:00:00+00:0"]),
                 id="last_stamp_cut"),
    pytest.param("timestamp,kwh\n" + "\n".join(canonical_lines(6) + [" "]), id="last_line_blank"),
    pytest.param("timestamp,kwh\n" + "\n".join(canonical_lines(6) + ["2"]), id="last_line_short"),
]


@settings(deadline=None, max_examples=300)
@given(csv_texts(), st.sampled_from([1, 2, 5]))
def test_small_blocks_match_row_by_row_parser(drawn, block):
    zone, text = drawn
    with mock.patch.object(tsdata, "_PARSE_BLOCK", block):
        assert_parsed_alike(text, zone)


@pytest.mark.parametrize("text", LINE_BREAK_TEXTS + BLOCK_EDGE_TEXTS)
@pytest.mark.parametrize("block", [1, 2, 5, tsdata._PARSE_BLOCK])
def test_fixed_texts_in_small_blocks_match_row_by_row_parser(text, block):
    with mock.patch.object(tsdata, "_PARSE_BLOCK", block):
        assert_parsed_alike(text)


@settings(deadline=None, max_examples=300)
@given(csv_texts())
def test_bytes_entry_matches_text_entry(drawn):
    zone, text = drawn
    schema = SeriesSchema("kwh", "kWh", zone, 3600)
    want = outcome(tsdata.parse_series, text, schema)
    assert outcome(parse_bytes, text, schema) == want


@settings(deadline=None, max_examples=100)
@given(csv_texts())
def test_leading_byte_order_mark_is_dropped(drawn):
    zone, text = drawn
    schema = SeriesSchema("kwh", "kWh", zone, 3600)
    want = outcome(tsdata.parse_series, text, schema)
    assert outcome(tsdata.parse_series, "\ufeff" + text, schema) == want
    assert outcome(parse_bytes, "\ufeff" + text, schema) == want


def test_only_one_byte_order_mark_is_dropped():
    with pytest.raises(ParseError) as e:
        tsdata.parse_series("\ufeff\ufefftimestamp,kwh\n2020-01-01T00:00:00Z,1\n", SCHEMA_5MIN)
    assert "got '\\ufefftimestamp,kwh'" in str(e.value)


@st.composite
def mixed_line_ends(draw):
    """A drawn text with "\\n" line ends, and the same lines ended by a drawn
    mix of "\\n", "\\r\\n" and lone "\\r"."""
    zone, text = draw(csv_texts())
    lines = text.replace("\r\n", "\n").split("\n")
    mixed = lines[0]
    for line in lines[1:]:
        # a "\n" right after a lone "\r" (an empty line between) would make one "\r\n"
        ends = ["\r\n", "\r"] if mixed.endswith("\r") else ["\n", "\r\n", "\r"]
        mixed += draw(st.sampled_from(ends)) + line
    return zone, "\n".join(lines), mixed


@settings(deadline=None, max_examples=300)
@given(mixed_line_ends())
@example(("UTC", "timestamp,kwh\n\n2020-01-01T00:00:00Z,x\n",
          "timestamp,kwh\r\r\n2020-01-01T00:00:00Z,x\r"))
def test_any_mix_of_line_ends_parses_as_line_feeds(drawn):
    zone, lf, mixed = drawn
    schema = SeriesSchema("kwh", "kWh", zone, 3600)
    for parse in (tsdata.parse_series, parse_bytes):
        assert outcome(parse, mixed, schema) == outcome(parse, lf, schema)


# the line breaks of str.splitlines() other than "\n", "\r" and "\r\n"
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY)
def test_other_separators_stay_inside_their_line(sep):
    text = f"timestamp,kwh\n2020-01-01T00:00:00+00:00,1{sep}2020-01-01T01:00:00+00:00,2\n"
    for parse in (tsdata.parse_series, parse_bytes):
        with pytest.raises(ParseError) as e:
            parse(text, SCHEMA_5MIN)
        assert (str(e.value), e.value.line_number) == ("line 2: expected 2 fields, got 3", 2)
    # a separator at a cell's end is stripped with the cell's other whitespace
    lines = [f"2020-01-01T0{i}:00:00+00:00,{i}{sep}" for i in range(3)] + ["2020-01-01T03:00:00Z,x"]
    with pytest.raises(ParseError, match="^line 5: unparseable value 'x'$"):
        parse_bytes("timestamp,kwh\n" + "\n".join(lines), SCHEMA_5MIN)


def five_minute_channel(days: int) -> str:
    """A canonical 5-minute channel over the spring DST change, a few cells empty."""
    start = datetime(2020, 3, 1, tzinfo=timezone.utc).timestamp()
    epochs = start + 300.0 * np.arange(days * 288)
    values = np.round(np.random.default_rng(5).normal(40.0, 9.0, epochs.size), 3)
    missing = np.zeros(epochs.size, dtype=bool)
    missing[::997] = True
    series = RawSeries("kwh", "kWh", 300, "America/New_York", epochs, values, missing)
    return tsdata.serialize_series(series)


def test_crlf_channel_stays_on_the_vector_path(monkeypatch):
    text = five_minute_channel(60)  # 17,280 rows, more than one block
    want = outcome(tsdata.parse_series, text, SCHEMA_5MIN)
    per_row = spy_on_row_parser(monkeypatch)
    crlf = text.replace("\n", "\r\n")
    assert outcome(parse_bytes, crlf, SCHEMA_5MIN) == want
    assert outcome(tsdata.parse_series, crlf, SCHEMA_5MIN) == want
    assert per_row == ["", ""]  # only the empty line after each final "\r\n"


def test_parse_memory_is_the_file_and_the_row_arrays(tmp_path):
    path = tmp_path / "kwh.csv"
    path.write_text(five_minute_channel(1050))  # 302,400 rows
    size = path.stat().st_size
    tracemalloc.start()
    try:
        series = tsdata.parse_series_bytes(path.read_bytes(), SCHEMA_5MIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 302_400
    assert peak < size + 100 * len(series)


def test_crlf_parse_holds_no_copy_of_the_file():
    lf = five_minute_channel(1050).encode()  # 302,400 rows
    peaks = []
    for data in (lf, lf.replace(b"\n", b"\r\n")):
        tracemalloc.start()
        try:
            tsdata.parse_series_bytes(data, SCHEMA_5MIN)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a CRLF file copied to LF would add its own 12 MB
    assert peaks[1] < 1.1 * peaks[0]
