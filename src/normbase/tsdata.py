"""Ingestion of interval meter/weather CSVs into clean daily tables.

The pipeline here is parse -> fill_gaps -> resample_daily -> align. Files are
single-channel CSVs with a ``timestamp,<channel>`` header, ISO-8601 timestamps
and one numeric column where an empty cell means missing. Missing stays an
explicit state end to end; NaN never survives ingestion.

parse_series_bytes reads a channel file's bytes, and parse_series the same
file as text. Both read the canonical dialect (``YYYY-MM-DDTHH:MM:SS+HH:MM``,
then a plain decimal or empty cell), which serialize_series and synthgen
write, in vector passes over fixed blocks of lines, so a parse holds the
file's bytes, the per-row arrays and one block's temporaries. Other ISO-8601
forms (``...Z`` included), and naive timestamps in an IANA zone, go through
the row-by-row parser instead, at per-row cost, with the same results and
errors. Lines end at "\\n", "\\r\\n" or a lone "\\r" (universal newlines);
any other byte, "\\x0b" or "\\x85" say, belongs to its line. A line that
is not UTF-8 is a ParseError naming it.

Given a start and an end epoch, parse_series_bytes returns the rows from the
last present sample before the start to the first present one at or after
the end (to either end of the file without one), so the days between fill
and resample as in a full parse. Every line is still read and checked, but a
plain decimal cell outside those two samples is not converted to a float,
and the day-level steps (fill_gaps, resample_daily, align's negative-energy
check) see only the rows returned. ``evaluate --models`` reads this way the
days it scores; ``normalize`` converts every value.

The writer mirrors it: render_stamps renders the timestamp column in NumPy
(civil dates by the inverse of _days_from_civil; for an IANA zone, datetime
gives the UTC offset only at the two ends of each UTC day, and row by row on
a day whose ends disagree), and render_csv joins the stamps with the repr of
each value into rows. serialize_series and synthgen.write_dataset write
through them, byte for byte what datetime.isoformat() and repr give row by
row. The rows left to datetime, those within a day of the calendar's ends
among them, take the reader's local day (_local_datetime), so a first day of
0001-01-01 east of UTC, whose morning is 0000-12-31 in UTC, is written too.

Timestamps are stored internally as float64 epoch seconds plus the series
zone, which keeps multi-million-row series cheap. Day boundaries are always
computed in the series-local zone, and a local day must lie on
FIRST_DAY..LAST_DAY, so that the midnight closing it is a date too
(fill_gaps and resample_daily raise DataError for a sample outside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta, timezone
from typing import Literal, Optional, get_args
from zoneinfo import ZoneInfo

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    DataError,
    EmptyInputError,
    NoOverlapError,
    ParseError,
    SchemaError,
    UnfillableChannelError,
)
from .savefile import check_fields

ENERGY_CHANNEL = "kwh"
WeatherChannel = Literal["drybulb_c", "solar_wm2", "rh_pct", "dewpoint_c", "windspeed_ms", "winddir_deg"]
WEATHER_CHANNELS = get_args(WeatherChannel)

# Canonical unit per channel; schema declarations must agree.
CHANNEL_UNITS = {
    "kwh": "kWh",
    "drybulb_c": "degC",
    "solar_wm2": "W/m2",
    "rh_pct": "%",
    "dewpoint_c": "degC",
    "windspeed_ms": "m/s",
    "winddir_deg": "deg",
}

# A day keeps its aggregate only when at least this fraction of expected
# samples is present.
VALID_DAY_COVERAGE = 0.9

# Cadence declared by the schema must match observed median spacing this tight.
CADENCE_TOLERANCE = 0.01


def resolve_timezone(name: str):
    """Turn a zone name ('UTC', IANA name, or '+HH:MM' offset) into a tzinfo."""
    if name == "UTC":
        return timezone.utc
    if name and name[0] in "+-":
        try:
            sign = 1 if name[0] == "+" else -1
            hh, mm = name[1:].split(":")
            return timezone(sign * timedelta(hours=int(hh), minutes=int(mm)))
        except (ValueError, TypeError):
            raise ConfigError(f"unrecognized timezone offset {name!r}")
    try:
        return ZoneInfo(name)
    except Exception:
        raise ConfigError(f"unrecognized timezone {name!r}")


@dataclass(frozen=True)
class SeriesSchema:
    """Declared shape of one channel file."""

    channel: str
    unit: str
    timezone: str
    interval_seconds: int = field(metadata={"minimum": 1})

    def __post_init__(self):
        check_fields(self)
        canonical = CHANNEL_UNITS.get(self.channel)
        if canonical is not None and self.unit != canonical:
            raise SchemaError(
                f"channel {self.channel!r} uses unit {canonical!r}, "
                f"schema declares {self.unit!r}"
            )


@dataclass
class RawSeries:
    """One channel of interval data, sorted, with explicit missingness.

    Attributes:
        channel: channel name, e.g. 'kwh' or 'drybulb_c'.
        unit: unit string matching the channel.
        interval_seconds: declared sample cadence.
        tz: zone name used for day bucketing.
        epochs: float64 epoch seconds, finite and strictly increasing.
        values: float64 sample values; entries under ``missing`` are ignored.
        missing: bool mask, True where the value is absent.
        duplicates_collapsed: how many duplicate-timestamp rows were averaged
            away at parse time.
    """

    channel: str
    unit: str
    interval_seconds: int
    tz: str
    epochs: np.ndarray
    values: np.ndarray
    missing: np.ndarray
    duplicates_collapsed: int = 0

    def __post_init__(self):
        self.epochs = np.asarray(self.epochs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.missing = np.asarray(self.missing, dtype=bool)
        if not (self.epochs.shape == self.values.shape == self.missing.shape):
            raise DataError("epochs, values and missing must have equal length")
        if not np.all(np.isfinite(self.epochs)):
            raise DataError("timestamps must be finite")
        if self.epochs.size and np.any(np.diff(self.epochs) <= 0):
            raise DataError("timestamps must be strictly increasing")
        present = self.values[~self.missing]
        if present.size and not np.all(np.isfinite(present)):
            raise DataError("present values must be finite")

    def __len__(self):
        return self.epochs.size

    @property
    def tzinfo(self):
        return resolve_timezone(self.tz)


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


def _parse_lines(numbered_lines, tz):
    """Parse (line_number, line) data rows one by one.

    Returns lists (blank, epochs, values, missing): the line numbers of the
    blank lines, which are skipped, and the parsed rows.
    """
    blank, epochs, values, missing = [], [], [], []
    for line_number, line in numbered_lines:
        if not line.strip():
            blank.append(line_number)
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
    return blank, epochs, values, missing


# Dropped from the start of a file, as the utf-8-sig codec does; spreadsheet
# "CSV UTF-8" exports write it.
_BOM = b"\xef\xbb\xbf"
# Data lines decoded at a time. A block's temporaries (stamp windows and
# about a dozen per-line integer arrays) stay near 3 MB, so a large file
# touches few fresh pages beyond its bytes and its per-row arrays.
_PARSE_BLOCK = 1 << 14
# Bytes searched for line feeds at a time, so no mask is as large as the file.
_FEED_CHUNK = 1 << 20

# Canonical timestamp 'YYYY-MM-DDTHH:MM:SS+HH:MM', then a comma. No byte of
# the timestamp or of an accepted value cell is a comma, so a row that passes
# has exactly two fields.
_STAMP_WIDTH = 26
# Its nine two-digit fields: century, year of the century, month, day, hour,
# minute, second and the offset's hours and minutes, by tens and ones column.
_STAMP_TENS = np.array([0, 2, 5, 8, 11, 14, 17, 20, 23])
_STAMP_ONES = _STAMP_TENS + 1
_STAMP_PUNCT = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"), (22, ":"), (25, ","))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

# Value cells wider than this, or holding bytes other than digits, signs,
# dots and exponent marks, take the per-row path. Inside them Python's
# float() and NumPy's bytes-to-float cast agree: both read decimal literals
# and round correctly.
_VALUE_WIDTH = 32
# Each of those bytes counts 1 in its class's byte of a uint32: digits in
# the lowest, then dots, exponent marks and signs. Summed over a cell, each
# count is at most _VALUE_WIDTH, so none carries into the next.
_CELL_CLASSES = np.zeros(256, dtype=np.uint32)
for _i, _class in enumerate((b"0123456789", b".", b"eE", b"+-")):
    _CELL_CLASSES[list(_class)] = 1 << 8 * _i


def _days_from_civil(y, m, d):
    """Days from 1970-01-01 to proleptic Gregorian dates (Hinnant's algorithm)."""
    y = y - (m <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * np.where(m > 2, m - 3, m + 9) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _canonical_stamps(buf: np.ndarray, starts: np.ndarray):
    """Decode the timestamp at the start of each line.

    Returns (ok, epochs): ok marks lines that open with a canonical, in-range
    timestamp and a comma. Their epochs are exact integers, so they equal
    ``datetime.timestamp()``.
    """
    ts = sliding_window_view(buf, _STAMP_WIDTH)[starts]
    sign = np.where(ts[:, 19] == ord("-"), -1, 1)
    ok = (ts[:, 19] == ord("+")) | (ts[:, 19] == ord("-"))
    for col, ch in _STAMP_PUNCT:
        ok &= ts[:, col] == ord(ch)
    if not ok.any():  # e.g. a file of naive timestamps
        return ok, np.zeros(starts.size)
    ts -= np.uint8(ord("0"))  # wraps, so only digits fall below 10
    tens, ones = ts[:, _STAMP_TENS], ts[:, _STAMP_ONES]
    ok &= (tens < 10).all(axis=1) & (ones < 10).all(axis=1)
    fields = (tens * np.uint8(10) + ones).astype(np.int32).T  # wraps where ok is False
    year, month, day = fields[0] * 100 + fields[1], fields[2], fields[3]
    hour, minute, second, off_h, off_m = fields[4:]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59) & (off_h <= 23) & (off_m <= 59)
    seconds = _days_from_civil(year, month, day).astype(np.int64) * 86400
    seconds += hour * 3600 + minute * 60 + second - sign * (off_h * 3600 + off_m * 60)
    return ok, seconds.astype(np.float64)


def _cell_classes(cells: np.ndarray, width: np.ndarray):
    """Classify NUL-padded value cells, one per row of ``cells``.

    Returns (numeric, plain): numeric marks non-empty cells of only digits,
    signs, dots and exponent marks. plain marks those with at least one
    digit, at most one dot, no exponent and at most one sign, in front:
    decimal literals that float() always accepts.
    """
    # NUL is in no class, so a cell is numeric only if all its bytes are in
    # one. Taken by column, the sum adds whole rows, which is faster.
    counts = np.take(_CELL_CLASSES, cells.T).sum(axis=0, dtype=np.uint32)
    digits, dots, exps, signs = (counts >> 8 * i & 0xFF for i in range(4))
    numeric = (digits + dots + exps + signs == width) & (width > 0)
    lead_sign = _CELL_CLASSES[cells[:, 0]] >> 24
    return numeric, numeric & (digits > 0) & (dots <= 1) & (exps == 0) & (signs == lead_sign)


def _cell_values(buf: np.ndarray, first: np.ndarray, width: np.ndarray, skip: np.ndarray):
    """Cast the value cells buf[first:first + width] with one astype(float).

    Returns (ok, values, missing): ok marks cells that are empty or a
    decimal literal. Empty and non-finite cells are missing with value 0.
    Where ``skip`` is True the value is not needed: a plain cell there (see
    _cell_classes) is not cast and reads as 0. Every other cell is cast, so
    a malformed literal fails as it does where ``skip`` is False.
    """
    w = max(int(width.max(initial=0)), 1)
    cells = sliding_window_view(buf, w)[first]
    cells *= np.arange(w) < width[:, None]  # NUL padding, which the bytes dtype drops
    numeric, plain = _cell_classes(cells, width)
    cast = numeric & ~(skip & plain)
    values = np.zeros(first.size)
    literals = cells.view(f"S{w}")[:, 0]
    try:
        if cast.all():
            values = literals.astype(np.float64)
        elif cast.any():
            values[cast] = literals[cast].astype(np.float64)
    except ValueError:  # a malformed literal; the per-row path reports it
        numeric[:] = False
    missing = (width == 0) | ~np.isfinite(values)
    values[missing] = 0.0
    return numeric | (width == 0), values, missing


def _decode_line(line: bytes, line_number: int) -> str:
    """``line`` decoded, lone surrogates kept; ParseError unless it is UTF-8."""
    try:
        return line.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: bad byte at offset {e.start} of the line", line_number)


def _line_ends(buf: np.ndarray) -> np.ndarray:
    """Offsets of the line feeds in ``buf``, then ``buf.size``: where each line ends."""
    feeds = [np.flatnonzero(buf[lo:lo + _FEED_CHUNK] == ord("\n")) + lo
             for lo in range(0, buf.size, _FEED_CHUNK)]
    return np.concatenate(feeds + [np.array([buf.size])])


def _line_spans(buf: np.ndarray, ends: np.ndarray, lines: np.ndarray):
    """Start and end offsets of the data lines numbered ``lines`` from 0.

    A line ends before the "\\r" of its "\\r\\n" (parse_series_bytes
    rewrites the line ends of a file with a lone "\\r" to "\\n" first).
    """
    starts, stops = ends[lines] + 1, ends[lines + 1]
    stops -= buf[stops - 1] == ord("\r")
    return starts, stops


def _parse_rows(data: bytes, ends: np.ndarray, tz, start: float, end: float):
    """Parse the data lines of ``data``, the lines after the header.

    Canonical rows are decoded in vector passes over blocks of _PARSE_BLOCK
    lines, each reading a view of its own bytes; only a block whose windows
    run past the end of the data reads a zero-padded copy. The lines those
    passes reject, gathered over all blocks, go through _parse_lines in line
    order, so the first malformed line raises exactly as a row-by-row parse
    would. A canonical row before the epoch ``start``, or at or after the
    epoch ``end``, keeps a plain decimal uncast (see _cell_values), with
    value 0, unless it is stamped at the ``anchor``, the last present sample
    before ``start`` (-inf without one), or at ``last``, the first present
    sample at or after ``end`` (inf without one). Pass -inf and inf to cast
    every value.

    Returns (epochs, values, missing, anchor, last), in line order, blank
    lines dropped.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = ends.size - 1
    epochs, values = np.empty(n), np.empty(n)
    missing, ok = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    for lo in range(0, n, _PARSE_BLOCK):
        block = slice(lo, min(lo + _PARSE_BLOCK, n))
        starts, stops = _line_spans(buf, ends, np.arange(block.start, block.stop))
        # every line is read at full width, the stamp and the widest cell
        head, tail = starts[0], starts[-1] + _STAMP_WIDTH + _VALUE_WIDTH
        window = buf[head:tail]
        if tail > buf.size:
            window = np.zeros(tail - head, dtype=np.uint8)
            window[:buf.size - head] = buf[head:]
        starts -= head
        stamps_ok, epochs[block] = _canonical_stamps(window, starts)
        first = starts + _STAMP_WIDTH
        width = np.clip(stops - head - first, 0, None)
        stamps_ok &= width <= _VALUE_WIDTH
        skip = stamps_ok & ((epochs[block] < start) | (epochs[block] >= end))
        cells_ok, values[block], missing[block] = _cell_values(
            window, first, np.where(stamps_ok, width, 0), skip)
        ok[block] = stamps_ok & cells_ok

    fallback = np.flatnonzero(~ok)
    starts, stops = _line_spans(buf, ends, fallback)
    numbers = (fallback + 2).tolist()
    texts = (_decode_line(data[a:b], n) for a, b, n in zip(starts.tolist(), stops.tolist(), numbers))
    blank, e, v, m = _parse_lines(zip(numbers, texts), tz)
    canonical = ok.copy()  # _parse_lines converts every value it reads
    at = fallback[~np.isin(fallback + 2, blank)]
    ok[at] = True
    epochs[at], values[at], missing[at] = e, v, m
    present = ok & ~missing
    anchor = epochs[present & (epochs < start)].max(initial=-np.inf)
    last = epochs[present & (epochs >= end)].min(initial=np.inf)
    redo = np.flatnonzero(canonical & present & ((epochs == anchor) | (epochs == last)))
    starts, stops = _line_spans(buf, ends, redo)
    cells = [data[a + _STAMP_WIDTH:b] for a, b in zip(starts.tolist(), stops.tolist())]
    values[redo] = np.array(cells, dtype=bytes).astype(np.float64)
    return epochs[ok], values[ok], missing[ok], anchor, last


def _finite_mean(x: np.ndarray) -> float:
    """np.mean of finite values, also where their sum overflows.

    Dividing by the largest magnitude first keeps the sum within n and the
    result within that magnitude; np.mean's own bits are kept whenever it is
    finite.
    """
    with np.errstate(over="ignore"):
        mean = np.mean(x)
    if np.isfinite(mean):
        return float(mean)
    scale = np.max(np.abs(x))
    return float(np.mean(x / scale) * scale)


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty array without NaN, bit for bit, without the
    NaN check that imports numpy.ma into every fresh ingest worker."""
    mid = x.size // 2
    middle = [mid] if x.size % 2 else [mid - 1, mid]
    return float(np.mean(np.partition(x, middle)[middle[0]:mid + 1]))


def parse_series_bytes(data: bytes, schema: SeriesSchema, start: Optional[float] = None,
                       end: Optional[float] = None) -> RawSeries:
    """Parse one channel file's UTF-8 bytes into a RawSeries.

    This is parse_series for a file read as bytes, with the same results and
    errors as for the decoded text, and it holds no decoded copy of the
    file. One leading byte-order mark is dropped. Lines end at "\\n",
    "\\r\\n" or a lone "\\r", as in universal newlines; a line that is not
    UTF-8 (lone surrogates pass) raises a ParseError naming it, the header
    being line 1, in line order with the other line errors.

    With an epoch ``start`` only the rows from the last present sample before
    it on (all rows without one) are returned, and with an epoch ``end`` only
    those up to the first present sample at or after it (all rows without
    one). They come bit for bit as the full parse returns them, with the
    whole file's ``duplicates_collapsed``. Each of the two samples bounds any
    missing run across its epoch, in the full parse too. The rows outside
    them are read and checked as always (timestamps, every value cell, sort
    order, duplicates and cadence), so every error is the full parse's, but
    their plain decimal values are not converted to floats.
    """
    base = len(_BOM) if data.startswith(_BOM) else 0
    if len(data) == base:
        raise EmptyInputError(f"{schema.channel}: input is empty")
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):  # a lone "\r"
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    ends = _line_ends(np.frombuffer(data, dtype=np.uint8))
    head = _decode_line(data[base:ends[0]], 1).removesuffix("\r")

    header = [h.strip() for h in head.split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError(f"expected header 'timestamp,<channel>', got {head!r}", 1)
    if header[1] != schema.channel:
        raise SchemaError(
            f"file carries channel {header[1]!r}, schema declares {schema.channel!r}"
        )

    e, v, m, anchor, last = _parse_rows(
        data, ends, resolve_timezone(schema.timezone),
        -np.inf if start is None else start, np.inf if end is None else end)
    if not e.size:
        raise EmptyInputError(f"{schema.channel}: no data rows")

    # one diff serves the order check, the duplicate check and the spacing
    steps = np.diff(e)
    if not np.all(steps > 0):
        order = np.argsort(e, kind="stable")
        e, v, m = e[order], v[order], m[order]
        steps = np.diff(e)

    dupes = 0
    if np.any(steps == 0):
        # Collapse runs of equal timestamps to the mean of present values.
        uniq, heads, counts = np.unique(e, return_index=True, return_counts=True)
        # a lone row keeps its value; + 0.0 turns -0.0 into 0.0, as np.mean does
        out_v, out_m = v[heads] + 0.0, m[heads]
        for i in np.flatnonzero(counts > 1):
            seg = slice(heads[i], heads[i] + counts[i])
            present = ~m[seg]
            out_m[i] = not np.any(present)
            out_v[i] = 0.0 if out_m[i] else _finite_mean(v[seg][present])
        dupes = int(e.size - uniq.size)
        e, v, m = uniq, out_v, out_m
        steps = np.diff(e)

    if e.size >= 3:
        spacing = _median(steps)
        if abs(spacing - schema.interval_seconds) > CADENCE_TOLERANCE * schema.interval_seconds:
            raise SchemaError(
                f"{schema.channel}: median spacing {spacing:.1f}s inconsistent "
                f"with declared interval {schema.interval_seconds}s"
            )
    cut = slice(np.searchsorted(e, anchor), np.searchsorted(e, last, side="right"))
    e, v, m = e[cut], v[cut], m[cut]

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


def parse_series(text: str, schema: SeriesSchema) -> RawSeries:
    """Parse one channel CSV into a RawSeries.

    Rows are sorted by timestamp; duplicate timestamps collapse to the mean of
    their present values (counted on the result). Empty, 'nan' or infinite
    value cells become explicit missing entries. A leading byte-order mark
    ("\\ufeff") is dropped.

    Rows in the canonical dialect that ``serialize_series`` and
    ``synthgen.write_dataset`` write (``YYYY-MM-DDTHH:MM:SS+HH:MM``, a comma,
    a plain decimal or empty value) are parsed in vector passes, also when
    lines end in "\\r\\n". Other ISO-8601 forms (``...Z`` included), and
    naive timestamps (read in the schema zone, the earlier instant where an
    IANA zone repeats an hour), are accepted at per-row cost. Lines end at
    "\\n", "\\r\\n" or a lone "\\r", and the header is line 1.

    The text is encoded to UTF-8 (lone surrogates kept) and parsed by
    parse_series_bytes, which a caller holding the file's bytes calls
    directly.

    Args:
        text: full CSV text including the ``timestamp,<channel>`` header.
        schema: declared channel/unit/timezone/cadence.

    Raises:
        EmptyInputError: no data rows.
        ParseError: malformed row, with its line number.
        SchemaError: header channel mismatch, or observed cadence inconsistent
            with the declared interval.
    """
    return parse_series_bytes(text.encode("utf-8", "surrogatepass"), schema)


# Rendering the canonical dialect: a stamp row with its trailing comma and a
# newline that splits the decoded rows apart.
_STAMP_TEMPLATE = np.frombuffer(b"0000-00-00T00:00:00+00:00,\n", dtype=np.uint8)
# Epochs at least a day inside years 1..9999 stay in range in every zone,
# whose offsets are under a day.
_FIRST_SAFE_EPOCH = -62135596800 + 86400  # 0001-01-02T00:00:00Z
_LAST_SAFE_EPOCH = 253402300799 - 86400  # 9999-12-30T23:59:59Z
# Rows rendered at a time. A block's NumPy temporaries (about fifteen int64
# arrays) stay near 1 MB, so the writer's peak memory is its output's
# stamp cells plus one block, also for a small file.
_RENDER_BLOCK = 1 << 13


def _civil_from_days(z):
    """Proleptic Gregorian (year, month, day) of days from 1970-01-01.

    The inverse of _days_from_civil (Hinnant's algorithm).
    """
    z = z + 719468
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    return yoe + era * 400 + (month <= 2), month, day


def _utc_offsets(epochs: np.ndarray, tz) -> np.ndarray:
    """UTC offset in seconds of ``tz`` at each integer epoch.

    A fixed-offset zone has one offset. For an IANA zone, datetime is asked
    only at the first and last epoch of each UTC day, and row by row only on
    a day whose two ends disagree. That is exact as long as no two
    transitions of a zone fall within one day: the smallest gap between
    transitions in the tzdata this was written against is 344,400 s
    (Africa/Freetown), and tests/test_write_differential.py checks the
    installed tzdata for it.
    """
    def offset_at(e):
        return datetime.fromtimestamp(e, tz).utcoffset() // timedelta(seconds=1)

    if isinstance(tz, timezone):
        return np.full(epochs.size, tz.utcoffset(None) // timedelta(seconds=1), dtype=np.int64)
    if not epochs.size:
        return np.zeros(0, dtype=np.int64)
    day = epochs // 86400
    ordered = np.sort(epochs)
    cut = np.flatnonzero(np.diff(ordered // 86400)) + 1
    firsts, lasts = ordered[np.r_[0, cut]], ordered[np.r_[cut - 1, ordered.size - 1]]
    ends = np.array([[offset_at(a), offset_at(b)]
                     for a, b in zip(firsts.tolist(), lasts.tolist())], dtype=np.int64)
    at = np.searchsorted(firsts // 86400, day)
    offsets = ends[at, 0]
    split = np.flatnonzero(offsets != ends[at, 1])
    offsets[split] = [offset_at(e) for e in epochs[split].tolist()]
    return offsets


def _stamp_block(local: np.ndarray, offsets: np.ndarray) -> list:
    """Canonical stamp cells of local seconds and their UTC offsets."""
    days, seconds = np.divmod(local, 86400)
    year, month, day = _civil_from_days(days)
    span = np.abs(offsets)
    # one matrix row per column of the stamps, so digits are written
    # contiguously; tobytes() of its transpose lays the stamps out in order
    cols = np.empty((_STAMP_TEMPLATE.size, local.size), dtype=np.uint8)
    cols[:] = _STAMP_TEMPLATE[:, None]
    for col, number in ((0, year // 100), (2, year % 100), (5, month), (8, day),
                        (11, seconds // 3600), (14, seconds // 60 % 60), (17, seconds % 60),
                        (20, span // 3600), (23, span // 60 % 60)):
        tens, ones = np.divmod(number, 10)
        cols[col] += tens.astype(np.uint8)
        cols[col + 1] += ones.astype(np.uint8)
    cols[19, offsets < 0] = ord("-")
    stamps = cols.T.tobytes().decode("ascii").split("\n")
    stamps.pop()  # after the last newline
    return stamps


def render_stamps(epochs: np.ndarray, tz) -> list:
    """Canonical timestamp cells, comma included, one per epoch.

    Each cell is ``datetime.fromtimestamp(e, tz).isoformat() + ","``, and is
    built by ``_local_datetime(e, tz).isoformat()`` for the rows the vector
    pass leaves out: non-integer or non-finite epochs, epochs within a day of
    the ends of years 1..9999 (an instant on local day 0001-01-01 whose UTC
    date is in year 0 included), and instants where the zone's offset is not
    a whole minute (local mean time, e.g. New York before 1883). Such rows are
    rendered in order, so the first that datetime rejects (NaN, a local day
    off the calendar) raises its error.

    Every other row is rendered by NumPy: local seconds are the epoch plus
    its UTC offset (see _utc_offsets), civil dates come from
    _civil_from_days, and the digits go into a byte matrix that is decoded
    to str and split at its newlines. That runs in blocks of rows, so only
    the cells themselves outlive a block.
    """
    e = np.asarray(epochs, dtype=np.float64)
    ok = (e == np.floor(e)) & (e >= _FIRST_SAFE_EPOCH) & (e <= _LAST_SAFE_EPOCH)
    whole = np.where(ok, e, 0.0).astype(np.int64)
    offsets = np.zeros(e.size, dtype=np.int64)
    offsets[ok] = _utc_offsets(whole[ok], tz)
    ok &= offsets % 60 == 0
    offsets[~ok] = 0
    stamps = []
    for lo in range(0, e.size, _RENDER_BLOCK):
        block = slice(lo, lo + _RENDER_BLOCK)
        stamps += _stamp_block(whole[block] + offsets[block], offsets[block])
    for i in np.flatnonzero(~ok).tolist():
        stamps[i] = _local_datetime(epochs[i], tz).isoformat() + ","
    return stamps


def _value_cells(values: np.ndarray, missing: Optional[np.ndarray]) -> list:
    """Value cells: ``repr`` of each value, empty where ``missing``.

    A run of values with equal bits (a channel held for a day) is repr'd
    once. Bits, not ==, decide, so -0.0 and 0.0 keep their own spelling.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    # tolist() yields Python floats, whose repr round-trips exactly
    cells = list(map(float.__repr__, values[first].tolist()))
    has_missing = missing is not None and bool(np.any(missing))
    if first.size == values.size and not has_missing:
        return cells
    out = np.array(cells, dtype=object)[np.cumsum(starts) - 1]
    if has_missing:
        out[np.asarray(missing, dtype=bool)] = ""
    return out.tolist()


def render_csv(channel: str, stamps: list, values: np.ndarray,
               missing: Optional[np.ndarray] = None):
    """Yield one channel file's text: the header, then its rows in blocks.

    A row is a stamp cell (render_stamps) and a value cell (_value_cells).
    Rows stop at the shorter of ``stamps`` and ``values``, as zip does. Each
    block is one join over the cells themselves, so no string per row is
    built, and a large file never holds more than a block of value cells.
    """
    yield f"timestamp,{channel}"
    n = min(len(stamps), len(values))
    for lo in range(0, n, _RENDER_BLOCK):
        hi = min(lo + _RENDER_BLOCK, n)
        parts = ["\n"] * (3 * (hi - lo))
        parts[1::3] = stamps[lo:hi]
        parts[2::3] = _value_cells(values[lo:hi], None if missing is None else missing[lo:hi])
        yield "".join(parts)
    yield "\n"


def serialize_series(series: RawSeries) -> str:
    """Render a RawSeries back to the CSV format parse_series reads.

    The output is in the canonical dialect, so parse_series reads it back on
    its vector path, and it is byte for byte what rendering each row with
    ``datetime.fromtimestamp(e, tz).isoformat()`` and ``repr`` gives.
    """
    stamps = render_stamps(series.epochs, series.tzinfo)
    return "".join(render_csv(series.channel, stamps, series.values, series.missing))


@dataclass(frozen=True)
class GapFillPolicy:
    """Limits for how long a missing run may be and still get filled."""

    max_interior: int = field(default=30, metadata={"minimum": 0})
    max_edge: int = field(default=5, metadata={"minimum": 0})

    __post_init__ = check_fields


@dataclass(frozen=True)
class GapRecord:
    channel: str
    start_index: int
    start: datetime
    length: int
    method: str  # 'interpolated', 'edge-hold', or 'left-unfilled'


@dataclass
class GapReport:
    """What fill_gaps did to each missing run."""

    records: list = field(default_factory=list)

    def count(self, method: Optional[str] = None) -> int:
        if method is None:
            return len(self.records)
        return sum(1 for r in self.records if r.method == method)


def _missing_runs(mask: np.ndarray):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.append(idx[0], idx[breaks + 1])
    ends = np.append(idx[breaks], idx[-1])
    return list(zip(starts, ends))


def fill_gaps(series: RawSeries, policy: GapFillPolicy = GapFillPolicy()):
    """Fill short missing runs; leave long ones missing.

    Interior runs of up to ``policy.max_interior`` samples are linearly
    interpolated in time between the bounding present values (a single missing
    sample becomes the mean of its neighbors at regular cadence). Leading and
    trailing runs of up to ``policy.max_edge`` samples hold the nearest
    present value. Longer runs stay missing and are reported as such.

    Returns:
        (filled copy of the series, GapReport). Applying the fill twice yields
        the first application's output.

    Raises:
        UnfillableChannelError: if the series has no present values at all.
        DataError: a sample falls on a local day outside FIRST_DAY..LAST_DAY.
    """
    n = len(series)
    if n == 0 or np.all(series.missing):
        raise UnfillableChannelError(f"{series.channel}: no present values to fill from")

    _check_calendar(series)
    values = series.values.copy()
    missing = series.missing.copy()
    tz = series.tzinfo
    report = GapReport()

    for s, e in _missing_runs(series.missing):
        length = int(e - s + 1)
        start_dt = _local_datetime(series.epochs[s], tz)

        if s == 0 or e == n - 1:  # touches an edge; only hold is safe
            if length <= policy.max_edge:
                anchor = values[e + 1] if s == 0 else values[s - 1]
                values[s : e + 1] = anchor
                missing[s : e + 1] = False
                method = "edge-hold"
            else:
                method = "left-unfilled"
        elif length <= policy.max_interior:
            t_l, t_r = series.epochs[s - 1], series.epochs[e + 1]
            v_l, v_r = values[s - 1], values[e + 1]
            frac = (series.epochs[s : e + 1] - t_l) / (t_r - t_l)
            values[s : e + 1] = v_l + (v_r - v_l) * frac
            missing[s : e + 1] = False
            method = "interpolated"
        else:
            method = "left-unfilled"

        report.records.append(GapRecord(series.channel, int(s), start_dt, length, method))

    filled = replace(series, epochs=series.epochs.copy(), values=values, missing=missing)
    return filled, report


@dataclass
class DailySeries:
    """One channel aggregated to local calendar days.

    ``coverage`` is the fraction of expected samples present per day, clamped
    to [0, 1]; days under VALID_DAY_COVERAGE carry no value.
    """

    channel: str
    dates: list
    values: np.ndarray
    missing: np.ndarray
    coverage: np.ndarray


# The local days a series or a synthetic building may hold: every day's
# closing midnight must be a date too.
FIRST_DAY, LAST_DAY = date.min, date.max - timedelta(days=1)


def local_midnights(first: date, n: int, tz) -> np.ndarray:
    """Epoch seconds of the ``n`` local midnights from ``first`` on in zone ``tz``;
    a day with a DST shift is shorter or longer than 86400 s."""
    days = (first + timedelta(days=i) for i in range(n))
    return np.array([datetime.combine(d, time(0), tzinfo=tz).timestamp() for d in days])


def _check_calendar(series: RawSeries):
    """Raise DataError if a sample of ``series`` falls on a local day outside
    FIRST_DAY..LAST_DAY."""
    tz = series.tzinfo
    lo, hi = (local_midnights(d, 1, tz)[0] for d in (FIRST_DAY, LAST_DAY + timedelta(days=1)))
    if series.epochs[0] < lo or series.epochs[-1] >= hi:
        raise DataError(
            f"{series.channel}: samples fall on local days outside {FIRST_DAY}..{LAST_DAY}"
        )


def _local_datetime(epoch: float, tz) -> datetime:
    """``datetime.fromtimestamp(epoch, tz)``, also where the local day is in
    FIRST_DAY..LAST_DAY but the UTC date is not a date (Tokyo's 0001-01-01
    morning). Outside _FIRST_SAFE_EPOCH.._LAST_SAFE_EPOCH only the two local
    days at the nearer end of the calendar are checked, and an instant on one
    is timed from its midnight; any other epoch (NaN, an infinity, a day off
    the calendar) goes to fromtimestamp as it is."""
    if not _FIRST_SAFE_EPOCH <= epoch <= _LAST_SAFE_EPOCH:
        first = FIRST_DAY if epoch < 0 else LAST_DAY - timedelta(days=1)
        midnights = local_midnights(first, 3, tz)
        if midnights[0] <= epoch < midnights[2]:
            i = int(epoch >= midnights[1])
            day = datetime.combine(first + timedelta(days=i), time(0), tzinfo=tz)
            return day + timedelta(seconds=epoch - midnights[i])
    return datetime.fromtimestamp(epoch, tz)


def _day_slices(series: RawSeries):
    """Split sample indices by local calendar day.

    Returns (list of dates, boundary index array of length len(dates)+1).
    """
    _check_calendar(series)
    tz = series.tzinfo
    first, last = (_local_datetime(series.epochs[i], tz).date() for i in (0, -1))
    n_days = (last - first).days + 1
    dates = [first + timedelta(days=i) for i in range(n_days)]
    boundaries = local_midnights(first, n_days + 1, tz)
    return dates, np.searchsorted(series.epochs, boundaries, side="left")


def resample_daily(series: RawSeries, how: str) -> DailySeries:
    """Aggregate a RawSeries to daily values in its local zone.

    Args:
        series: gap-filled interval series.
        how: 'sum' for quantities like energy, 'mean' for weather states.

    Only present samples enter the aggregate. A day whose present-sample
    coverage falls below VALID_DAY_COVERAGE is marked missing (its coverage is
    still recorded).
    A sample on a local day outside FIRST_DAY..LAST_DAY raises DataError.
    """
    if how not in ("sum", "mean"):
        raise ConfigError(f"unknown aggregation {how!r}")
    if len(series) == 0:
        raise EmptyInputError(f"{series.channel}: empty series")

    expected = 86400.0 / series.interval_seconds
    dates, bounds = _day_slices(series)
    present = series.values[~series.missing]
    # day i's present samples are present[first[i]:first[i] + count[i]]
    before = np.concatenate([[0], np.cumsum(~series.missing)])[bounds]
    first, count = before[:-1], np.diff(before)
    coverage = np.minimum(1.0, count / expected)
    missing = coverage < VALID_DAY_COVERAGE
    values = np.zeros(len(dates))
    reduce = np.sum if how == "sum" else np.mean
    # A C-contiguous (days, k) block reduces each row with the pairwise sum
    # of a 1-D slice, so every day length k keeps the per-day loop's bits.
    # The lengths come from bincount, as np.unique imports numpy.ma.
    for k in np.flatnonzero(np.bincount(count[~missing])):
        days = np.flatnonzero(~missing & (count == k))
        values[days] = reduce(present[first[days, None] + np.arange(k)], axis=1)

    return DailySeries(series.channel, dates, values, missing, coverage)


@dataclass
class DailyTable:
    """Joined daily energy and weather, the modeling substrate.

    Rows where energy or any weather channel is missing are flagged
    ``excluded`` and skipped by feature construction downstream.
    """

    dates: list
    energy: np.ndarray
    weather: dict
    weather_missing: dict
    energy_missing: np.ndarray
    coverage: dict
    excluded: np.ndarray

    def __len__(self):
        return len(self.dates)

    @property
    def n_excluded(self) -> int:
        return int(np.sum(self.excluded))


def align(
    energy: DailySeries,
    weather: dict,
    date_range: Optional[tuple] = None,
) -> DailyTable:
    """Inner-join daily energy with daily weather channels on date.

    Args:
        energy: daily energy series (sum-aggregated kWh).
        weather: mapping of channel name to its DailySeries.
        date_range: optional (first, last) dates to keep, inclusive.

    Raises:
        NoOverlapError: if the join is empty.
        DataError: if a present energy value is negative.
    """
    common = set(energy.dates)
    for w in weather.values():
        common &= set(w.dates)
    if date_range is not None:
        lo, hi = date_range
        common = {d for d in common if lo <= d <= hi}
    if not common:
        raise NoOverlapError("energy and weather share no dates in range")
    dates = sorted(common)

    def pick(ds: DailySeries):
        index = {d: i for i, d in enumerate(ds.dates)}
        rows = [index[d] for d in dates]
        return ds.values[rows].copy(), ds.missing[rows].copy(), ds.coverage[rows].copy()

    e_vals, e_miss, e_cov = pick(energy)
    if np.any(e_vals[~e_miss] < 0):
        raise DataError("negative daily energy after resampling")

    weather_vals, weather_miss = {}, {}
    coverage = {energy.channel: e_cov}
    excluded = e_miss.copy()
    for name in sorted(weather):
        vals, miss, cov = pick(weather[name])
        weather_vals[name] = vals
        weather_miss[name] = miss
        coverage[name] = cov
        excluded |= miss

    return DailyTable(
        dates=dates,
        energy=e_vals,
        weather=weather_vals,
        weather_missing=weather_miss,
        energy_missing=e_miss,
        coverage=coverage,
        excluded=excluded,
    )
