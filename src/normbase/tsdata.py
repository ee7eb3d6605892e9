"""Ingestion of interval meter/weather CSVs into clean daily tables.

The pipeline here is parse -> fill_gaps -> resample_daily -> align. Files are
single-channel CSVs with a ``timestamp,<channel>`` header, ISO-8601 timestamps
and one numeric column where an empty cell means missing. Missing stays an
explicit state end to end; NaN never survives ingestion.

parse_series reads the canonical dialect (``YYYY-MM-DDTHH:MM:SS+HH:MM``, then
a plain decimal or empty cell), which serialize_series and synthgen write, in
one vector pass over the file's bytes. Other ISO-8601 forms (``...Z``
included), and naive timestamps in an IANA zone, go through the row-by-row
parser instead, at per-row cost, with the same results and errors.

Timestamps are stored internally as float64 epoch seconds plus the series
zone, which keeps multi-million-row series cheap. Day boundaries are always
computed in the series-local zone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta, timezone
from typing import Optional
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

log = logging.getLogger(__name__)

ENERGY_CHANNEL = "kwh"
WEATHER_CHANNELS = (
    "drybulb_c",
    "solar_wm2",
    "rh_pct",
    "dewpoint_c",
    "windspeed_ms",
    "winddir_deg",
)

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
    interval_seconds: int

    def __post_init__(self):
        if self.interval_seconds <= 0:
            raise ConfigError("interval_seconds must be positive")
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
        epochs: float64 epoch seconds, strictly increasing.
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


# Characters other than "\n" that str.splitlines() breaks lines at.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# Canonical timestamp 'YYYY-MM-DDTHH:MM:SS+HH:MM', then a comma. No byte of
# the timestamp or of an accepted value cell is a comma, so a row that passes
# has exactly two fields.
_STAMP_WIDTH = 26
_STAMP_DIGITS = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24])
_STAMP_PUNCT = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"), (22, ":"), (25, ","))
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])

# Value cells wider than this, or holding bytes outside this set, take the
# per-row path. Inside them Python's float() and NumPy's bytes-to-float cast
# agree: both read plain decimal literals and round correctly.
_VALUE_WIDTH = 32
_NUMBER_BYTES = np.zeros(256, dtype=bool)
_NUMBER_BYTES[list(b"0123456789+-.eE")] = True


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
    ok &= (ts[:, _STAMP_DIGITS] < 10).all(axis=1)

    def number(first, width):
        out = np.zeros(starts.size, dtype=np.int32)
        for col in range(first, first + width):
            out = out * 10 + ts[:, col]
        return out

    year, month, day = number(0, 4), number(5, 2), number(8, 2)
    hour, minute, second = number(11, 2), number(14, 2), number(17, 2)
    off_h, off_m = number(20, 2), number(23, 2)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + ((month == 2) & leap)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59) & (off_h <= 23) & (off_m <= 59)
    seconds = _days_from_civil(year, month, day).astype(np.int64) * 86400
    seconds += hour * 3600 + minute * 60 + second - sign * (off_h * 3600 + off_m * 60)
    return ok, seconds.astype(np.float64)


def _cell_values(buf: np.ndarray, first: np.ndarray, width: np.ndarray):
    """Cast the value cells buf[first:first + width] with one astype(float).

    Returns (ok, values, missing): ok marks cells that are empty or a plain
    decimal literal. Empty and non-finite cells are missing with value 0.
    """
    w = max(int(width.max(initial=0)), 1)
    cells = sliding_window_view(buf, w)[first]
    cells *= np.arange(w) < width[:, None]  # NUL padding, which the bytes dtype drops
    # NUL is not a number byte, so a cell passes only if all its bytes do
    numeric = (np.count_nonzero(_NUMBER_BYTES[cells], axis=1) == width) & (width > 0)
    values = np.zeros(first.size)
    rows = np.flatnonzero(numeric)
    try:
        values[rows] = cells[rows].view(f"S{w}")[:, 0].astype(np.float64)
    except ValueError:  # a malformed literal; the per-row path reports it
        numeric[:] = False
    missing = (width == 0) | ~np.isfinite(values)
    values[missing] = 0.0
    return numeric | (width == 0), values, missing


def _parse_rows(text: str, tz):
    """Parse the lines after the header of ``text``, split at "\\n" only.

    Canonical rows are decoded in one vector pass; every other line goes
    through _parse_lines in line order, so the first malformed line raises
    exactly as a row-by-row parse would.

    Returns (epochs, values, missing) in line order, blank lines dropped, or
    None when most lines are not canonical.
    """
    raw = text.encode("utf-8", "surrogatepass")
    size = len(raw)
    # zero padding lets every line, even the last, be read at full width
    raw += bytes(_STAMP_WIDTH + _VALUE_WIDTH)
    buf = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero(buf[:size] == ord("\n")) + 1
    ends = np.append(starts[1:] - 1, size)

    ok, epochs = _canonical_stamps(buf, starts)
    first = starts + _STAMP_WIDTH
    width = np.clip(ends - first, 0, None)
    ok &= width <= _VALUE_WIDTH
    cells_ok, values, missing = _cell_values(buf, first, np.where(ok, width, 0))
    ok &= cells_ok

    fallback = np.flatnonzero(~ok)
    if 2 * fallback.size > starts.size:
        return None
    bounds = zip(starts[fallback].tolist(), ends[fallback].tolist())
    texts = (raw[a:b].decode("utf-8", "surrogatepass") for a, b in bounds)
    blank, e, v, m = _parse_lines(zip((fallback + 2).tolist(), texts), tz)
    at = fallback[~np.isin(fallback + 2, blank)]
    ok[at] = True
    epochs[at], values[at], missing[at] = e, v, m
    return epochs[ok], values[ok], missing[ok]


def parse_series(text: str, schema: SeriesSchema) -> RawSeries:
    """Parse one channel CSV into a RawSeries.

    Rows are sorted by timestamp; duplicate timestamps collapse to the mean of
    their present values (counted on the result). Empty, 'nan' or infinite
    value cells become explicit missing entries.

    Rows in the canonical dialect that ``serialize_series`` and
    ``synthgen.write_dataset`` write (``YYYY-MM-DDTHH:MM:SS+HH:MM``, a comma,
    a plain decimal or empty value) are parsed in one vector pass. Other
    ISO-8601 forms (``...Z`` included), and naive timestamps (read in the
    schema zone, the earlier instant where an IANA zone repeats an hour), are
    accepted at per-row cost.

    Args:
        text: full CSV text including the ``timestamp,<channel>`` header.
        schema: declared channel/unit/timezone/cadence.

    Raises:
        EmptyInputError: no data rows.
        ParseError: malformed row, with its line number.
        SchemaError: header channel mismatch, or observed cadence inconsistent
            with the declared interval.
    """
    if not text:
        raise EmptyInputError(f"{schema.channel}: input is empty")
    if any(c in text for c in _LINE_BREAKS):  # number lines as splitlines() does
        text = "\n".join(text.splitlines())
    head = text.partition("\n")[0]

    header = [h.strip() for h in head.split(",")]
    if len(header) != 2 or header[0] != "timestamp":
        raise ParseError(f"expected header 'timestamp,<channel>', got {head!r}", 1)
    if header[1] != schema.channel:
        raise SchemaError(
            f"file carries channel {header[1]!r}, schema declares {schema.channel!r}"
        )

    tz = resolve_timezone(schema.timezone)
    rows = _parse_rows(text, tz)
    if rows is None:  # mostly other forms, for which the row loop alone is cheaper
        _, e, v, m = _parse_lines(enumerate(text.split("\n")[1:], start=2), tz)
        rows = np.array(e), np.array(v), np.array(m, dtype=bool)
    e, v, m = rows
    if not e.size:
        raise EmptyInputError(f"{schema.channel}: no data rows")

    order = np.argsort(e, kind="stable")
    e, v, m = e[order], v[order], m[order]

    dupes = 0
    if e.size > 1 and np.any(np.diff(e) == 0):
        # Collapse runs of equal timestamps to the mean of present values.
        uniq, start, counts = np.unique(e, return_index=True, return_counts=True)
        # a lone row keeps its value; + 0.0 turns -0.0 into 0.0, as np.mean does
        out_v, out_m = v[start] + 0.0, m[start]
        for i in np.flatnonzero(counts > 1):
            seg = slice(start[i], start[i] + counts[i])
            present = ~m[seg]
            out_m[i] = not np.any(present)
            out_v[i] = 0.0 if out_m[i] else float(np.mean(v[seg][present]))
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


def serialize_series(series: RawSeries) -> str:
    """Render a RawSeries back to the CSV format parse_series reads."""
    tz = series.tzinfo
    out = [f"timestamp,{series.channel}"]
    # tolist() yields Python floats, whose repr round-trips exactly
    for e, v, m in zip(series.epochs.tolist(), series.values.tolist(), series.missing):
        ts = datetime.fromtimestamp(e, tz).isoformat()
        out.append(f"{ts}," if m else f"{ts},{v!r}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class GapFillPolicy:
    """Limits for how long a missing run may be and still get filled."""

    max_interior: int = 30
    max_edge: int = 5

    def __post_init__(self):
        if self.max_interior < 0 or self.max_edge < 0:
            raise ConfigError("gap limits must be non-negative")


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
    """
    n = len(series)
    if n == 0 or np.all(series.missing):
        raise UnfillableChannelError(f"{series.channel}: no present values to fill from")

    values = series.values.copy()
    missing = series.missing.copy()
    tz = series.tzinfo
    report = GapReport()

    for s, e in _missing_runs(series.missing):
        length = int(e - s + 1)
        start_dt = datetime.fromtimestamp(series.epochs[s], tz)

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


def _day_slices(series: RawSeries):
    """Split sample indices by local calendar day.

    Returns (list of dates, boundary index array of length len(dates)+1).
    """
    tz = series.tzinfo
    first = datetime.fromtimestamp(series.epochs[0], tz).date()
    last = datetime.fromtimestamp(series.epochs[-1], tz).date()
    n_days = (last - first).days + 1
    dates = [first + timedelta(days=i) for i in range(n_days)]
    boundaries = np.empty(n_days + 1)
    for i in range(n_days + 1):
        midnight = datetime.combine(first + timedelta(days=i), time(0), tzinfo=tz)
        boundaries[i] = midnight.timestamp()
    return dates, np.searchsorted(series.epochs, boundaries, side="left")


def resample_daily(series: RawSeries, how: str) -> DailySeries:
    """Aggregate a RawSeries to daily values in its local zone.

    Args:
        series: gap-filled interval series.
        how: 'sum' for quantities like energy, 'mean' for weather states.

    Only present samples enter the aggregate. A day whose present-sample
    coverage falls below VALID_DAY_COVERAGE is marked missing (its coverage is
    still recorded).
    """
    if how not in ("sum", "mean"):
        raise ConfigError(f"unknown aggregation {how!r}")
    if len(series) == 0:
        raise EmptyInputError(f"{series.channel}: empty series")

    expected = 86400.0 / series.interval_seconds
    dates, bounds = _day_slices(series)
    n_days = len(dates)
    values = np.zeros(n_days)
    missing = np.ones(n_days, dtype=bool)
    coverage = np.zeros(n_days)

    for i in range(n_days):
        seg = slice(bounds[i], bounds[i + 1])
        present = series.values[seg][~series.missing[seg]]
        coverage[i] = min(1.0, present.size / expected)
        if coverage[i] < VALID_DAY_COVERAGE:
            continue
        missing[i] = False
        values[i] = float(np.sum(present)) if how == "sum" else float(np.mean(present))

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
