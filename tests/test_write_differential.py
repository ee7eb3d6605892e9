"""The canonical-dialect writer against the per-row loops it replaced.

``reference_serialize_series`` and ``reference_write_dataset`` are the
earlier ``tsdata.serialize_series`` and ``synthgen.write_dataset``, kept
verbatim as oracles except for one fix the writer shares: an instant whose
UTC date is in year 0 but whose local day is 0001-01-01 (east of UTC) is
rendered, not rejected as datetime.fromtimestamp rejects it. For every drawn
series the two must produce the same text byte for byte, or raise the same
exception with the same message; for every small synthetic building they
must write the same files.
"""

import json
import zoneinfo
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase import synthgen, tsdata
from normbase.synthgen import SynthDataset
from normbase.tsdata import WEATHER_CHANNELS, RawSeries, SeriesSchema, resolve_timezone

# -- oracles: the per-row writers, unchanged but for reference_stamp ---------


# 400 Gregorian years repeat the calendar, weekdays included, and every zone
# keeps its local mean time through year 401
GREGORIAN_CYCLE = 146097 * 86400


def reference_stamp(e, tz) -> str:
    try:
        return datetime.fromtimestamp(e, tz).isoformat()
    except ValueError:
        if e < 0:  # UTC year 0: the same wall time 400 years on, if that is year 401
            try:
                later = datetime.fromtimestamp(e + GREGORIAN_CYCLE, tz)
                if later.year > 400:
                    return later.replace(year=later.year - 400).isoformat()
            except ValueError:
                pass
        raise


def reference_serialize_series(series: RawSeries) -> str:
    """Render a RawSeries back to the CSV format parse_series reads."""
    tz = series.tzinfo
    out = [f"timestamp,{series.channel}"]
    # tolist() yields Python floats, whose repr round-trips exactly
    for e, v, m in zip(series.epochs.tolist(), series.values.tolist(), series.missing):
        ts = reference_stamp(e, tz)
        out.append(f"{ts}," if m else f"{ts},{v!r}")
    return "\n".join(out) + "\n"


def reference_write_dataset(ds: SynthDataset, outdir) -> dict:
    """Write channel CSVs plus ground_truth.json; returns name -> path.

    Output files use the exact dialect parse_series reads. Timestamps are
    rendered once and shared across channels.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tz = resolve_timezone(ds.config.timezone)
    stamps = [datetime.fromtimestamp(e, tz).isoformat() for e in ds.energy.epochs]

    paths = {}

    def dump(series: RawSeries):
        rows = [f"timestamp,{series.channel}"]
        # tolist() yields Python floats, whose repr round-trips exactly
        rows.extend(f"{t},{v!r}" for t, v in zip(stamps, series.values.tolist()))
        path = out / f"{series.channel}.csv"
        path.write_text("\n".join(rows) + "\n")
        paths[series.channel] = path

    dump(ds.energy)
    for channel in WEATHER_CHANNELS:
        dump(ds.weather[channel])

    truth = {
        "reduction_kwh": ds.reduction_kwh,
        "reduction_fraction": ds.reduction_fraction,
        "study": [ds.config.study_start.isoformat(), ds.config.study_end.isoformat()],
        "occupancy_drop": ds.config.occupancy_drop,
        "seed": ds.config.seed,
        "noise_sigma_kwh": ds.config.noise_sigma_kwh,
    }
    truth_path = out / "ground_truth.json"
    truth_path.write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    paths["ground_truth"] = truth_path
    return paths


# -- drawn series ------------------------------------------------------------

ZONES = (
    "UTC", "+05:30", "-03:30", "America/New_York", "Australia/Lord_Howe",
    "Asia/Kathmandu", "Europe/Dublin", "Africa/Freetown",
)
# instants the drawn rows cluster around: zone transitions (each zone is
# drawn with every anchor, so most land on a plain day somewhere)
ANCHORS = (
    0,
    1583650800,  # 2020-03-08T07:00Z, the New York spring gap
    1604210400,  # 2020-11-01T06:00Z, the New York autumn fold
    1586012400,  # 2020-04-04T15:00Z, Lord Howe falls back 30 minutes
    1601739000,  # 2020-10-03T15:30Z, Lord Howe springs forward 30 minutes
    1585443600,  # 2020-03-29T01:00Z, Dublin's summer time
    504901800,  # 1985-12-31T18:30Z, Kathmandu moves from +05:30 to +05:45
    -957308400,  # 1939-09-01, Freetown: the closest pair of transitions,
    -956964000,  # 344,400 s apart
    -2717650800,  # 1883-11-18T17:00Z, New York leaves local mean time
    -62135596800,  # 0001-01-01T00:00Z
    -62135596800 + 86400,
    253402300799,  # 9999-12-31T23:59:59Z
    253402300799 - 86400,
    -62135596800 - 3 * 86400,  # out of range
    253402300800 + 86400,
)
CADENCES = (60, 300, 900, 1800, 3600, 86400)
FRACTIONS = (0.5, 0.25, 1e-7, 0.4999995, 0.9999996, 1e-9)

values_17 = st.sampled_from([
    0.1 + 0.2, 1 / 3, 2 / 3, 123456.78901234567, -0.0, 0.0, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 9.999999999999999e-5,
])
values = st.one_of(st.floats(), st.floats(width=32), values_17)


@st.composite
def series(draw):
    zone = draw(st.sampled_from(ZONES))
    cadence = draw(st.one_of(st.sampled_from(CADENCES), st.integers(60, 86400)))
    n = draw(st.integers(0, 60))
    start = draw(st.sampled_from(ANCHORS)) - cadence * draw(st.integers(0, max(n - 1, 0)))
    epochs = start + cadence * np.arange(n, dtype=np.float64)
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []:
        epochs[i] += draw(st.sampled_from(FRACTIONS))
    # runs of repeated values, as in a channel held for a day
    cells = draw(st.lists(st.tuples(values, st.integers(1, 8)), max_size=n))
    v = [x for x, k in cells for _ in range(k)][:n]
    v += [1.5] * (n - len(v))
    missing = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    s = RawSeries("kwh", "kWh", cadence, zone, epochs, np.zeros(n), missing)
    # set after construction: the writer renders what it is given, also
    # non-finite present values and epochs out of order or out of range
    s.values = np.array(v, dtype=np.float64)
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        s.epochs[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e20, -1e20, 2.5e11]))
    if draw(st.booleans()):
        s.epochs = draw(st.permutations(s.epochs.tolist()))
        s.epochs = np.array(s.epochs, dtype=np.float64)
    return s


def outcome(serialize, s):
    try:
        return serialize(s)
    except Exception as e:
        return type(e), str(e)


def new_york(epochs):
    return RawSeries("kwh", "kWh", 3600, "America/New_York", np.array(epochs, dtype=float),
                     np.arange(len(epochs), dtype=float), np.zeros(len(epochs), dtype=bool))


def east_of_utc(epochs, zone):
    return RawSeries("kwh", "kWh", 1800, zone, np.array(epochs, dtype=float),
                     np.arange(len(epochs), dtype=float), np.zeros(len(epochs), dtype=bool))


@settings(deadline=None, max_examples=300)
@given(series())
@example(new_york([-2717650800 - 3600.0, -2717650800.0, -2717650800 + 3600.0]))
@example(new_york([1604210400 + 3600.0 * k for k in range(4)]))
@example(east_of_utc([-62135596800 - 5 * 3600 + 1800.0 * k for k in range(8)], "+05:30"))
@example(east_of_utc([-62135596800 - 9 * 3600 + 3600.0 * k for k in range(30)], "Asia/Tokyo"))
def test_serialize_matches_per_row_writer(s):
    assert outcome(tsdata.serialize_series, s) == outcome(reference_serialize_series, s)


def test_first_day_of_the_calendar_east_of_utc():
    # Tokyo keeps local mean time, +09:18:59, so its 0001-01-01 opens on 0000-12-31 in UTC
    s = east_of_utc([-62135596800 - 33539 + 3600.0 * k for k in range(3)], "Asia/Tokyo")
    assert tsdata.render_stamps(s.epochs, s.tzinfo) == [
        f"0001-01-01T0{k}:00:00+09:18:59," for k in range(3)
    ]


@pytest.mark.parametrize("epoch, zone", [
    (np.nan, "Asia/Tokyo"),
    (np.nan, "UTC"),
    (-62135596800 - 3600.0, "UTC"),  # 0000-12-31T23:00
    (-62135596800 - 10 * 3600.0, "+09:00"),  # 0000-12-31T23:00+09:00
    (-62135596800 - 33539 - 1.0, "Asia/Tokyo"),  # 0000-12-31T23:59:59+09:18:59
])
def test_nan_and_local_year_0_raise(epoch, zone):
    tz = resolve_timezone(zone)
    with pytest.raises(ValueError):
        tsdata.render_stamps(np.array([0.0, epoch]), tz)
    with pytest.raises(ValueError):
        tsdata._local_datetime(epoch, tz)


@pytest.mark.parametrize("epoch", [np.nan, np.inf, 1e20, -62135596800 - 86400, 0.5])
def test_first_rejected_row_raises_as_before(epoch):
    s = new_york([0.0, 3600.0, 7200.0])
    s.epochs[1] = epoch
    s.epochs[2] = np.nan
    assert outcome(tsdata.serialize_series, s) == outcome(reference_serialize_series, s)


def test_equal_values_keep_their_own_spelling():
    s = new_york([3600.0 * k for k in range(8)])
    s.values = np.array([0.0, -0.0, -0.0, 0.0, np.nan, -np.nan, 5e-324, 5e-324])
    assert tsdata.serialize_series(s) == reference_serialize_series(s)


def test_empty_series():
    s = RawSeries("kwh", "kWh", 3600, "UTC", [], [], [])
    assert tsdata.serialize_series(s) == reference_serialize_series(s) == "timestamp,kwh\n"


def test_rows_render_in_blocks(monkeypatch):
    monkeypatch.setattr(tsdata, "_RENDER_BLOCK", 7)
    s = new_york([1604210400 + 900.0 * k for k in range(30)])
    s.missing[::4] = True
    assert tsdata.serialize_series(s) == reference_serialize_series(s)


def test_no_two_transitions_within_a_day():
    """The day-ends offset rule holds for every zone of the installed tzdata."""
    from zoneinfo import _zoneinfo

    gaps = {}
    for key in zoneinfo.available_timezones():
        trans = _zoneinfo.ZoneInfo(key)._trans_utc
        if len(trans) > 1:
            gaps[key] = min(b - a for a, b in zip(trans, trans[1:]))
    assert min(gaps.values()) > 86400


# -- synthetic buildings -----------------------------------------------------

BUILDINGS = {
    "utc_hourly": dict(timezone="UTC", interval_seconds=3600),
    "kolkata_15min": dict(timezone="+05:30", interval_seconds=900),
    "new_york_gap": dict(timezone="America/New_York", interval_seconds=300,
                         start=date(2020, 3, 1), study_start=date(2020, 3, 6),
                         study_end=date(2020, 3, 10)),
    "new_york_fold": dict(timezone="America/New_York", interval_seconds=1800,
                          start=date(2020, 10, 20), study_start=date(2020, 10, 30),
                          study_end=date(2020, 11, 4)),
}


def building(**over):
    base = dict(start=date(2019, 12, 1), study_start=date(2020, 1, 20),
                study_end=date(2020, 2, 10), occupancy_drop=0.3, seed=5)
    return synthgen.generate(synthgen.SynthConfig(**{**base, **over}))


@pytest.mark.parametrize("name", sorted(BUILDINGS))
def test_write_dataset_matches_per_row_writer(name, tmp_path):
    ds = building(**BUILDINGS[name])
    new = synthgen.write_dataset(ds, tmp_path / "new")
    old = reference_write_dataset(ds, tmp_path / "old")
    assert {k: p.name for k, p in new.items()} == {k: p.name for k, p in old.items()}
    for key in old:
        assert new[key].read_bytes() == old[key].read_bytes(), key


# -- the writer's output takes the parser's vector path ----------------------


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


@pytest.mark.parametrize("zone", ["UTC", "+05:30", "America/New_York"])
@pytest.mark.parametrize("interval", [300, 86400])
def test_written_rows_skip_the_per_row_parser(zone, interval, tmp_path, monkeypatch):
    if interval == 86400 and zone == "America/New_York":  # days of 23 and 25 hours
        ds = building(timezone=zone, interval_seconds=interval, start=date(2020, 4, 1),
                      study_start=date(2020, 6, 1), study_end=date(2020, 6, 30))
    else:
        ds = building(timezone=zone, interval_seconds=interval, start=date(2020, 3, 1),
                      study_start=date(2020, 3, 6), study_end=date(2020, 3, 10))
    paths = synthgen.write_dataset(ds, tmp_path)
    per_row = spy_on_row_parser(monkeypatch)
    for s in (ds.energy, *ds.weather.values()):
        schema = SeriesSchema(s.channel, s.unit, zone, interval)
        parsed = tsdata.parse_series(paths[s.channel].read_text(), schema)
        assert parsed.epochs.tobytes() == s.epochs.tobytes()
        assert parsed.values.tobytes() == s.values.tobytes()
        assert per_row == [""]  # only the empty line after the final newline
        per_row.clear()
