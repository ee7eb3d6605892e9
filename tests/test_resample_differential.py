"""tsdata.resample_daily against the per-day loop it replaced.

``reference_resample_daily`` is the earlier ``resample_daily``, kept verbatim
as the oracle: one slice, mask and reduction per local calendar day. For
every drawn series the two must return the same dates and the same values,
missing flags and coverage bit for bit. The draws cover days made short or
long by a DST change, days with no sample at all, and days whose coverage
falls below VALID_DAY_COVERAGE.
"""

from datetime import datetime, timezone

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from normbase import tsdata
from normbase.errors import ConfigError, EmptyInputError
from normbase.tsdata import VALID_DAY_COVERAGE, DailySeries, RawSeries, _day_slices

# -- oracle: the per-day loop, unchanged --------------------------------------


def reference_resample_daily(series: RawSeries, how: str) -> DailySeries:
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


# -- drawn series -------------------------------------------------------------

ZONES = ("UTC", "America/New_York", "Europe/London", "Australia/Lord_Howe")
# local days around the spring and autumn clock changes of the zones above
ANCHORS = tuple(
    datetime(*d, tzinfo=timezone.utc).timestamp()
    for d in ((2020, 3, 6), (2020, 3, 27), (2020, 10, 2), (2020, 10, 23), (2020, 10, 30))
)


@st.composite
def series(draw):
    zone = draw(st.sampled_from(ZONES))
    cadence = draw(st.sampled_from([300, 900, 1800, 3600]))
    n = draw(st.integers(1, int(5 * 86400 / cadence)))
    epochs = draw(st.sampled_from(ANCHORS)) + cadence * np.arange(n, dtype=float)
    keep = np.ones(n, dtype=bool)
    # a run of absent rows can empty a day or cut its coverage short
    for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=3)):
        keep[start:start + length] = False
    keep[0] = True
    missing_rate = draw(st.sampled_from([0.0, 0.05, 0.12, 0.5]))
    missing = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < missing_rate
    cells = st.floats(-1e6, 1e6, allow_nan=False) if draw(st.booleans()) else st.floats(0, 1e3)
    values = draw(hnp.arrays(float, n, elements=cells))
    return RawSeries("kwh", "kWh", cadence, zone, epochs[keep], values[keep], missing[keep])


def same_daily(a: DailySeries, b: DailySeries) -> bool:
    return a.dates == b.dates and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.values, b.values), (a.missing, b.missing), (a.coverage, b.coverage))
    )


def year_of_samples(cadence: int, knocked_out: float) -> RawSeries:
    rng = np.random.default_rng(cadence)
    n = int(366 * 86400 / cadence)
    return RawSeries(
        "kwh", "kWh", cadence, "America/New_York", ANCHORS[0] + cadence * np.arange(n, dtype=float),
        rng.gamma(2.0, 50.0, n), rng.random(n) < knocked_out,
    )


@settings(deadline=None, max_examples=300)
@given(series(), st.sampled_from(["sum", "mean"]))
@example(year_of_samples(3600, 0.05), "sum")
@example(year_of_samples(300, 0.05), "mean")
def test_resample_matches_per_day_loop(s, how):
    assert same_daily(tsdata.resample_daily(s, how), reference_resample_daily(s, how))
