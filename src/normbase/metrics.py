"""Prediction-quality metrics, the baseline acceptance gate and FitTrace.

All metric functions take daily actual/predicted vectors. Conventions that
downstream code relies on:

* Bias (NMBE) is computed as actual minus predicted, so a model that
  under-predicts real consumption gets a positive NMBE.
* R-squared uses the population (1/N) variance of the actual series in its
  denominator.
* Gate thresholds compare strictly: a metric sitting exactly on a limit fails.
"""

import calendar
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError, UndefinedMetricError
from .savefile import check_fields

# Gate limits for a daily-resolution baseline model and its monthly rollup.
MONTHLY_CV_LIMIT = 0.15
DAILY_CV_LIMIT = 0.22
MONTHLY_NMBE_LIMIT = 0.05
DAILY_NMBE_LIMIT = 0.07


def _as_pair(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or p.ndim != 1:
        raise DimensionError("metric inputs must be one-dimensional")
    if a.shape != p.shape:
        raise DimensionError(
            f"length mismatch: actual has {a.size} values, predicted has {p.size}"
        )
    if a.size == 0:
        raise DataError("metric inputs are empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise DataError("metric inputs contain non-finite values")
    return a, p


def rmse(actual, predicted) -> float:
    """Root-mean-square error between two equal-length vectors."""
    a, p = _as_pair(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def cv_rmse(actual, predicted) -> float:
    """RMSE normalized by the mean of the actual series.

    Raises:
        UndefinedMetricError: if the actual series has zero mean.
    """
    a, p = _as_pair(actual, predicted)
    mean = float(np.mean(a))
    if mean == 0.0:
        raise UndefinedMetricError("CV(RMSE) undefined: actual mean is zero")
    return float(np.sqrt(np.mean((a - p) ** 2)) / mean)


def r_squared(actual, predicted) -> float:
    """Coefficient of determination, 1 - SSE / (population variance * N).

    Raises:
        UndefinedMetricError: if the actual series is constant.
    """
    a, p = _as_pair(actual, predicted)
    ss_tot = float(np.sum((a - np.mean(a)) ** 2))
    # a constant series can still leave rounding residue around its mean
    if ss_tot == 0.0 or a.max() == a.min():
        raise UndefinedMetricError("R^2 undefined: actual series has zero variance")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


def nmbe(actual, predicted, p: int = 1) -> float:
    """Normalized mean bias error, sum(actual - predicted) / ((N - p) * mean).

    Args:
        actual: observed values.
        predicted: model values.
        p: adjustment subtracted from the sample count, default 1.

    Raises:
        ConfigError: if p is negative.
        DataError: if N <= p.
        UndefinedMetricError: if the actual series has zero mean.
    """
    if p < 0:
        raise ConfigError("NMBE adjustment p must be non-negative")
    a, pr = _as_pair(actual, predicted)
    n = a.size
    if n <= p:
        raise DataError(f"NMBE needs more than p={p} samples, got {n}")
    mean = float(np.mean(a))
    if mean == 0.0:
        raise UndefinedMetricError("NMBE undefined: actual mean is zero")
    return float(np.sum(a - pr) / ((n - p) * mean))


@dataclass
class FitTrace:
    """One model's training record. ``train[i]`` and ``val[i]`` are RMSEs in
    target units (kWh) over the training and the validation split in epoch
    or round i (``val`` is empty without a validation split), and ``best``
    is the step the returned model stops at. perfbench's tracer reads
    ``n_epochs``/``n_rounds``; drop them once it reads len(r[1].train).
    """

    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    best: int = -1
    n_epochs = n_rounds = property(lambda self: len(self.train))


@dataclass(frozen=True)
class KpiSet:
    """Metrics for one aggregation level (daily or monthly)."""

    rmse: float
    cv_rmse: float
    r_squared: float
    nmbe: float
    n: int = field(metadata={"minimum": 1})

    __post_init__ = check_fields


@dataclass(frozen=True)
class GateResult:
    """Per-criterion verdicts of the baseline acceptance gate, and all four."""

    monthly_cv_ok: bool
    daily_cv_ok: bool
    monthly_nmbe_ok: bool
    daily_nmbe_ok: bool
    passed: bool


@dataclass(frozen=True)
class KpiReport:
    """Daily and monthly KPI sets for one model plus its gate verdict.
    ``passed`` is the one acceptance rule: a gate exists and it passed."""

    daily: KpiSet
    monthly: Optional[KpiSet]
    gate: Optional[GateResult]
    p: int = field(metadata={"minimum": 0})
    __post_init__ = check_fields
    passed = property(lambda self: self.gate is not None and self.gate.passed)


@dataclass(frozen=True)
class MonthlyRollup:
    """Calendar-month sums over months with full daily coverage.

    months: list of (year, month) included.
    excluded: list of (year, month) skipped for incomplete coverage.
    """

    months: list
    actual: np.ndarray
    predicted: np.ndarray
    excluded: list


def _days_in_month(year: int, month: int) -> int:
    return calendar.monthrange(year, month)[1]


def monthly_rollup(dates, actual, predicted) -> MonthlyRollup:
    """Sum daily values into calendar months that are fully covered.

    A month is included only when every calendar day of that month appears in
    ``dates``. Partial months are reported in ``excluded``.

    Args:
        dates: sequence of datetime.date, one per row, unique.
        actual: daily actual values aligned with dates.
        predicted: daily predicted values aligned with dates.

    Raises:
        DataError: if no complete month exists.
    """
    a, p = _as_pair(actual, predicted)
    if len(dates) != a.size:
        raise DimensionError("dates and values have different lengths")

    by_month = {}
    for i, d in enumerate(dates):
        by_month.setdefault((d.year, d.month), []).append(i)

    months, act, pred, excluded = [], [], [], []
    for key in sorted(by_month):
        idx = by_month[key]
        if len(idx) == _days_in_month(*key):
            months.append(key)
            act.append(float(np.sum(a[idx])))
            pred.append(float(np.sum(p[idx])))
        else:
            excluded.append(key)
    if not months:
        raise DataError("no complete calendar month in the given dates")
    return MonthlyRollup(months, np.array(act), np.array(pred), excluded)


def ashrae_gate(daily: KpiSet, monthly: KpiSet) -> GateResult:
    """Apply the fixed acceptance thresholds to daily and monthly KPI sets.

    Passing requires monthly CV(RMSE) < 0.15, daily CV(RMSE) < 0.22,
    |monthly NMBE| < 0.05 and |daily NMBE| < 0.07, all strict.
    """
    if daily is None or monthly is None:
        raise DataError("gate needs both daily and monthly KPI sets")
    checks = dict(
        monthly_cv_ok=monthly.cv_rmse < MONTHLY_CV_LIMIT,
        daily_cv_ok=daily.cv_rmse < DAILY_CV_LIMIT,
        monthly_nmbe_ok=abs(monthly.nmbe) < MONTHLY_NMBE_LIMIT,
        daily_nmbe_ok=abs(daily.nmbe) < DAILY_NMBE_LIMIT,
    )
    return GateResult(**checks, passed=all(checks.values()))


def kpi_set(actual, predicted, p: int = 1) -> KpiSet:
    """Compute all four metrics over one aggregation level."""
    a, pr = _as_pair(actual, predicted)
    return KpiSet(
        rmse=rmse(a, pr),
        cv_rmse=cv_rmse(a, pr),
        r_squared=r_squared(a, pr),
        nmbe=nmbe(a, pr, p=p),
        n=a.size,
    )


def kpi_report(dates, actual, predicted, p: int = 1) -> KpiReport:
    """Daily KPIs, monthly-rollup KPIs, and the gate verdict in one call.

    Monthly KPIs need at least max(2, p + 1) fully covered calendar months:
    one month is too few for R^2, and NMBE needs more months than p. When
    they cannot be computed the monthly set and gate are omitted (None)
    rather than raised, so callers on short windows still get daily numbers.
    """
    daily = kpi_set(actual, predicted, p=p)
    try:
        roll = monthly_rollup(dates, actual, predicted)
        monthly = kpi_set(roll.actual, roll.predicted, p=p)
    except DataError:
        return KpiReport(daily=daily, monthly=None, gate=None, p=p)
    return KpiReport(daily=daily, monthly=monthly, gate=ashrae_gate(daily, monthly), p=p)
