"""Feature construction: daily table rows -> model inputs.

Column layout is deterministic: the requested weather channels in their given
order, then calendar features in a fixed order (day-of-week one-hot, cyclic
month, weekend flag). Standardization is fit on training rows only and never
touches one-hot/binary columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import ConfigError, DataError, DimensionError, InsufficientHistoryError, UnknownFeatureError

DEFAULT_WEATHER = ("drybulb_c", "solar_wm2", "rh_pct", "dewpoint_c", "windspeed_ms")

DOW_ONEHOT = "dow_onehot"
MONTH_CYCLIC = "month_cyclic"
WEEKEND_FLAG = "weekend_flag"
_CALENDAR_ORDER = (DOW_ONEHOT, MONTH_CYCLIC, WEEKEND_FLAG)

_DOW_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")


@dataclass(frozen=True)
class FeatureSpec:
    """What goes into the feature matrix.

    Attributes:
        weather_channels: daily weather channels, in column order.
        calendar: subset of {dow_onehot, month_cyclic, weekend_flag}.
        lookback_days: window length for sequence models.
    """

    weather_channels: tuple[str, ...] = DEFAULT_WEATHER
    calendar: tuple[str, ...] = (DOW_ONEHOT, MONTH_CYCLIC)
    lookback_days: int = 7

    def __post_init__(self):
        if self.lookback_days < 1:
            raise ConfigError("lookback_days must be at least 1")
        if len(set(self.weather_channels)) != len(self.weather_channels):
            raise ConfigError("duplicate weather channel in feature spec")
        for name in self.calendar:
            if name not in _CALENDAR_ORDER:
                raise UnknownFeatureError(f"unknown calendar feature {name!r}")
        if not self.weather_channels and not self.calendar:
            raise ConfigError("feature spec selects no features at all")


@dataclass
class FeatureMatrix:
    """Rows of features aligned with daily targets.

    ``binary`` marks indicator columns that standardization must skip.
    """

    dates: list
    X: np.ndarray
    y: np.ndarray
    names: list
    binary: np.ndarray

    def __len__(self):
        return len(self.dates)

    def date_mask(self, start: date, end: date) -> np.ndarray:
        return np.array([start <= d <= end for d in self.dates])


def build_features(table, spec: FeatureSpec) -> FeatureMatrix:
    """Build the feature matrix from the non-excluded rows of a daily table.

    Args:
        table: tsdata.DailyTable.
        spec: which columns to build.

    Raises:
        UnknownFeatureError: a requested weather channel is not in the table.
        DataError: no usable (non-excluded) rows.
    """
    keep = ~table.excluded
    if not np.any(keep):
        raise DataError("daily table has no usable rows")
    dates = [d for d, k in zip(table.dates, keep) if k]
    n = len(dates)

    cols, names, binary = [], [], []
    for ch in spec.weather_channels:
        if ch not in table.weather:
            raise UnknownFeatureError(f"weather channel {ch!r} not in table")
        cols.append(table.weather[ch][keep])
        names.append(ch)
        binary.append(False)

    for feat in _CALENDAR_ORDER:
        if feat not in spec.calendar:
            continue
        if feat == DOW_ONEHOT:
            dows = np.array([d.weekday() for d in dates])
            for k, dname in enumerate(_DOW_NAMES):
                cols.append((dows == k).astype(float))
                names.append(f"dow_{dname}")
                binary.append(True)
        elif feat == MONTH_CYCLIC:
            theta = np.array([2.0 * np.pi * (d.month - 1) / 12.0 for d in dates])
            cols.append(np.sin(theta))
            names.append("month_sin")
            binary.append(False)
            cols.append(np.cos(theta))
            names.append("month_cos")
            binary.append(False)
        elif feat == WEEKEND_FLAG:
            cols.append(np.array([1.0 if d.weekday() >= 5 else 0.0 for d in dates]))
            names.append("is_weekend")
            binary.append(True)

    X = np.column_stack(cols) if cols else np.zeros((n, 0))
    y = table.energy[keep].astype(float)
    return FeatureMatrix(dates=dates, X=X, y=y, names=names, binary=np.array(binary))


@dataclass(frozen=True)
class Scaler:
    """Per-column standardization parameters.

    ``std`` keeps the raw population standard deviation (possibly zero); a
    zero is replaced by 1 at application time. ``exempt`` columns pass
    through untouched.
    """

    mean: np.ndarray
    std: np.ndarray
    exempt: np.ndarray

    @property
    def effective_std(self) -> np.ndarray:
        return np.where(self.std > 0, self.std, 1.0)


def fit_scaler(matrix: FeatureMatrix, row_mask: np.ndarray) -> Scaler:
    """Fit column means/stds over the masked (training) rows only.

    Binary columns are recorded as exempt and keep identity parameters.

    Raises:
        DataError: if the mask selects no rows.
    """
    mask = np.asarray(row_mask, dtype=bool)
    if mask.shape != (len(matrix),):
        raise DimensionError("row mask length does not match matrix")
    if not np.any(mask):
        raise DataError("scaler mask selects no rows")
    sub = matrix.X[mask]
    # A column that is exactly constant gets std 0 and its own value as mean,
    # so it maps to 0; computing them would leave rounding residue instead.
    constant = sub.max(axis=0) == sub.min(axis=0)
    mean = np.where(constant, sub[0], sub.mean(axis=0))
    std = np.where(constant, 0.0, sub.std(axis=0))  # population (1/N) standard deviation
    exempt = matrix.binary.copy()
    mean = np.where(exempt, 0.0, mean)
    std = np.where(exempt, 1.0, std)
    return Scaler(mean=mean, std=std, exempt=exempt)


def _check_width(matrix: FeatureMatrix, scaler: Scaler):
    if matrix.X.shape[1] != scaler.mean.size:
        raise DimensionError(
            f"scaler fitted on {scaler.mean.size} columns, matrix has {matrix.X.shape[1]}"
        )


def apply_scaler(matrix: FeatureMatrix, scaler: Scaler) -> FeatureMatrix:
    """Return a standardized copy of the matrix (targets untouched)."""
    _check_width(matrix, scaler)
    X = (matrix.X - scaler.mean) / scaler.effective_std
    X[:, scaler.exempt] = matrix.X[:, scaler.exempt]
    return FeatureMatrix(
        dates=list(matrix.dates), X=X, y=matrix.y.copy(),
        names=list(matrix.names), binary=matrix.binary.copy(),
    )


@dataclass(frozen=True)
class TargetScaler:
    """Z-score parameters for the target column."""

    mean: float
    std: float

    @property
    def effective_std(self) -> float:
        return self.std if self.std > 0 else 1.0

    def transform(self, y):
        return (np.asarray(y, dtype=float) - self.mean) / self.effective_std

    def inverse(self, z):
        return np.asarray(z, dtype=float) * self.effective_std + self.mean


@dataclass
class SequenceSet:
    """Fixed-length daily windows for sequence models.

    windows[i] covers the lookback_days ending at target_dates[i], which is
    row rows[i] of the source matrix; the target is that final day's energy.
    Windows never span a break in the date sequence (an excluded or absent
    day).
    """

    windows: np.ndarray  # (S, L, F)
    targets: np.ndarray  # (S,)
    target_dates: list
    rows: np.ndarray  # (S,) int


def make_sequences(matrix: FeatureMatrix, lookback: int) -> SequenceSet:
    """Cut the matrix into contiguous lookback windows.

    Args:
        matrix: feature matrix whose rows are sorted by date.
        lookback: window length L >= 1.

    Returns:
        SequenceSet with one window per day that has L-1 contiguous
        predecessors; a fully contiguous N-row matrix yields N-L+1 windows.

    Raises:
        InsufficientHistoryError: fewer rows than one window, or no
            contiguous run long enough.
    """
    if lookback < 1:
        raise ConfigError("lookback must be at least 1")
    n = len(matrix)
    if n < lookback:
        raise InsufficientHistoryError(f"{n} rows < window of {lookback}")

    # Maximal runs of consecutive calendar dates.
    gaps = [
        i + 1
        for i in range(n - 1)
        if (matrix.dates[i + 1] - matrix.dates[i]).days != 1
    ]
    starts = [0] + gaps
    ends = gaps + [n]

    rows = [t for s, e in zip(starts, ends) for t in range(s + lookback - 1, e)]
    if not rows:
        raise InsufficientHistoryError(
            f"no contiguous run of {lookback} days in {n} rows"
        )
    return SequenceSet(
        windows=np.stack([matrix.X[t - lookback + 1 : t + 1] for t in rows]),
        targets=matrix.y[rows],
        target_dates=[matrix.dates[t] for t in rows],
        rows=np.array(rows),
    )
