import json
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normbase import features, savefile
from normbase.errors import (
    ConfigError,
    DataError,
    DimensionError,
    InsufficientHistoryError,
    UnknownFeatureError,
)


def make_table(start: date, energy, weather=None, excluded=None):
    """Minimal stand-in for tsdata.DailyTable."""
    from normbase.tsdata import DailyTable

    n = len(energy)
    dates = [start + timedelta(days=i) for i in range(n)]
    energy = np.asarray(energy, dtype=float)
    weather = {k: np.asarray(v, dtype=float) for k, v in (weather or {}).items()}
    excl = np.zeros(n, dtype=bool) if excluded is None else np.asarray(excluded, dtype=bool)
    return DailyTable(
        dates=dates,
        energy=energy,
        weather=weather,
        weather_missing={k: np.zeros(n, dtype=bool) for k in weather},
        energy_missing=np.zeros(n, dtype=bool),
        coverage=np.ones(n),
        excluded=excl,
    )


class TestSpecValidation:
    def test_defaults_ok(self):
        spec = features.FeatureSpec()
        assert spec.lookback_days == 7

    def test_bad_lookback(self):
        with pytest.raises(ConfigError):
            features.FeatureSpec(lookback_days=0)

    def test_duplicate_channel(self):
        with pytest.raises(ConfigError):
            features.FeatureSpec(weather_channels=("drybulb_c", "drybulb_c"))

    def test_unknown_calendar_feature(self):
        with pytest.raises(UnknownFeatureError):
            features.FeatureSpec(calendar=("phase_of_moon",))

    def test_empty_spec(self):
        with pytest.raises(ConfigError):
            features.FeatureSpec(weather_channels=(), calendar=())


class TestBuildFeatures:
    def table(self):
        # Mon 2020-01-06 .. Sun 2020-01-12
        return make_table(
            date(2020, 1, 6),
            energy=[10, 11, 12, 13, 14, 15, 16],
            weather={"drybulb_c": [1, 2, 3, 4, 5, 6, 7]},
        )

    def test_column_layout(self):
        spec = features.FeatureSpec(
            weather_channels=("drybulb_c",),
            calendar=("dow_onehot", "month_cyclic", "weekend_flag"),
        )
        m = features.build_features(self.table(), spec)
        assert m.names == [
            "drybulb_c",
            "dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun",
            "month_sin", "month_cos",
            "is_weekend",
        ]
        assert m.binary.tolist() == [False] + [True] * 7 + [False, False] + [True]
        assert m.X.shape == (7, 11)

    def test_dow_onehot_rows(self):
        spec = features.FeatureSpec(weather_channels=(), calendar=("dow_onehot",))
        m = features.build_features(self.table(), spec)
        np.testing.assert_array_equal(m.X, np.eye(7))

    def test_month_cyclic_values(self):
        spec = features.FeatureSpec(weather_channels=(), calendar=("month_cyclic",))
        m = features.build_features(self.table(), spec)
        # January -> angle 0
        assert m.X[0, 0] == 0.0
        assert m.X[0, 1] == 1.0

    def test_month_cyclic_continuity(self):
        # December (month 12) angle = 2*pi*11/12; adjacent to January around the circle
        t = make_table(date(2020, 12, 1), [1.0], weather={})
        spec = features.FeatureSpec(weather_channels=(), calendar=("month_cyclic",))
        m = features.build_features(t, spec)
        theta = 2 * math.pi * 11 / 12
        assert m.X[0, 0] == pytest.approx(math.sin(theta))
        assert m.X[0, 1] == pytest.approx(math.cos(theta))

    def test_weekend_flag(self):
        spec = features.FeatureSpec(weather_channels=(), calendar=("weekend_flag",))
        m = features.build_features(self.table(), spec)
        assert m.X[:, 0].tolist() == [0, 0, 0, 0, 0, 1, 1]

    def test_excluded_rows_dropped(self):
        t = make_table(
            date(2020, 1, 6),
            energy=[10, 11, 12],
            weather={"drybulb_c": [1, 2, 3]},
            excluded=[False, True, False],
        )
        m = features.build_features(t, features.FeatureSpec(weather_channels=("drybulb_c",)))
        assert len(m) == 2
        assert m.dates == [date(2020, 1, 6), date(2020, 1, 8)]
        assert m.y.tolist() == [10.0, 12.0]

    def test_unknown_weather_channel(self):
        with pytest.raises(UnknownFeatureError):
            features.build_features(
                self.table(), features.FeatureSpec(weather_channels=("snowfall_mm",))
            )

    def test_all_rows_excluded(self):
        t = make_table(date(2020, 1, 6), [1.0], weather={}, excluded=[True])
        with pytest.raises(DataError):
            features.build_features(t, features.FeatureSpec(weather_channels=()))


class TestScaler:
    def matrix(self):
        t = make_table(
            date(2020, 1, 6),
            energy=[10, 11, 12],
            weather={"drybulb_c": [1.0, 2.0, 3.0]},
        )
        spec = features.FeatureSpec(weather_channels=("drybulb_c",), calendar=("weekend_flag",))
        return features.build_features(t, spec)

    def test_hand_values(self):
        m = self.matrix()
        sc = features.fit_scaler(m, np.ones(3, dtype=bool))
        assert sc.mean[0] == 2.0
        # population std of [1,2,3] = sqrt(2/3)
        assert sc.std[0] == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        out = features.apply_scaler(m, sc)
        assert out.X[0, 0] == pytest.approx(-1.2247448713915890, rel=1e-15)
        assert out.X[1, 0] == 0.0
        assert out.X[2, 0] == pytest.approx(1.2247448713915890, rel=1e-15)

    def test_binary_column_untouched(self):
        m = self.matrix()
        sc = features.fit_scaler(m, np.ones(3, dtype=bool))
        out = features.apply_scaler(m, sc)
        np.testing.assert_array_equal(out.X[:, 1], m.X[:, 1])
        assert sc.exempt[1]

    def test_fit_uses_only_masked_rows(self):
        m = self.matrix()
        sc = features.fit_scaler(m, np.array([True, True, False]))
        assert sc.mean[0] == 1.5

    def test_zero_variance_column(self):
        t = make_table(date(2020, 1, 6), [1, 2], weather={"drybulb_c": [5.0, 5.0]})
        m = features.build_features(t, features.FeatureSpec(weather_channels=("drybulb_c",)))
        sc = features.fit_scaler(m, np.ones(2, dtype=bool))
        out = features.apply_scaler(m, sc)
        # zero std treated as 1 -> centered values, no blow-up
        assert out.X[:, 0].tolist() == [0.0, 0.0]

    def test_empty_mask(self):
        with pytest.raises(DataError):
            features.fit_scaler(self.matrix(), np.zeros(3, dtype=bool))

    def test_width_mismatch(self):
        m = self.matrix()
        sc = features.fit_scaler(m, np.ones(3, dtype=bool))
        narrow = features.build_features(
            make_table(date(2020, 1, 6), [1.0], weather={"drybulb_c": [2.0]}),
            features.FeatureSpec(weather_channels=("drybulb_c",), calendar=()),
        )
        with pytest.raises(DimensionError):
            features.apply_scaler(narrow, sc)

    def test_dict_round_trip_exact(self):
        sc = features.fit_scaler(self.matrix(), np.ones(3, dtype=bool))
        sc2 = savefile.from_json(features.Scaler, json.loads(json.dumps(savefile.to_json(sc))))
        np.testing.assert_array_equal(sc.mean, sc2.mean)
        np.testing.assert_array_equal(sc.std, sc2.std)
        np.testing.assert_array_equal(sc.exempt, sc2.exempt)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=2, max_size=40)
)
# Constant columns. The mean of seven copies of 4.1369e-107 rounds off the
# value, so a computed std is rounding residue that maps the column to -1.
@example(vals=[4.1369e-107] * 3)
@example(vals=[4.1369e-107] * 7)
def test_standardized_training_columns_have_unit_stats(vals):
    t = make_table(date(2020, 1, 1), [1.0] * len(vals), weather={"drybulb_c": vals})
    m = features.build_features(
        t, features.FeatureSpec(weather_channels=("drybulb_c",), calendar=())
    )
    sc = features.fit_scaler(m, np.ones(len(vals), dtype=bool))
    out = features.apply_scaler(m, sc)
    col = out.X[:, 0]
    assert abs(col.mean()) < 1e-9
    if np.std(vals) > 1e-9:
        assert col.std() == pytest.approx(1.0, abs=1e-9)


class TestTargetScaler:
    def test_round_trip(self):
        ts = features.TargetScaler(mean=20.0, std=math.sqrt(200.0 / 3.0))
        z = ts.transform([10.0, 20.0, 30.0])
        np.testing.assert_allclose(ts.inverse(z), [10.0, 20.0, 30.0], atol=1e-12)
        assert z[1] == 0.0

    def test_constant_target(self):
        ts = features.TargetScaler(mean=5.0, std=0.0)
        assert ts.transform([5.0]).tolist() == [0.0]
        assert ts.inverse([0.0]).tolist() == [5.0]


class TestSequences:
    def matrix(self, n, start=date(2020, 1, 1), drop=()):
        t = make_table(
            start,
            energy=list(range(n)),
            weather={"drybulb_c": list(range(n))},
            excluded=[i in drop for i in range(n)],
        )
        return features.build_features(
            t, features.FeatureSpec(weather_channels=("drybulb_c",), calendar=())
        )

    def test_contiguous_count(self):
        seqs = features.make_sequences(self.matrix(10), lookback=3)
        assert seqs.windows.shape == (8, 3, 1)
        assert seqs.targets.tolist() == list(range(2, 10))
        assert seqs.target_dates[0] == date(2020, 1, 3)

    def test_window_contents(self):
        seqs = features.make_sequences(self.matrix(5), lookback=2)
        np.testing.assert_array_equal(seqs.windows[0][:, 0], [0.0, 1.0])
        np.testing.assert_array_equal(seqs.windows[-1][:, 0], [3.0, 4.0])

    def test_gap_breaks_runs(self):
        # dropping row 4 splits 10 days into runs of 4 and 5
        seqs = features.make_sequences(self.matrix(10, drop={4}), lookback=3)
        assert seqs.windows.shape[0] == (4 - 2) + (5 - 2)
        # no window may straddle the missing day
        for w, d in zip(seqs.windows, seqs.target_dates):
            assert d != date(2020, 1, 5)
            span = w[-1, 0] - w[0, 0]
            assert span == 2.0  # strictly consecutive values

    def test_lookback_one(self):
        seqs = features.make_sequences(self.matrix(4), lookback=1)
        assert seqs.windows.shape == (4, 1, 1)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientHistoryError):
            features.make_sequences(self.matrix(3), lookback=5)

    def test_no_long_enough_run(self):
        # 6 rows, every third excluded -> max run 2 < lookback 3
        seqs_matrix = self.matrix(8, drop={2, 5})
        with pytest.raises(InsufficientHistoryError):
            features.make_sequences(seqs_matrix, lookback=3)

    def test_bad_lookback(self):
        with pytest.raises(ConfigError):
            features.make_sequences(self.matrix(4), lookback=0)
