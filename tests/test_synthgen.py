import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from normbase import synthgen, tsdata
from normbase.errors import ConfigError, DataError


def tiny_cfg(**over):
    base = dict(
        start=date(2019, 1, 1),
        study_start=date(2019, 3, 1),
        study_end=date(2019, 3, 21),
        interval_seconds=1800,  # coarse grid keeps these tests quick
        occupancy_drop=0.4,
        seed=3,
    )
    base.update(over)
    return synthgen.SynthConfig(**base)


class TestConfigValidation:
    def test_study_must_follow_start(self):
        with pytest.raises(ConfigError):
            tiny_cfg(start=date(2019, 4, 1))

    def test_study_range_ordered(self):
        with pytest.raises(ConfigError):
            tiny_cfg(study_start=date(2019, 3, 21), study_end=date(2019, 3, 1))

    def test_interval_must_divide_day(self):
        with pytest.raises(ConfigError):
            tiny_cfg(interval_seconds=7000)

    def test_drop_bounds(self):
        with pytest.raises(ConfigError):
            tiny_cfg(occupancy_drop=1.5)

    def test_weekly_pattern_shape(self):
        with pytest.raises(ConfigError):
            tiny_cfg(weekly_pattern=(1.0, 1.0))
        with pytest.raises(ConfigError):
            tiny_cfg(weekly_pattern=(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0))

    def test_unknown_timezone(self):
        with pytest.raises(ConfigError):
            tiny_cfg(timezone="Atlantis/Capital")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            tiny_cfg(seed=-1)

    def test_study_end_needs_a_closing_midnight(self):
        ends = dict(start=date(9999, 12, 1), study_start=date(9999, 12, 20))
        with pytest.raises(ConfigError, match="study_end must be on or before 9999-12-30"):
            tiny_cfg(study_end=date(9999, 12, 31), **ends)
        ds = synthgen.generate(tiny_cfg(study_end=date(9999, 12, 30), **ends))
        assert ds.dates[-1] == date(9999, 12, 30)


@pytest.fixture(scope="module")
def ds():
    return synthgen.generate(tiny_cfg())


class TestGenerate:
    def test_span_is_continuous(self, ds):
        dates = ds.dates
        assert dates[0] == date(2019, 1, 1)
        assert dates[-1] == date(2019, 3, 21)
        assert all((b - a).days == 1 for a, b in zip(dates, dates[1:]))

    def test_interval_energy_sums_to_daily_exactly(self, ds):
        n_per_day = 86400 // 1800
        values = ds.energy.values.reshape(len(ds.dates), n_per_day)
        np.testing.assert_allclose(values.sum(axis=1), ds.daily_energy, rtol=1e-12)

    def test_interval_weather_means_recover_daily(self, ds):
        n_per_day = 86400 // 1800
        for channel, daily in ds.daily_weather.items():
            values = ds.weather[channel].values.reshape(len(ds.dates), n_per_day)
            np.testing.assert_allclose(
                values.mean(axis=1), daily, rtol=1e-12,
                err_msg=f"daily mean broken for {channel}",
            )

    def test_reduction_matches_latent_gap(self, ds):
        mask = ds.study_mask
        gap = ds.latent_counterfactual[mask] - ds.latent_actual[mask]
        assert ds.reduction_kwh == float(np.sum(gap))
        assert ds.reduction_fraction == ds.reduction_kwh / float(
            np.sum(ds.latent_counterfactual[mask])
        )

    def test_latents_agree_outside_study(self, ds):
        outside = ~ds.study_mask
        np.testing.assert_array_equal(
            ds.latent_actual[outside], ds.latent_counterfactual[outside]
        )

    def test_occupancy_only_scales_people_load(self, ds):
        # inside the study the gap must equal weekly * share * base * drop
        cfg = ds.config
        mask = ds.study_mask
        wp = np.array([cfg.weekly_pattern[d.weekday()] for d, m in zip(ds.dates, mask) if m])
        want = wp * cfg.occupant_share * cfg.base_load_kwh * cfg.occupancy_drop
        gap = ds.latent_counterfactual[mask] - ds.latent_actual[mask]
        np.testing.assert_allclose(gap, want, rtol=1e-12)

    def test_same_seed_is_bit_identical(self):
        a = synthgen.generate(tiny_cfg())
        b = synthgen.generate(tiny_cfg())
        np.testing.assert_array_equal(a.energy.values, b.energy.values)
        np.testing.assert_array_equal(a.daily_energy, b.daily_energy)
        for ch in a.weather:
            np.testing.assert_array_equal(a.weather[ch].values, b.weather[ch].values)

    def test_energy_noise_stream_is_independent_of_drop(self):
        # weather comes from cfg.seed, noise from cfg.seed + 1; changing the
        # drop must leave both streams untouched
        a = synthgen.generate(tiny_cfg(occupancy_drop=0.0))
        b = synthgen.generate(tiny_cfg(occupancy_drop=0.4))
        for ch in a.daily_weather:
            np.testing.assert_array_equal(a.daily_weather[ch], b.daily_weather[ch])
        np.testing.assert_array_equal(a.latent_counterfactual, b.latent_counterfactual)
        noise_a = a.daily_energy - a.latent_actual
        noise_b = b.daily_energy - b.latent_actual
        np.testing.assert_allclose(noise_a, noise_b, atol=1e-9)

    def test_zero_drop_means_zero_reduction(self):
        ds = synthgen.generate(tiny_cfg(occupancy_drop=0.0))
        assert ds.reduction_kwh == 0.0
        assert ds.reduction_fraction == 0.0

    def test_excessive_noise_rejected(self):
        with pytest.raises(DataError):
            synthgen.generate(tiny_cfg(noise_sigma_kwh=5000.0))

    def test_solar_series_non_negative(self, ds):
        assert np.all(ds.weather["solar_wm2"].values >= 0.0)

    def test_daily_cadence_resamples_to_latents(self):
        # one sample per day, at midnight: no slot sees daylight
        ds = synthgen.generate(tiny_cfg(interval_seconds=86400))
        daily = tsdata.resample_daily(ds.energy, "sum")
        assert daily.dates == ds.dates
        np.testing.assert_allclose(daily.values, ds.daily_energy, rtol=1e-12)
        for channel, series in ds.weather.items():
            assert np.all(np.isfinite(series.values)), channel
            np.testing.assert_allclose(
                tsdata.resample_daily(series, "mean").values, ds.daily_weather[channel],
                rtol=1e-12, err_msg=f"daily mean broken for {channel}",
            )

    def test_dst_day_keeps_exact_daily_sum(self):
        cfg = tiny_cfg(
            timezone="America/New_York",
            start=date(2019, 3, 1),
            study_start=date(2019, 3, 15),
            study_end=date(2019, 3, 21),
        )
        ds = synthgen.generate(cfg)
        # 2019-03-10 has 23 local hours: 46 slots instead of 48
        series = ds.energy
        by_day = {}
        tz = tsdata.resolve_timezone(cfg.timezone)
        from datetime import datetime

        for e, v in zip(series.epochs, series.values):
            d = datetime.fromtimestamp(e, tz).date()
            by_day.setdefault(d, []).append(v)
        assert len(by_day[date(2019, 3, 10)]) == 46
        assert len(by_day[date(2019, 3, 11)]) == 48
        for i, d in enumerate(ds.dates):
            assert sum(by_day[d]) == pytest.approx(ds.daily_energy[i], rel=1e-12)


class TestTargeting:
    def test_round_trip_to_target(self):
        cfg = tiny_cfg(occupancy_drop=0.0)
        planted = synthgen.configure_for_target(cfg, 0.25)
        ds = synthgen.generate(planted)
        assert ds.reduction_fraction == pytest.approx(0.25, rel=1e-12)

    def test_drop_value_is_reported_exactly(self):
        cfg = tiny_cfg(occupancy_drop=0.0)
        drop = synthgen.occupancy_drop_for_target(cfg, 0.25)
        ds = synthgen.generate(replace(cfg, occupancy_drop=drop))
        assert ds.config.occupancy_drop == drop

    def test_unreachable_target(self):
        cfg = tiny_cfg(occupancy_drop=0.0, occupant_share=0.1)
        with pytest.raises(ConfigError):
            synthgen.occupancy_drop_for_target(cfg, 0.5)

    def test_no_occupant_load_means_no_target(self):
        cfg = tiny_cfg(occupancy_drop=0.0, occupant_share=0.0)
        with pytest.raises(ConfigError):
            synthgen.occupancy_drop_for_target(cfg, 0.1)

    def test_target_domain(self):
        with pytest.raises(ConfigError):
            synthgen.occupancy_drop_for_target(tiny_cfg(), 1.0)
        with pytest.raises(ConfigError):
            synthgen.occupancy_drop_for_target(tiny_cfg(), -0.1)


class TestWriteDataset:
    def test_files_round_trip_through_parser(self, tmp_path):
        ds = synthgen.generate(tiny_cfg())
        paths = synthgen.write_dataset(ds, tmp_path)
        assert set(paths) == {
            "kwh", "drybulb_c", "solar_wm2", "rh_pct",
            "dewpoint_c", "windspeed_ms", "winddir_deg", "ground_truth",
        }
        schema = tsdata.SeriesSchema("kwh", "kWh", ds.config.timezone, 1800)
        parsed = tsdata.parse_series(paths["kwh"].read_text(), schema)
        np.testing.assert_array_equal(parsed.values, ds.energy.values)
        np.testing.assert_array_equal(parsed.epochs, ds.energy.epochs)

    def test_daily_rollup_of_written_energy_matches_truth(self, tmp_path):
        ds = synthgen.generate(tiny_cfg())
        paths = synthgen.write_dataset(ds, tmp_path)
        schema = tsdata.SeriesSchema("kwh", "kWh", ds.config.timezone, 1800)
        parsed = tsdata.parse_series(paths["kwh"].read_text(), schema)
        daily = tsdata.resample_daily(parsed, "sum")
        assert daily.dates == ds.dates
        np.testing.assert_allclose(daily.values, ds.daily_energy, rtol=1e-12)

    def test_ground_truth_contents(self, tmp_path):
        ds = synthgen.generate(tiny_cfg())
        paths = synthgen.write_dataset(ds, tmp_path)
        truth = json.loads(paths["ground_truth"].read_text())
        assert truth["reduction_kwh"] == ds.reduction_kwh
        assert truth["reduction_fraction"] == ds.reduction_fraction
        assert truth["study"] == ["2019-03-01", "2019-03-21"]
        assert truth["occupancy_drop"] == 0.4
