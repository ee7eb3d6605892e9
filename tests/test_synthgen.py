import json
import math
from dataclasses import replace
from datetime import date, timedelta

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
        with pytest.raises(ConfigError, match="^seed must be >= 0, not -1$"):
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


# -- generate against the per-day emission it replaced ------------------------
#
# reference_generate and reference_drop_for_target are the earlier generate
# and occupancy_drop_for_target, kept verbatim with their helpers as the
# oracle: each works the study mask and the weekly weights out from the date
# list and emits every sample day by day, through a per-slot-count cache of
# diurnal profiles. Only the daily weather is shared (synthgen._daily_weather,
# which draws the same stream for both). generate must agree bit for bit.

_REF_ADDITIVE_SHAPE = {
    "drybulb_c": (4.0, 15.0),
    "dewpoint_c": (1.5, 16.0),
    "rh_pct": (-6.0, 15.0),
    "winddir_deg": (0.0, 0.0),
}
_REF_MULTIPLICATIVE_SHAPE = {"windspeed_ms": 0.25}


def _ref_dates_span(cfg):
    n = (cfg.study_end - cfg.start).days + 1
    return [cfg.start + timedelta(days=i) for i in range(n)]


def _ref_latent_daily(cfg, dates, weather, occupancy):
    wp = np.array([cfg.weekly_pattern[d.weekday()] for d in dates])
    heat = cfg.temp_coeff * np.maximum(0.0, weather["drybulb_c"] - cfg.balance_temp_c)
    sun = cfg.solar_coeff * weather["solar_wm2"]
    people = cfg.occupant_share * cfg.base_load_kwh * occupancy
    return wp * (cfg.base_load_kwh + people + heat + sun)


def _ref_day_grid(cfg, dates):
    starts = tsdata.local_midnights(dates[0], len(dates) + 1, tsdata.resolve_timezone(cfg.timezone))
    spans = np.diff(starts)
    slots = spans / cfg.interval_seconds
    if np.any(slots != np.round(slots)):
        raise ConfigError("interval_seconds must divide every local day in this zone")
    return starts[:-1], slots.astype(int)


def _ref_slot_hours(n_slots, interval):
    return np.arange(n_slots) * (interval / 3600.0)


def _ref_additive_profile(channel, n_slots, interval):
    amp, peak = _REF_ADDITIVE_SHAPE[channel]
    prof = amp * np.cos(2.0 * math.pi * (_ref_slot_hours(n_slots, interval) - peak) / 24.0)
    return prof - prof.mean()


def _ref_solar_profile(n_slots, interval):
    hod = _ref_slot_hours(n_slots, interval)
    bell = np.maximum(0.0, np.sin(math.pi * (hod - 6.0) / 12.0))
    if not bell.any():
        return np.ones(n_slots)
    return bell / bell.mean()


def _ref_mult_profile(channel, n_slots, interval):
    swing = _REF_MULTIPLICATIVE_SHAPE[channel]
    prof = 1.0 + swing * np.sin(2.0 * math.pi * (_ref_slot_hours(n_slots, interval) - 13.0) / 24.0)
    return prof / prof.mean()


def reference_generate(cfg):
    dates = _ref_dates_span(cfg)
    n_days = len(dates)
    in_study = np.array([cfg.study_start <= d <= cfg.study_end for d in dates])

    weather = synthgen._daily_weather(cfg, dates)
    occ = np.where(in_study, 1.0 - cfg.occupancy_drop, 1.0)
    latent_actual = _ref_latent_daily(cfg, dates, weather, occ)
    latent_cf = _ref_latent_daily(cfg, dates, weather, np.ones(n_days))

    rng_energy = np.random.default_rng(cfg.seed + 1)
    daily_energy = latent_actual + rng_energy.normal(0.0, cfg.noise_sigma_kwh, n_days)
    if np.any(daily_energy <= 0):
        raise DataError("noise drove a daily energy value non-positive; lower noise_sigma_kwh")

    gap = latent_cf[in_study] - latent_actual[in_study]
    reduction_kwh = float(np.sum(gap))
    reduction_fraction = reduction_kwh / float(np.sum(latent_cf[in_study]))

    day_starts, day_slots = _ref_day_grid(cfg, dates)
    epoch_parts = [
        start + np.arange(k) * float(cfg.interval_seconds)
        for start, k in zip(day_starts, day_slots)
    ]
    epochs = np.concatenate(epoch_parts)

    profile_cache = {}

    def profiles(n_slots):
        if n_slots not in profile_cache:
            iv = cfg.interval_seconds
            profile_cache[n_slots] = {
                "solar_wm2": _ref_solar_profile(n_slots, iv),
                **{c: _ref_additive_profile(c, n_slots, iv) for c in _REF_ADDITIVE_SHAPE},
                **{c: _ref_mult_profile(c, n_slots, iv) for c in _REF_MULTIPLICATIVE_SHAPE},
            }
        return profile_cache[n_slots]

    values = {}
    for channel in tsdata.WEATHER_CHANNELS:
        parts = []
        for i, k in enumerate(day_slots):
            prof = profiles(int(k))[channel]
            if channel in ("solar_wm2", *_REF_MULTIPLICATIVE_SHAPE):
                parts.append(weather[channel][i] * prof)
            else:
                parts.append(weather[channel][i] + prof)
        values[channel] = np.concatenate(parts)

    energy_parts = [
        np.full(int(k), daily_energy[i] / float(k)) for i, k in enumerate(day_slots)
    ]
    values[tsdata.ENERGY_CHANNEL] = np.concatenate(energy_parts)
    return dict(dates=dates, study_mask=in_study, daily_weather=weather,
                latent_actual=latent_actual, latent_counterfactual=latent_cf,
                daily_energy=daily_energy, reduction_kwh=reduction_kwh,
                reduction_fraction=reduction_fraction, epochs=epochs, values=values)


def reference_drop_for_target(cfg, target_fraction):
    dates = _ref_dates_span(cfg)
    in_study = np.array([cfg.study_start <= d <= cfg.study_end for d in dates])
    weather = synthgen._daily_weather(cfg, dates)
    cf = _ref_latent_daily(cfg, dates, weather, np.ones(len(dates)))[in_study]

    wp = np.array([cfg.weekly_pattern[d.weekday()] for d, s in zip(dates, in_study) if s])
    per_unit_drop = float(np.sum(wp)) * cfg.occupant_share * cfg.base_load_kwh
    return target_fraction * float(np.sum(cf)) / per_unit_drop


DIFFERENTIAL_CONFIGS = {
    "utc_hourly": dict(interval_seconds=3600),
    # 2019-03-10 has 23 local hours and 2019-11-03 has 25
    "new_york_5min_both_dst_days": dict(
        timezone="America/New_York", interval_seconds=300, start=date(2019, 3, 1),
        study_start=date(2019, 10, 1), study_end=date(2019, 11, 10)),
    "daily_cadence": dict(interval_seconds=86400),
    "kolkata_15min": dict(timezone="+05:30", interval_seconds=900),
    "london_30min": dict(
        timezone="Europe/London", interval_seconds=1800, start=date(2019, 2, 1),
        study_start=date(2019, 10, 1), study_end=date(2019, 11, 5)),
    "tokyo_from_0001": dict(
        timezone="Asia/Tokyo", interval_seconds=3600, start=date(1, 1, 1),
        study_start=date(1, 2, 1), study_end=date(1, 3, 1)),
    # local mean time: midnights fall at offsets of whole seconds, not hours
    "new_york_1850": dict(
        timezone="America/New_York", interval_seconds=3600, start=date(1850, 1, 1),
        study_start=date(1850, 2, 1), study_end=date(1850, 3, 1)),
}


def assert_same_bits(a, b, what):
    """array_equal, and also the same dtype and bytes: -0.0 is not 0.0 here."""
    np.testing.assert_array_equal(a, b, err_msg=what)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), what


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CONFIGS))
def test_generate_matches_per_day_emission(name):
    cfg = tiny_cfg(occupancy_drop=0.0, **DIFFERENTIAL_CONFIGS[name])
    drop = synthgen.occupancy_drop_for_target(cfg, 0.4)
    assert drop == reference_drop_for_target(cfg, 0.4)
    cfg = replace(cfg, occupancy_drop=drop)
    ds, ref = synthgen.generate(cfg), reference_generate(cfg)

    assert ds.dates == ref["dates"]
    for key in ("study_mask", "latent_actual", "latent_counterfactual", "daily_energy"):
        assert_same_bits(getattr(ds, key), ref[key], key)
    for channel, daily in ref["daily_weather"].items():
        assert_same_bits(ds.daily_weather[channel], daily, channel)
    assert ds.reduction_kwh == ref["reduction_kwh"]
    assert ds.reduction_fraction == ref["reduction_fraction"]

    assert list(ds.weather) == list(tsdata.WEATHER_CHANNELS)
    series = {s.channel: s for s in (ds.energy, *ds.weather.values())}
    assert set(series) == set(ref["values"])
    for channel, s in series.items():
        assert_same_bits(s.epochs, ref["epochs"], channel)
        assert_same_bits(s.values, ref["values"][channel], channel)
        assert not s.missing.any() and s.missing.size == s.values.size
