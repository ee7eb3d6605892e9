"""Synthetic building generator with a known planted reduction.

Produces interval energy and weather files in the canonical CSV dialect the
ingestion layer reads on its vector path (rendered by tsdata's writer, see
write_dataset), plus the noiseless ground truth, so end-to-end recovery can
be scored against an exact answer.

The daily latent model is multiplicative-weekly over an additive core:

    latent(occ) = weekly[dow] * (base
                                 + occupant_share * base * occ
                                 + temp_coeff * max(0, T - balance)
                                 + solar_coeff * S)

Occupancy is 1.0 before the study window and (1 - occupancy_drop) inside
it. The planted reduction is the noiseless difference between occ=1 and
the configured occupancy, summed over study days.

Interval emission is shaped so that daily aggregation is exact: weather
samples are the daily value plus a zero-mean (or unit-mean multiplicative)
diurnal profile, and each day's energy is spread evenly over its samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .tsdata import (
    CHANNEL_UNITS,
    ENERGY_CHANNEL,
    LAST_DAY,
    WEATHER_CHANNELS,
    RawSeries,
    local_midnights,
    render_csv,
    render_stamps,
    resolve_timezone,
)

DAY_SECONDS = 86400
TROPICAL_YEAR_DAYS = 365.25


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic building run.

    The emitted span is continuous from ``start`` through ``study_end``;
    occupancy drops only inside [study_start, study_end].
    """

    start: date = date(2017, 1, 1)
    study_start: date = date(2020, 3, 12)
    study_end: date = date(2020, 7, 31)
    timezone: str = "UTC"
    interval_seconds: int = 120
    base_load_kwh: float = 1000.0
    occupant_share: float = 2.0
    occupancy_drop: float = 0.0
    temp_coeff: float = 25.0
    balance_temp_c: float = 18.0
    solar_coeff: float = 0.4
    weekly_pattern: tuple[float, ...] = (1.05, 1.06, 1.04, 1.03, 1.0, 0.85, 0.8)
    noise_sigma_kwh: float = 30.0
    seed: int = 7

    def __post_init__(self):
        if not self.start < self.study_start <= self.study_end:
            raise ConfigError("need start < study_start <= study_end")
        if self.study_end > LAST_DAY:
            raise ConfigError(f"study_end must be on or before {LAST_DAY}")
        if self.interval_seconds <= 0 or DAY_SECONDS % self.interval_seconds:
            raise ConfigError("interval_seconds must divide a day evenly")
        if self.base_load_kwh <= 0:
            raise ConfigError("base_load_kwh must be positive")
        if self.occupant_share < 0 or self.temp_coeff < 0 or self.solar_coeff < 0:
            raise ConfigError("load coefficients must be non-negative")
        if not 0.0 <= self.occupancy_drop <= 1.0:
            raise ConfigError("occupancy_drop must lie in [0, 1]")
        if len(self.weekly_pattern) != 7 or any(w <= 0 for w in self.weekly_pattern):
            raise ConfigError("weekly_pattern needs 7 positive weights")
        if self.noise_sigma_kwh < 0:
            raise ConfigError("noise_sigma_kwh must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        resolve_timezone(self.timezone)


@dataclass
class SynthDataset:
    """Generated data plus the noiseless truth behind it."""

    config: SynthConfig
    dates: list
    daily_energy: np.ndarray
    latent_actual: np.ndarray
    latent_counterfactual: np.ndarray
    daily_weather: dict
    reduction_kwh: float
    reduction_fraction: float
    energy: RawSeries
    weather: dict

    @property
    def study_mask(self) -> np.ndarray:
        lo, hi = self.config.study_start, self.config.study_end
        return np.array([lo <= d <= hi for d in self.dates])


def _dates_span(cfg: SynthConfig):
    n = (cfg.study_end - cfg.start).days + 1
    return [cfg.start + timedelta(days=i) for i in range(n)]


def _seasonal(doy: np.ndarray, mean, amp, peak_doy):
    return mean + amp * np.cos(2.0 * math.pi * (doy - peak_doy) / TROPICAL_YEAR_DAYS)


def _daily_weather(cfg: SynthConfig, dates) -> dict:
    """Seasonal curves plus per-day noise; depends only on cfg.seed and dates."""
    rng = np.random.default_rng(cfg.seed)
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=float)

    drybulb = _seasonal(doy, 12.0, 14.0, 200.0) + rng.normal(0.0, 2.0, doy.size)
    solar = np.clip(_seasonal(doy, 210.0, 140.0, 172.0) + rng.normal(0.0, 25.0, doy.size), 20.0, None)
    rh = np.clip(_seasonal(doy, 65.0, 12.0, 20.0) + rng.normal(0.0, 5.0, doy.size), 25.0, 92.0)
    dewpoint = drybulb - (100.0 - rh) / 5.0 + rng.normal(0.0, 1.0, doy.size)
    windspeed = np.clip(_seasonal(doy, 4.0, 1.5, 330.0) + rng.normal(0.0, 0.8, doy.size), 0.2, None)
    winddir = np.mod(_seasonal(doy, 180.0, 120.0, 90.0) + rng.normal(0.0, 30.0, doy.size), 360.0)

    return {
        "drybulb_c": drybulb,
        "solar_wm2": solar,
        "rh_pct": rh,
        "dewpoint_c": dewpoint,
        "windspeed_ms": windspeed,
        "winddir_deg": winddir,
    }


def _latent_daily(cfg: SynthConfig, dates, weather, occupancy: np.ndarray) -> np.ndarray:
    wp = np.array([cfg.weekly_pattern[d.weekday()] for d in dates])
    heat = cfg.temp_coeff * np.maximum(0.0, weather["drybulb_c"] - cfg.balance_temp_c)
    sun = cfg.solar_coeff * weather["solar_wm2"]
    people = cfg.occupant_share * cfg.base_load_kwh * occupancy
    return wp * (cfg.base_load_kwh + people + heat + sun)


def _day_grid(cfg: SynthConfig, dates):
    """Per-day (start_epoch, n_slots); slot counts vary only across DST shifts."""
    starts = local_midnights(dates[0], len(dates) + 1, resolve_timezone(cfg.timezone))
    spans = np.diff(starts)
    slots = spans / cfg.interval_seconds
    if np.any(slots != np.round(slots)):
        raise ConfigError("interval_seconds must divide every local day in this zone")
    return starts[:-1], slots.astype(int)


# Diurnal profiles. Additive ones are centered to exact zero mean per slot
# grid; multiplicative ones are normalized to exact unit mean. That keeps the
# daily aggregate equal to the daily latent value to float precision.
_ADDITIVE_SHAPE = {
    "drybulb_c": (4.0, 15.0),   # (amplitude, peak hour)
    "dewpoint_c": (1.5, 16.0),
    "rh_pct": (-6.0, 15.0),
    "winddir_deg": (0.0, 0.0),
}
_MULTIPLICATIVE_SHAPE = {
    "windspeed_ms": 0.25,
}


def _slot_hours(n_slots: int, interval: int) -> np.ndarray:
    return np.arange(n_slots) * (interval / 3600.0)


def _additive_profile(channel: str, n_slots: int, interval: int) -> np.ndarray:
    amp, peak = _ADDITIVE_SHAPE[channel]
    prof = amp * np.cos(2.0 * math.pi * (_slot_hours(n_slots, interval) - peak) / 24.0)
    return prof - prof.mean()


def _solar_profile(n_slots: int, interval: int) -> np.ndarray:
    hod = _slot_hours(n_slots, interval)
    bell = np.maximum(0.0, np.sin(math.pi * (hod - 6.0) / 12.0))
    if not bell.any():  # no slot in daylight (daily cadence): spread evenly
        return np.ones(n_slots)
    return bell / bell.mean()


def _mult_profile(channel: str, n_slots: int, interval: int) -> np.ndarray:
    swing = _MULTIPLICATIVE_SHAPE[channel]
    prof = 1.0 + swing * np.sin(2.0 * math.pi * (_slot_hours(n_slots, interval) - 13.0) / 24.0)
    return prof / prof.mean()


def generate(cfg: SynthConfig = SynthConfig()) -> SynthDataset:
    """Build the full dataset for one configuration."""
    dates = _dates_span(cfg)
    n_days = len(dates)
    in_study = np.array([cfg.study_start <= d <= cfg.study_end for d in dates])

    weather = _daily_weather(cfg, dates)
    occ = np.where(in_study, 1.0 - cfg.occupancy_drop, 1.0)
    latent_actual = _latent_daily(cfg, dates, weather, occ)
    latent_cf = _latent_daily(cfg, dates, weather, np.ones(n_days))

    rng_energy = np.random.default_rng(cfg.seed + 1)
    daily_energy = latent_actual + rng_energy.normal(0.0, cfg.noise_sigma_kwh, n_days)
    if np.any(daily_energy <= 0):
        raise DataError("noise drove a daily energy value non-positive; lower noise_sigma_kwh")

    gap = latent_cf[in_study] - latent_actual[in_study]
    reduction_kwh = float(np.sum(gap))
    reduction_fraction = reduction_kwh / float(np.sum(latent_cf[in_study]))

    day_starts, day_slots = _day_grid(cfg, dates)
    epoch_parts = [
        start + np.arange(k) * float(cfg.interval_seconds)
        for start, k in zip(day_starts, day_slots)
    ]
    epochs = np.concatenate(epoch_parts)
    total = epochs.size
    no_missing = np.zeros(total, dtype=bool)

    def emit(channel, values):
        return RawSeries(
            channel=channel,
            unit=CHANNEL_UNITS[channel],
            interval_seconds=cfg.interval_seconds,
            tz=cfg.timezone,
            epochs=epochs,
            values=values,
            missing=no_missing,
        )

    profile_cache = {}

    def profiles(n_slots):
        if n_slots not in profile_cache:
            iv = cfg.interval_seconds
            profile_cache[n_slots] = {
                "solar_wm2": _solar_profile(n_slots, iv),
                **{c: _additive_profile(c, n_slots, iv) for c in _ADDITIVE_SHAPE},
                **{c: _mult_profile(c, n_slots, iv) for c in _MULTIPLICATIVE_SHAPE},
            }
        return profile_cache[n_slots]

    weather_series = {}
    for channel in WEATHER_CHANNELS:
        parts = []
        for i, k in enumerate(day_slots):
            prof = profiles(int(k))[channel]
            if channel in ("solar_wm2", *_MULTIPLICATIVE_SHAPE):
                parts.append(weather[channel][i] * prof)
            else:
                parts.append(weather[channel][i] + prof)
        weather_series[channel] = emit(channel, np.concatenate(parts))

    energy_parts = [
        np.full(int(k), daily_energy[i] / float(k)) for i, k in enumerate(day_slots)
    ]
    energy_series = emit(ENERGY_CHANNEL, np.concatenate(energy_parts))

    return SynthDataset(
        config=cfg,
        dates=dates,
        daily_energy=daily_energy,
        latent_actual=latent_actual,
        latent_counterfactual=latent_cf,
        daily_weather=weather,
        reduction_kwh=reduction_kwh,
        reduction_fraction=reduction_fraction,
        energy=energy_series,
        weather=weather_series,
    )


def occupancy_drop_for_target(cfg: SynthConfig, target_fraction: float) -> float:
    """Occupancy drop that plants a given noiseless reduction fraction.

    The weather realization depends only on cfg.seed, never on the drop, so
    the value computed here is exact for ``replace(cfg, occupancy_drop=...)``.

    Raises:
        ConfigError: target not reachable with drop in [0, 1].
    """
    if not 0.0 <= target_fraction < 1.0:
        raise ConfigError("target_fraction must lie in [0, 1)")
    dates = _dates_span(cfg)
    in_study = np.array([cfg.study_start <= d <= cfg.study_end for d in dates])
    weather = _daily_weather(cfg, dates)
    cf = _latent_daily(cfg, dates, weather, np.ones(len(dates)))[in_study]

    wp = np.array([cfg.weekly_pattern[d.weekday()] for d, s in zip(dates, in_study) if s])
    per_unit_drop = float(np.sum(wp)) * cfg.occupant_share * cfg.base_load_kwh
    if per_unit_drop <= 0:
        raise ConfigError("occupant_share is zero; no reachable reduction target")
    drop = target_fraction * float(np.sum(cf)) / per_unit_drop
    if drop > 1.0:
        raise ConfigError(
            f"target fraction {target_fraction} needs occupancy drop {drop:.3f} > 1"
        )
    return drop


def configure_for_target(cfg: SynthConfig, target_fraction: float) -> SynthConfig:
    """Convenience: same config with occupancy_drop set to hit the target."""
    return replace(cfg, occupancy_drop=occupancy_drop_for_target(cfg, target_fraction))


def write_dataset(ds: SynthDataset, outdir) -> dict:
    """Write channel CSVs plus ground_truth.json; returns name -> path.

    Output files use the canonical dialect, so parse_series reads every row
    on its vector path. The timestamp cells are rendered once
    (tsdata.render_stamps) and shared across channels; each file is written
    block by block as tsdata.render_csv yields it.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tz = resolve_timezone(ds.config.timezone)
    stamps = render_stamps(ds.energy.epochs, tz)

    paths = {}
    for series in (ds.energy, *(ds.weather[c] for c in WEATHER_CHANNELS)):
        path = out / f"{series.channel}.csv"
        with path.open("w") as f:
            f.writelines(render_csv(series.channel, stamps, series.values))
        paths[series.channel] = path

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
