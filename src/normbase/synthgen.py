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

This is the one daily model: _daily_inputs decides the days, the study
mask, the daily weather and each day's weekly weight, and generate and
occupancy_drop_for_target both start from it. Occupancy is 1.0 before the
study window and (1 - occupancy_drop) inside it. The planted reduction is
the noiseless difference between occ=1 and the configured occupancy, summed
over study days.

Interval emission is shaped so that daily aggregation is exact: a weather
sample is its daily value times a unit-mean or plus a zero-mean diurnal
shape (_SHAPES), and each day's energy is spread evenly over its samples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .savefile import check_fields
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
    interval_seconds: int = field(default=120, metadata={"minimum": 1})
    base_load_kwh: float = field(default=1000.0, metadata={"exclusiveMinimum": 0})
    occupant_share: float = field(default=2.0, metadata={"minimum": 0})
    occupancy_drop: float = field(default=0.0, metadata={"minimum": 0, "maximum": 1})
    temp_coeff: float = field(default=25.0, metadata={"minimum": 0})
    balance_temp_c: float = 18.0
    solar_coeff: float = field(default=0.4, metadata={"minimum": 0})
    weekly_pattern: tuple[float, ...] = (1.05, 1.06, 1.04, 1.03, 1.0, 0.85, 0.8)
    noise_sigma_kwh: float = field(default=30.0, metadata={"minimum": 0})
    seed: int = field(default=7, metadata={"minimum": 0})

    def __post_init__(self):
        check_fields(self)
        if not self.start < self.study_start <= self.study_end:
            raise ConfigError("need start < study_start <= study_end")
        if self.study_end > LAST_DAY:
            raise ConfigError(f"study_end must be on or before {LAST_DAY}")
        if DAY_SECONDS % self.interval_seconds:
            raise ConfigError("interval_seconds must divide a day evenly")
        if len(self.weekly_pattern) != 7 or any(w <= 0 for w in self.weekly_pattern):
            raise ConfigError("weekly_pattern needs 7 positive weights")
        resolve_timezone(self.timezone)


@dataclass
class SynthDataset:
    """Generated data plus the noiseless truth behind it."""

    config: SynthConfig
    dates: list
    study_mask: np.ndarray
    daily_energy: np.ndarray
    latent_actual: np.ndarray
    latent_counterfactual: np.ndarray
    daily_weather: dict
    reduction_kwh: float
    reduction_fraction: float
    energy: RawSeries
    weather: dict


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


def _daily_inputs(cfg: SynthConfig):
    """The daily model's inputs, decided once for generate and
    occupancy_drop_for_target: the dates from ``start`` through ``study_end``,
    the mask of study days, the daily weather and each day's weekly weight."""
    n = (cfg.study_end - cfg.start).days + 1
    dates = [cfg.start + timedelta(days=i) for i in range(n)]
    in_study = np.arange(n) >= (cfg.study_start - cfg.start).days
    weekly = np.array(cfg.weekly_pattern)[(cfg.start.weekday() + np.arange(n)) % 7]
    return dates, in_study, _daily_weather(cfg, dates), weekly


def _latent_daily(cfg: SynthConfig, weekly, weather, occupancy: np.ndarray) -> np.ndarray:
    heat = cfg.temp_coeff * np.maximum(0.0, weather["drybulb_c"] - cfg.balance_temp_c)
    sun = cfg.solar_coeff * weather["solar_wm2"]
    people = cfg.occupant_share * cfg.base_load_kwh * occupancy
    return weekly * (cfg.base_load_kwh + people + heat + sun)


def _wave(amp, peak):
    """A daily cosine of amplitude ``amp`` that peaks at hour ``peak``."""
    return lambda hour: amp * np.cos(2.0 * math.pi * (hour - peak) / 24.0)


# Each weather channel's diurnal shape over the slot hours of a day, and
# whether it scales the daily value (True) or adds to it (False).
_SHAPES = {
    "drybulb_c": (False, _wave(4.0, 15.0)),
    "solar_wm2": (True, lambda hour: np.maximum(0.0, np.sin(math.pi * (hour - 6.0) / 12.0))),
    "rh_pct": (False, _wave(-6.0, 15.0)),
    "dewpoint_c": (False, _wave(1.5, 16.0)),
    "windspeed_ms": (True, lambda hour: 1.0 + 0.25 * np.sin(2.0 * math.pi * (hour - 13.0) / 24.0)),
    "winddir_deg": (False, _wave(0.0, 0.0)),
}


def _day_shape(channel: str, n_slots: int, interval: int) -> np.ndarray:
    """``channel``'s shape over a day of ``n_slots`` samples, normalised to an
    exact unit mean if it scales and an exact zero mean if it adds, so that
    the day's samples average to its daily value to float precision."""
    scales, shape = _SHAPES[channel]
    s = shape(np.arange(n_slots) * (interval / 3600.0))
    if not scales:
        return s - s.mean()
    if not s.any():  # no slot in daylight (daily cadence): spread evenly
        return np.ones(n_slots)
    return s / s.mean()


def generate(cfg: SynthConfig = SynthConfig()) -> SynthDataset:
    """Build the full dataset for one configuration from the one daily model.

    _daily_inputs decides the days, the study mask, the weather and the
    weekly weights; the latents and the planted reduction follow from them.
    Every interval series is then a whole-array expansion of its daily
    values over each day's slots: a weather channel times or plus its day
    shape, the energy split evenly.
    """
    dates, in_study, weather, weekly = _daily_inputs(cfg)
    n_days = len(dates)
    occ = np.where(in_study, 1.0 - cfg.occupancy_drop, 1.0)
    latent_actual = _latent_daily(cfg, weekly, weather, occ)
    latent_cf = _latent_daily(cfg, weekly, weather, np.ones(n_days))

    rng_energy = np.random.default_rng(cfg.seed + 1)
    daily_energy = latent_actual + rng_energy.normal(0.0, cfg.noise_sigma_kwh, n_days)
    if np.any(daily_energy <= 0):
        raise DataError("noise drove a daily energy value non-positive; lower noise_sigma_kwh")

    gap = latent_cf[in_study] - latent_actual[in_study]
    reduction_kwh = float(np.sum(gap))
    reduction_fraction = reduction_kwh / float(np.sum(latent_cf[in_study]))

    midnights = local_midnights(cfg.start, n_days + 1, resolve_timezone(cfg.timezone))
    day_slots = np.diff(midnights) / cfg.interval_seconds  # varies only across DST shifts
    if np.any(day_slots != np.round(day_slots)):
        raise ConfigError("interval_seconds must divide every local day in this zone")
    day_slots = day_slots.astype(int)
    slot = np.arange(day_slots.sum()) - np.repeat(np.cumsum(day_slots) - day_slots, day_slots)
    epochs = np.repeat(midnights[:-1], day_slots) + slot * float(cfg.interval_seconds)
    no_missing = np.zeros(epochs.size, dtype=bool)

    values = {ENERGY_CHANNEL: np.repeat(daily_energy / day_slots, day_slots)}
    for channel in WEATHER_CHANNELS:
        shapes = {k: _day_shape(channel, k, cfg.interval_seconds) for k in set(day_slots.tolist())}
        shape = np.concatenate([shapes[k] for k in day_slots.tolist()])
        daily = np.repeat(weather[channel], day_slots)
        values[channel] = daily * shape if _SHAPES[channel][0] else daily + shape
    series = {
        c: RawSeries(c, CHANNEL_UNITS[c], cfg.interval_seconds, cfg.timezone, epochs, v, no_missing)
        for c, v in values.items()
    }

    return SynthDataset(
        config=cfg,
        dates=dates,
        study_mask=in_study,
        daily_energy=daily_energy,
        latent_actual=latent_actual,
        latent_counterfactual=latent_cf,
        daily_weather=weather,
        reduction_kwh=reduction_kwh,
        reduction_fraction=reduction_fraction,
        energy=series.pop(ENERGY_CHANNEL),
        weather=series,
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
    dates, in_study, weather, weekly = _daily_inputs(cfg)
    cf = _latent_daily(cfg, weekly, weather, np.ones(len(dates)))[in_study]
    per_unit_drop = float(np.sum(weekly[in_study])) * cfg.occupant_share * cfg.base_load_kwh
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
