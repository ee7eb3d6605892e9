"""Command line entry points: ``normbase normalize | synth | evaluate``.

normalize  ingest channel CSVs, fit baselines, quantify study-range deviation,
           write report.json / daily.csv / monthly.csv / plots/.
synth      generate a synthetic building dataset with known ground truth.
evaluate   score models on the held-out test range and print the KPI table;
           loads saved model files when --models is given, trains otherwise.

Exit codes: 0 success, 2 configuration problem, 3 no model passed the
acceptance gate, 4 data or training problem.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, is_dataclass
from datetime import date
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError, NoValidBaselineError, NormbaseError
from .features import FeatureSpec, Scaler, apply_scaler, build_features
from .metrics import monthly_rollup
from .normalize import MODEL_KINDS, SELECTION_GATE, SELECTION_TOP_K, PeriodSpec, run_pipeline, score
from .savefile import from_json, to_json
from .svgchart import cumulative_chart, dlr_chart, overlay_chart
from .synthgen import SynthConfig, configure_for_target, generate, write_dataset
from .tsdata import (
    CHANNEL_UNITS,
    ENERGY_CHANNEL,
    GapFillPolicy,
    SeriesSchema,
    align,
    fill_gaps,
    parse_series,
    resample_daily,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_unknown(obj: dict, path: str, allowed):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{_dotted(path, key)}'")


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"config key '{path}' must be an object")
    return obj


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}


def _typed(value, kind, path: str):
    """Check one config value against a type annotation and return it.

    ``kind`` is int, float, bool, str, date (an ISO string) or tuple[T, ...]
    (a JSON list of T). Any number passes as a float; JSON booleans pass only
    as bool, although Python counts them as integers.
    """
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"config key '{path}' must be a list")
        return tuple(_typed(v, get_args(kind)[0], path) for v in value)
    if kind is date:
        text = _typed(value, str, path)
        try:
            return date.fromisoformat(text)
        except ValueError:
            raise ConfigError(f"config key '{path}' is not an ISO date: {text!r}")
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key '{path}' must be {_TYPE_NAMES[kind]}")
    return float(value) if kind is float else value


def _date_pair(value, path: str):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"config key '{path}' must be a [start, end] pair")
    return (_typed(value[0], date, f"{path}[0]"), _typed(value[1], date, f"{path}[1]"))


def _config_keys(cls) -> set:
    """JSON keys of a config dataclass.

    A field holding another config dataclass (``MlpSetup.train``) adds that
    dataclass's keys instead of its own name, so the JSON object stays flat.
    """
    keys = set()
    for name, kind in get_type_hints(cls).items():
        keys |= _config_keys(kind) if is_dataclass(kind) else {name}
    return keys


def _from_config(cls, obj, path: str):
    """Build a config dataclass from a JSON object.

    Keys and value types come from the dataclass fields and annotations;
    absent keys keep the field defaults, and value ranges are left to the
    dataclass's own checks.
    """
    _reject_unknown(_mapping(obj, path), path, _config_keys(cls))
    kwargs = {}
    for name, kind in get_type_hints(cls).items():
        if is_dataclass(kind):
            nested = {k: v for k, v in obj.items() if k in _config_keys(kind)}
            kwargs[name] = _from_config(kind, nested, path)
        elif name in obj:
            kwargs[name] = _typed(obj[name], kind, _dotted(path, name))
    return cls(**kwargs)


def _model_setups(section: dict, run_seed: int) -> dict:
    """Build per-model setups; absent models default to enabled.

    A model without its own ``seed`` gets the run seed plus its offset.
    """
    _reject_unknown(section, "models", MODEL_KINDS)
    setups = {}
    for name, kind in MODEL_KINDS.items():
        path = f"models.{name}"
        sub = dict(_mapping(section.get(name, {}), path))
        if _typed(sub.pop("enabled", True), bool, f"{path}.enabled"):
            setups[name] = _from_config(kind.setup, {"seed": run_seed + kind.seed_offset, **sub}, path)
    if not setups:
        raise ConfigError("all models are disabled")
    return setups


@dataclass
class RunSettings:
    """Validated normalize/evaluate configuration."""

    seed: int
    timezone: str
    interval_seconds: int
    inputs: dict
    periods: PeriodSpec
    feature_spec: FeatureSpec
    gap_policy: GapFillPolicy
    models: dict
    p: int
    selection: str
    top_k: int
    output_dir: Path
    save_models: bool
    reference_range: Optional[tuple]


_RUN_KEYS = (
    "seed",
    "timezone",
    "interval_seconds",
    "inputs",
    "periods",
    "features",
    "models",
    "kpi",
    "ensemble",
    "gap_fill",
    "output_dir",
    "save_models",
    "reference_range",
)


def load_run_settings(path: Path) -> RunSettings:
    doc = _load_json(path)
    _reject_unknown(doc, "", _RUN_KEYS)
    for required in ("inputs", "periods", "interval_seconds"):
        if required not in doc:
            raise ConfigError(f"missing required config key '{required}'")

    seed = _typed(doc.get("seed", 0), int, "seed")
    timezone = _typed(doc.get("timezone", "UTC"), str, "timezone")
    interval = _typed(doc["interval_seconds"], int, "interval_seconds")

    inputs_raw = _mapping(doc["inputs"], "inputs")
    known = (ENERGY_CHANNEL,) + tuple(CHANNEL_UNITS)
    _reject_unknown(inputs_raw, "inputs", known)
    if ENERGY_CHANNEL not in inputs_raw:
        raise ConfigError(f"missing required config key 'inputs.{ENERGY_CHANNEL}'")
    base_dir = Path(path).resolve().parent
    inputs = {}
    for ch, p in inputs_raw.items():
        raw = Path(_typed(p, str, f"inputs.{ch}"))
        inputs[ch] = raw if raw.is_absolute() else base_dir / raw

    periods_raw = _mapping(doc["periods"], "periods")
    _reject_unknown(periods_raw, "periods", ("train", "test", "study"))
    for k in ("train", "test", "study"):
        if k not in periods_raw:
            raise ConfigError(f"missing required config key 'periods.{k}'")
    periods = PeriodSpec(
        train=_date_pair(periods_raw["train"], "periods.train"),
        test=_date_pair(periods_raw["test"], "periods.test"),
        study=_date_pair(periods_raw["study"], "periods.study"),
    )

    feature_spec = _from_config(FeatureSpec, doc.get("features", {}), "features")
    for ch in feature_spec.weather_channels:
        if ch not in inputs:
            raise ConfigError(f"features use channel {ch!r} but 'inputs.{ch}' is missing")

    gap_policy = _from_config(GapFillPolicy, doc.get("gap_fill", {}), "gap_fill")

    kpi_raw = _mapping(doc.get("kpi", {}), "kpi")
    _reject_unknown(kpi_raw, "kpi", ("p",))
    p = _typed(kpi_raw.get("p", 1), int, "kpi.p")
    if p < 0:
        raise ConfigError("config key 'kpi.p' must be non-negative")

    ens_raw = _mapping(doc.get("ensemble", {}), "ensemble")
    _reject_unknown(ens_raw, "ensemble", ("selection", "top_k"))
    selection = _typed(ens_raw.get("selection", SELECTION_GATE), str, "ensemble.selection")
    if selection not in (SELECTION_GATE, SELECTION_TOP_K):
        raise ConfigError(
            f"config key 'ensemble.selection' must be '{SELECTION_GATE}' or '{SELECTION_TOP_K}'"
        )
    top_k = _typed(ens_raw.get("top_k", 2), int, "ensemble.top_k")

    models = _model_setups(_mapping(doc.get("models", {}), "models"), seed)

    reference = None
    if doc.get("reference_range") is not None:
        reference = _date_pair(doc["reference_range"], "reference_range")
        if reference[1] < reference[0]:
            raise ConfigError("config key 'reference_range' ends before it starts")

    out_raw = Path(_typed(doc.get("output_dir", "normbase_out"), str, "output_dir"))
    output_dir = out_raw if out_raw.is_absolute() else base_dir / out_raw

    return RunSettings(
        seed=seed,
        timezone=timezone,
        interval_seconds=interval,
        inputs=inputs,
        periods=periods,
        feature_spec=feature_spec,
        gap_policy=gap_policy,
        models=models,
        p=p,
        selection=selection,
        top_k=top_k,
        output_dir=output_dir,
        save_models=_typed(doc.get("save_models", False), bool, "save_models"),
        reference_range=reference,
    )


# ---------------------------------------------------------------------------
# ingestion shared by normalize and evaluate


def _ingest(settings: RunSettings):
    """Parse, gap-fill and daily-resample every channel the features need."""
    needed = (ENERGY_CHANNEL,) + tuple(settings.feature_spec.weather_channels)
    daily = {}
    for ch in needed:
        path = settings.inputs[ch]
        try:
            text = path.read_text()
        except OSError as e:
            raise ConfigError(f"cannot read input file for '{ch}': {e}")
        schema = SeriesSchema(ch, CHANNEL_UNITS[ch], settings.timezone, settings.interval_seconds)
        series = parse_series(text, schema)
        filled, gaps = fill_gaps(series, settings.gap_policy)
        n_filled = gaps.count("interpolated") + gaps.count("edge-hold")
        if n_filled or gaps.count("left-unfilled"):
            log.info(
                "%s: filled %d gap(s), left %d unfillable",
                ch, n_filled, gaps.count("left-unfilled"),
            )
        daily[ch] = resample_daily(filled, "sum" if ch == ENERGY_CHANNEL else "mean")
    energy = daily.pop(ENERGY_CHANNEL)
    return align(energy, daily)


# ---------------------------------------------------------------------------
# table rendering


def _fmt_cell(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:9.4f}"


def _gate_cell(kpis) -> str:
    if kpis.gate is None:
        return "n/a (window too short for monthly KPIs)"
    if kpis.gate.passed:
        return "PASS"
    failed = [k for k, ok in kpis.gate.as_dict().items() if k != "passed" and not ok]
    return "FAIL(" + ",".join(name.removesuffix("_ok") for name in failed) + ")"


def kpi_table(models: dict) -> str:
    """Fixed-width text table: daily and monthly CV(RMSE), R^2, NMBE, gate."""
    head = (
        f"{'model':<10} {'d.CV(RMSE)':>10} {'d.R^2':>9} {'d.NMBE':>9} "
        f"{'m.CV(RMSE)':>10} {'m.R^2':>9} {'m.NMBE':>9}  gate"
    )
    rows = [head, "-" * len(head)]
    for name, kpis in models.items():
        d = kpis.daily
        m = kpis.monthly
        rows.append(
            f"{name:<10} {_fmt_cell(d.cv_rmse):>10} {_fmt_cell(d.r_squared):>9} {_fmt_cell(d.nmbe):>9} "
            f"{_fmt_cell(m.cv_rmse if m else None):>10} {_fmt_cell(m.r_squared if m else None):>9} "
            f"{_fmt_cell(m.nmbe if m else None):>9}  {_gate_cell(kpis)}"
        )
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# artifacts


def _csv_num(v) -> str:
    return repr(float(v)) if np.isfinite(v) else ""


def _write_daily_csv(path: Path, report):
    # Cumulative curves run over the study days the ensemble covers.
    cover = ~np.isnan(report.ensemble_study)
    cumulative = []
    for curve in (report.cumulative_actual, report.cumulative_predicted):
        column = np.full(cover.size, np.nan)
        column[cover] = curve
        cumulative.append(column)

    header = (
        ["date", "actual_kwh", "predicted_ensemble_kwh", "dlr_ensemble",
         "cumulative_actual_kwh", "cumulative_predicted_kwh"]
        + [f"predicted_{name}_kwh" for name in report.models]
    )
    columns = (
        [report.study_actual, report.ensemble_study, report.dlr["ensemble"], *cumulative]
        + [m.pred[report.study_mask] for m in report.models.values()]
    )
    rows = [",".join(header)]
    for d, *values in zip(report.study_dates, *columns):
        rows.append(",".join([d.isoformat()] + [_csv_num(v) for v in values]))
    path.write_text("\n".join(rows) + "\n")


def _write_monthly_csv(path: Path, report):
    header = "month,actual_kwh,predicted_kwh,reduction_kwh"
    cover = ~np.isnan(report.ensemble_study)
    try:
        dates = [d for d, c in zip(report.study_dates, cover) if c]
        roll = monthly_rollup(dates, report.study_actual[cover], report.ensemble_study[cover])
    except DataError:
        path.write_text(header + "\n")
        return
    rows = [header]
    for (yy, mm), a, p in zip(roll.months, roll.actual, roll.predicted):
        rows.append(f"{yy:04d}-{mm:02d},{_csv_num(a)},{_csv_num(p)},{_csv_num(p - a)}")
    path.write_text("\n".join(rows) + "\n")


def _write_plots(plots_dir: Path, report):
    plots_dir.mkdir(parents=True, exist_ok=True)

    # Held-out overlay over the test days that at least one model predicts.
    unpredicted = np.isnan([m.pred for m in report.models.values()]).all(axis=0)
    rows = report.test_mask & ~unpredicted
    if rows.any():
        (plots_dir / "test_overlay.svg").write_text(overlay_chart(
            [d for d, r in zip(report.dates, rows) if r],
            report.actual[rows],
            {name: m.pred[rows] for name, m in report.models.items()},
        ))
    if report.study_dates:
        (plots_dir / "dlr.svg").write_text(
            dlr_chart(report.study_dates, report.dlr["ensemble"])
        )
    if report.cumulative_dates:
        (plots_dir / "cumulative.svg").write_text(
            cumulative_chart(
                report.cumulative_dates, report.cumulative_actual, report.cumulative_predicted
            )
        )


def _save_models(models_dir: Path, report, settings: RunSettings):
    models_dir.mkdir(parents=True, exist_ok=True)
    for name, outcome in report.models.items():
        doc = {
            "kind": name,
            "feature_names": list(report.feature_names),
            "feature_scaler": to_json(report.feature_scaler),
            "lookback_days": settings.feature_spec.lookback_days,
            "payload": MODEL_KINDS[name].to_dict(outcome.fitted),
        }
        (models_dir / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )


def _write_artifacts(outdir: Path, report, settings: RunSettings):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    _write_daily_csv(outdir / "daily.csv", report)
    _write_monthly_csv(outdir / "monthly.csv", report)
    _write_plots(outdir / "plots", report)
    if settings.save_models:
        _save_models(outdir / "models", report, settings)


# ---------------------------------------------------------------------------
# subcommands


def _run(settings: RunSettings, table):
    """Fit and score the configured models.

    Returns:
        (report, failure): failure is the message when no model passed the
        gate, in which case the report still carries every model's KPIs.
    """
    try:
        report = run_pipeline(
            table,
            settings.periods,
            feature_spec=settings.feature_spec,
            models=settings.models,
            p=settings.p,
            selection=settings.selection,
            top_k=settings.top_k,
            seed=settings.seed,
            reference_range=settings.reference_range,
        )
    except NoValidBaselineError as e:
        return e.report, str(e)
    return report, None


def _evaluate_saved(settings: RunSettings, table, models_dir: Path) -> dict:
    """Test-range KPIs of each model file saved in ``models_dir``."""
    matrix = build_features(table, settings.feature_spec)
    test_mask = matrix.date_mask(*settings.periods.test)
    if int(test_mask.sum()) < 1:
        raise DataError("test range has no usable rows")

    results = {}
    for name, kind in MODEL_KINDS.items():
        f = models_dir / f"{name}.json"
        if not f.exists():
            continue
        # JSONDecodeError is a ValueError; the codec raises ValueError too
        try:
            doc = json.loads(f.read_text())
            feature_names = doc["feature_names"]
            scaler = from_json(Scaler, doc["feature_scaler"])
            lookback = int(doc["lookback_days"])
            fitted = kind.from_dict(doc["payload"])
        except (OSError, KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"cannot load model file {f}: {e}")
        if feature_names != list(matrix.names):
            raise ConfigError(
                f"model {name} was trained on different feature columns than configured"
            )
        scaled = apply_scaler(matrix, scaler)
        pred = kind.predict(fitted, scaled, lookback)
        results[name] = score(scaled, test_mask, pred, p=settings.p)
    if not results:
        raise ConfigError(f"no model files found in {models_dir}")
    return results


def cmd_normalize(args) -> int:
    settings = load_run_settings(args.config)
    if args.out:
        settings.output_dir = Path(args.out)
    table = _ingest(settings)
    log.info("aligned table: %d days, %d excluded", len(table), table.n_excluded)

    report, failed = _run(settings, table)
    _write_artifacts(settings.output_dir, report, settings)

    print(kpi_table({n: m.kpis for n, m in report.models.items()}))
    if failed is not None:
        print(f"\nno valid baseline: {failed}")
        print(f"artifacts written to {settings.output_dir}")
        return 3
    print(f"\nmodels used: {', '.join(report.models_used)}")
    print(f"reduction_kwh:      {report.reduction_kwh:.1f}")
    print(f"reduction_fraction: {report.reduction_fraction:.4f}")
    print(f"annual_share:       {report.annual_share:.4f}")
    print(f"artifacts written to {settings.output_dir}")
    return 0


def cmd_evaluate(args) -> int:
    settings = load_run_settings(args.config)
    table = _ingest(settings)

    if args.models:
        kpis = _evaluate_saved(settings, table, Path(args.models))
    else:
        report, _ = _run(settings, table)
        kpis = {n: m.kpis for n, m in report.models.items()}

    print(kpi_table(kpis))
    passed = [n for n, k in kpis.items() if k.gate is not None and k.gate.passed]
    if not passed:
        print("\nno model passed the acceptance gate")
        return 3
    print(f"\ngate passed by: {', '.join(passed)}")
    return 0


def cmd_synth(args) -> int:
    doc = _load_json(args.config)
    target = doc.pop("target_reduction_fraction", None)
    output_dir = doc.pop("output_dir", "synth_data")
    if target is not None and "occupancy_drop" in doc:
        raise ConfigError("set either 'occupancy_drop' or 'target_reduction_fraction', not both")

    cfg = _from_config(SynthConfig, doc, "")
    if target is not None:
        cfg = configure_for_target(cfg, _typed(target, float, "target_reduction_fraction"))

    base_dir = Path(args.config).resolve().parent
    out_raw = Path(args.out) if args.out else Path(_typed(output_dir, str, "output_dir"))
    outdir = out_raw if out_raw.is_absolute() else base_dir / out_raw

    ds = generate(cfg)
    paths = write_dataset(ds, outdir)
    print(f"wrote {len(paths) - 1} channel files + ground_truth.json to {outdir}")
    print(f"planted reduction_kwh:      {ds.reduction_kwh:.1f}")
    print(f"planted reduction_fraction: {ds.reduction_fraction:.4f}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normbase",
        description="Weather-normalized counterfactual baselines for daily building energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="fit baselines and quantify study-range deviation")
    p_norm.add_argument("--config", required=True, type=Path, help="run config JSON")
    p_norm.add_argument("--out", help="output directory (overrides config output_dir)")
    p_norm.set_defaults(func=cmd_normalize)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset with known ground truth")
    p_synth.add_argument("--config", required=True, type=Path, help="synth config JSON")
    p_synth.add_argument("--out", help="output directory (overrides config output_dir)")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("evaluate", help="score models on the held-out test range")
    p_eval.add_argument("--config", required=True, type=Path, help="run config JSON")
    p_eval.add_argument("--models", help="directory of saved model JSON files")
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NoValidBaselineError as e:
        print(f"no valid baseline: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 4
    except NormbaseError as e:  # a diverged training, say
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
