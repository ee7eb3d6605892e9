"""Command line entry points: ``normbase normalize | synth | evaluate``.

normalize  ingest channel CSVs, fit baselines, quantify study-range deviation,
           write report.json / daily.csv / monthly.csv / plots/.
synth      generate a synthetic building dataset with known ground truth.
evaluate   score models on the held-out test range and print the KPI table;
           loads saved model files when --models is given, trains otherwise.

``evaluate --models`` loads and checks every model file before it reads any
channel, so a bad model directory exits 2 ahead of any data error. The
models then score the days from the test range's first day minus the
longest saved lookback to the test range's last (see _evaluate_saved). Each
channel is parsed once, from its last present sample before those days to
its first present sample after them: line-level errors (a line that is not
UTF-8 among them) cover the whole file, the day-level checks (the gap fills
it logs, negative daily energy) only those rows and days.

Config files and saved model files (a SavedModel envelope each) are read
with savefile.from_json against the dataclass annotations, and a value that
does not fit is a ConfigError naming its key. A run config is a RunSettings:
the normalize.RunSetup that run_pipeline takes, plus the input and output
keys. report.json is a normalize.Report written with savefile.to_json.

Exit codes: 0 success, 2 configuration problem (a bad config or model
file), 3 no model selected in normalize (``no_valid_baseline``) or none
passing the gate in evaluate, 4 data or training problem, an output file
that cannot be written (see _writing), a lost worker process (see
normalize.map_in_workers) or running out of memory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, NormbaseError, ParseError
from .features import Scaler, apply_scaler, build_features, feature_names
from .metrics import monthly_rollup
from .normalize import MODEL_KINDS, RunSetup, fit_models, map_in_workers, run_pipeline, score
from .savefile import check_fields, from_json, to_json
from .svgchart import cumulative_chart, dlr_chart, overlay_chart
from .synthgen import SynthConfig, configure_for_target, generate, write_dataset
from .tsdata import (
    CHANNEL_UNITS,
    ENERGY_CHANNEL,
    GapFillPolicy,
    SeriesSchema,
    align,
    fill_gaps,
    local_midnights,
    parse_series_bytes,
    resample_daily,
    resolve_timezone,
)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _config(kind, value, path: str = ""):
    """Decode a config value of annotation ``kind``, see savefile.from_json."""
    try:
        return from_json(kind, value, path, noun="config key")
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _model_setups(section: dict, run_seed: int) -> dict:
    """Translate the config's ``models`` section into per-model setups: an
    absent model is enabled, ``enabled: false`` drops one, and a model
    without its own ``seed`` gets the run seed plus its offset. An unknown
    name stays as it is, for RunSetup to reject as it rejects an empty set.
    """
    setups = {name: sub for name, sub in section.items() if name not in MODEL_KINDS}
    for name, kind in MODEL_KINDS.items():
        path = f"models.{name}"
        sub = dict(_config(dict, section.get(name, {}), path))
        if _config(bool, sub.pop("enabled", True), f"{path}.enabled"):
            setups[name] = _config(kind.setup, {"seed": run_seed + kind.seed_offset, **sub}, path)
    return setups


@dataclass(kw_only=True)
class RunSettings(RunSetup):
    """Validated normalize/evaluate configuration: the RunSetup that
    run_pipeline reads, plus where the run reads and writes.

    Each field is a top-level config key, and a field without a default is a
    required key. ``models`` takes the config's raw section (a dict: the key
    rejects null), which __post_init__ turns into setups once, before
    RunSetup's checks. load_run_settings resolves ``inputs`` and
    ``output_dir`` against the config file's directory.
    """

    timezone: str = "UTC"
    interval_seconds: int = field(metadata={"minimum": 1})
    inputs: dict[str, Path]
    gap_fill: GapFillPolicy = GapFillPolicy()
    models: dict = field(default_factory=dict)
    output_dir: Path = Path("normbase_out")
    save_models: bool = False

    def __post_init__(self):
        self.models = _model_setups(self.models, self.seed)
        super().__post_init__()


def load_run_settings(path: Path) -> RunSettings:
    settings = _config(RunSettings, _load_json(path))
    for ch in settings.inputs:
        if ch not in CHANNEL_UNITS:
            raise ConfigError(f"unknown config key 'inputs.{ch}'")
    if ENERGY_CHANNEL not in settings.inputs:
        raise ConfigError(f"missing required config key 'inputs.{ENERGY_CHANNEL}'")
    base_dir = Path(path).resolve().parent
    settings.inputs = {ch: base_dir / p for ch, p in settings.inputs.items()}
    for ch in settings.features.weather_channels:
        if ch not in settings.inputs:
            raise ConfigError(f"features use channel {ch!r} but 'inputs.{ch}' is missing")
    resolve_timezone(settings.timezone)
    settings.output_dir = base_dir / settings.output_dir
    return settings


# ---------------------------------------------------------------------------
# ingestion shared by normalize and evaluate


def _ingest_channel(ch: str, settings: RunSettings, days: Optional[tuple] = None):
    """Read, parse, gap-fill and daily-resample one channel in a pool worker.

    With ``days``, a (first, last) pair of dates, the rows outside the present
    samples that bound the days ``first..last`` are checked but not converted
    (see parse_series_bytes), and those days come out as a full read gives
    them. A line that is not UTF-8 is the parse's ParseError, like any other
    malformed line, with the file's path before its line number. Returns only
    the DailySeries and the counts _ingest logs: duplicate rows collapsed,
    gaps filled, gaps left unfilled."""
    try:
        data = settings.inputs[ch].read_bytes()
    except OSError as e:
        raise ConfigError(f"cannot read input file for '{ch}': {e}")
    schema = SeriesSchema(ch, CHANNEL_UNITS[ch], settings.timezone, settings.interval_seconds)
    cut = ()
    if days is not None:  # the midnights that open the first day and close the last
        tz = resolve_timezone(settings.timezone)
        cut = [local_midnights(d, 1, tz)[0] for d in (days[0], days[1] + timedelta(days=1))]
    try:
        series = parse_series_bytes(data, schema, *cut)
    except ParseError as e:
        e.args = (f"{settings.inputs[ch]}: {e}",)  # name the file before the line number
        raise
    filled, gaps = fill_gaps(series, settings.gap_fill)
    daily = resample_daily(filled, "sum" if ch == ENERGY_CHANNEL else "mean")
    n_filled = gaps.count("interpolated") + gaps.count("edge-hold")
    return daily, series.duplicates_collapsed, n_filled, gaps.count("left-unfilled")


def _ingest(settings: RunSettings, days: Optional[tuple] = None):
    """Ingest and align the channels the features need; log in channel order.

    With ``days``, a (first, last) pair, the table holds only the days
    ``first..last``."""
    needed = (ENERGY_CHANNEL,) + tuple(settings.features.weather_channels)
    daily = {}
    n = len(needed)
    results = map_in_workers(_ingest_channel, needed, [settings] * n, [days] * n)
    for ch, (series, dupes, n_filled, n_unfilled) in zip(needed, results):
        if dupes:
            log.warning("%s: collapsed %d duplicate timestamp rows", ch, dupes)
        if n_filled or n_unfilled:
            log.info("%s: filled %d gap(s), left %d unfillable", ch, n_filled, n_unfilled)
        daily[ch] = series
    energy = daily.pop(ENERGY_CHANNEL)
    return align(energy, daily, days)


# ---------------------------------------------------------------------------
# table rendering


def _fmt_cell(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:9.4f}"


def _gate_cell(kpis) -> str:
    if kpis.gate is None:  # see metrics.kpi_report
        return f"n/a (monthly KPIs need at least {max(2, kpis.p + 1)} complete test months)"
    if kpis.passed:
        return "PASS"
    failed = [k.removesuffix("_ok") for k, ok in vars(kpis.gate).items() if k.endswith("_ok") and not ok]
    return "FAIL(" + ",".join(failed) + ")"


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


def _daily_csv(run, settings) -> str:
    study = run.report.study
    # Cumulative curves run over the study days the ensemble covers.
    cover = ~np.isnan(study.ensemble_predicted_kwh)
    cumulative = []
    for curve in (run.report.cumulative.actual_kwh, run.report.cumulative.predicted_kwh):
        column = np.full(cover.size, np.nan)
        column[cover] = curve
        cumulative.append(column)

    header = (
        ["date", "actual_kwh", "predicted_ensemble_kwh", "dlr_ensemble",
         "cumulative_actual_kwh", "cumulative_predicted_kwh"]
        + [f"predicted_{name}_kwh" for name in run.preds]
    )
    columns = (
        [study.actual_kwh, study.ensemble_predicted_kwh, study.dlr["ensemble"], *cumulative]
        + [pred[run.study_mask] for pred in run.preds.values()]
    )
    rows = [",".join(header)]
    for d, *values in zip(study.dates, *columns):
        rows.append(",".join([d.isoformat()] + [_csv_num(v) for v in values]))
    return "\n".join(rows) + "\n"


def _monthly_csv(run, settings) -> str:
    header = "month,actual_kwh,predicted_kwh,reduction_kwh"
    study = run.report.study
    cover = ~np.isnan(study.ensemble_predicted_kwh)
    try:
        dates = [d for d, c in zip(study.dates, cover) if c]
        roll = monthly_rollup(dates, study.actual_kwh[cover], study.ensemble_predicted_kwh[cover])
    except DataError:
        return header + "\n"
    rows = [header]
    for (yy, mm), a, p in zip(roll.months, roll.actual, roll.predicted):
        rows.append(f"{yy:04d}-{mm:02d},{_csv_num(a)},{_csv_num(p)},{_csv_num(p - a)}")
    return "\n".join(rows) + "\n"


def _test_overlay_svg(run, settings) -> Optional[str]:
    """Held-out overlay over the test days that at least one model predicts."""
    rows = run.test_mask & ~np.isnan(list(run.preds.values())).all(axis=0)
    if not rows.any():
        return None
    dates = [d for d, r in zip(run.dates, rows) if r]
    return overlay_chart(dates, run.actual[rows], {n: pred[rows] for n, pred in run.preds.items()})


def _dlr_svg(run, settings) -> Optional[str]:
    study = run.report.study
    return dlr_chart(study.dates, study.dlr["ensemble"]) if study.dates else None


def _cumulative_svg(run, settings) -> Optional[str]:
    cum = run.report.cumulative
    return cumulative_chart(cum.dates, cum.actual_kwh, cum.predicted_kwh) if cum.dates else None


@dataclass
class SavedModel:
    """The envelope of one ``models/<name>.json`` file around its model.

    ``kind`` names the model, which must be the file's; ``payload`` is the
    model kind's to_dict form.
    """

    kind: str
    feature_names: list[str]
    feature_scaler: Scaler
    lookback_days: int = field(metadata={"minimum": 1})
    payload: dict

    __post_init__ = check_fields


def _model_json(name: str, run, settings: RunSettings) -> Optional[str]:
    """The ``models/<name>.json`` file of model ``name``, if it was fitted."""
    if name not in run.fitted:
        return None
    envelope = SavedModel(
        kind=name,
        feature_names=list(run.report.feature_names),
        feature_scaler=run.feature_scaler,
        lookback_days=settings.features.lookback_days,
        payload={},
    )
    # to_dict's payload is JSON-ready already, so only the envelope is encoded
    doc = dict(to_json(envelope), payload=MODEL_KINDS[name].to_dict(run.fitted[name]))
    return json.dumps(doc, sort_keys=True) + "\n"


def _artifact_table(settings: RunSettings) -> dict:
    """{path under output_dir: renderer} of each file but report.json that a
    run unlinks and writes, in that order. A renderer maps (run, settings) to
    the file's text, or to None where the run has no such file."""
    models = MODEL_KINDS if settings.save_models else ()
    return {"daily.csv": _daily_csv, "monthly.csv": _monthly_csv,
            "plots/test_overlay.svg": _test_overlay_svg, "plots/dlr.svg": _dlr_svg,
            "plots/cumulative.svg": _cumulative_svg,
            **{f"models/{name}.json": partial(_model_json, name) for name in models}}


@contextmanager
def _writing(path: Path):
    """Turn an OSError while writing below ``path`` (a full disk, a file where
    a directory goes, ...) into a NormbaseError that names the file, exit 4."""
    try:
        yield
    except OSError as e:
        raise NormbaseError(f"cannot write {e.filename or path}: {e.strerror or e}") from None


def _unlink_artifacts(settings: RunSettings):
    """Unlink report.json, its temporary name and every file of the artifact
    table, so a run that fails leaves no earlier run's file to read as its own."""
    for name in ("report.json", "report.json.tmp", *_artifact_table(settings)):
        (settings.output_dir / name).unlink(missing_ok=True)


def _write_artifacts(outdir: Path, run, settings: RunSettings):
    """Write the artifact table's files, report.json last and in one rename,
    so a report.json on disk always belongs to a complete set."""
    for name, render in _artifact_table(settings).items():
        path = outdir / name
        path.parent.mkdir(parents=True, exist_ok=True)  # plots/ even without a chart
        text = render(run, settings)
        if text is not None:
            path.write_text(text)
    tmp = outdir / "report.json.tmp"
    tmp.write_text(json.dumps(to_json(run.report), indent=2, sort_keys=True, allow_nan=False) + "\n")
    os.replace(tmp, outdir / "report.json")


# ---------------------------------------------------------------------------
# subcommands


def _load_models(settings: RunSettings, models_dir: Path) -> dict:
    """{name: (SavedModel, fitted model)} of each model file in ``models_dir``,
    checked against the configured feature columns."""
    names = feature_names(settings.features)
    loaded = {}
    for name, kind in MODEL_KINDS.items():
        f = models_dir / f"{name}.json"
        if not f.exists():
            continue
        # JSONDecodeError is a ValueError; the codec raises ValueError too
        try:
            saved = from_json(SavedModel, json.loads(f.read_text()))
            if saved.kind != name:
                raise ValueError(f"it holds a {saved.kind!r} model")
            fitted = kind.from_dict(saved.payload)
            scaler = saved.feature_scaler
            shapes = {(len(saved.feature_names),), (kind.n_inputs(fitted),)}
            shapes.update(a.shape for a in (scaler.mean, scaler.std, scaler.exempt))
            if len(shapes) > 1 or scaler.exempt.dtype != bool:
                raise ValueError(f"feature names, scaler and model disagree: {sorted(shapes)}")
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load model file {f}: {e}")
        if saved.feature_names != names:
            raise ConfigError(
                f"model {name} was trained on different feature columns than configured"
            )
        loaded[name] = saved, fitted
    if not loaded:
        raise ConfigError(f"no model files found in {models_dir}")
    return loaded


def _first_scored_day(settings: RunSettings, loaded: dict) -> date:
    """``test_start - (L - 1)`` for the longest saved lookback L: the first day
    the test rows' windows reach, clamped at date.min (0001-01-01)."""
    lookback = max(saved.lookback_days for saved, _ in loaded.values())
    day = settings.periods.test[0].toordinal() - (lookback - 1)
    return date.fromordinal(max(day, date.min.toordinal()))


def _evaluate_saved(settings: RunSettings, loaded: dict) -> dict:
    """Test-range KPIs of the models _load_models loaded, bit for bit those
    of a full read.

    The table holds the days from _first_scored_day, which is never before
    0001-01-01, to the test range's last day, and each channel is parsed once,
    from its last present sample before those days to its first present
    sample after them (see _ingest_channel). The models score every feature
    row of that table, so the batch, and with it the rounding of the
    networks' sums, does not depend on what the files hold around those days.
    """
    days = (_first_scored_day(settings, loaded), settings.periods.test[1])
    matrix = build_features(_ingest(settings, days), settings.features)
    test_mask = matrix.date_mask(*settings.periods.test)
    if not test_mask.any():
        raise DataError("test range has no usable rows")
    results = {}
    for name, (saved, fitted) in loaded.items():
        scaled = apply_scaler(matrix, saved.feature_scaler)
        pred = MODEL_KINDS[name].predict(fitted, scaled, saved.lookback_days)
        results[name] = score(scaled, test_mask, pred, p=settings.kpi.p)
    return results


def _check_output_dir(path: Path):
    """Refuse an output ``path`` that is, or lies below, an existing file."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"cannot write to {path}: {existing} is not a directory")


def cmd_normalize(args) -> int:
    settings = load_run_settings(args.config)
    if args.out:
        settings.output_dir = Path(args.out)
    _check_output_dir(settings.output_dir)
    with _writing(settings.output_dir):
        _unlink_artifacts(settings)
    table = _ingest(settings)
    log.info("aligned table: %d days, %d excluded", len(table), table.n_excluded)

    run = run_pipeline(table, settings)
    with _writing(settings.output_dir):
        _write_artifacts(settings.output_dir, run, settings)

    report = run.report
    print(kpi_table({n: m.kpis for n, m in report.models.items()}))
    if report.flags.no_valid_baseline:
        print("\nno valid baseline: no model passed the acceptance gate")
        print(f"artifacts written to {settings.output_dir}")
        return 3
    print(f"\nmodels used: {', '.join(report.models_used)}")
    print(f"reduction_kwh:      {report.totals.reduction_kwh:.1f}")
    print(f"reduction_fraction: {report.totals.reduction_fraction:.4f}")
    print(f"annual_share:       {report.totals.annual_share:.4f}")
    print(f"artifacts written to {settings.output_dir}")
    return 0


def cmd_evaluate(args) -> int:
    settings = load_run_settings(args.config)
    if args.models:
        kpis = _evaluate_saved(settings, _load_models(settings, Path(args.models)))
    else:
        *_, fits = fit_models(_ingest(settings), settings)
        kpis = {n: fit[0] for n, fit in fits.items()}

    print(kpi_table(kpis))
    passed = [n for n, k in kpis.items() if k.passed]
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

    cfg = _config(SynthConfig, doc)
    if target is not None:
        cfg = configure_for_target(cfg, _config(float, target, "target_reduction_fraction"))

    base_dir = Path(args.config).resolve().parent
    outdir = Path(args.out) if args.out else base_dir / _config(Path, output_dir, "output_dir")
    _check_output_dir(outdir)

    ds = generate(cfg)
    with _writing(outdir):
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
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 4
    except NormbaseError as e:  # a diverged training or an unwritable output, say
        print(f"error: {e}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
