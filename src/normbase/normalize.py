"""Counterfactual-baseline pipeline: train, gate, ensemble, quantify.

Models train on the pre-disruption train range, prove themselves on the
held-out test range (KPIs + acceptance gate), then predict what consumption
would have been over the study range had nothing changed. Deviation comes
out as per-date load ratios (actual / predicted) and cumulative reduction.

Study-range predictions see only study-range weather/calendar features and
train-range targets; study targets are never shown to a model.

RunSetup declares a run's settings once and resolves their defaults when
built: run_pipeline(table, setup) reads them from it as they are, and
cli.RunSettings extends it with the config file's input and output keys. fit_models, the pipeline up to the test KPIs, is what
``evaluate`` without ``--models`` runs. The Report dataclasses declare
report.json once: savefile.to_json writes a Report, from_json(Report, doc)
reads one back, and report_schema() derives report.schema.json from them.
A setting's or report field's allowed values sit on the field, as a Literal
or as bounds in its metadata, and savefile.check_fields enforces them when
the dataclass is built; a __post_init__ holds only the rules across fields.

The enabled models train in min(models, usable CPUs) worker processes, the
pool (map_in_workers) the CLI also ingests its input channels in; with one
such CPU (or where the platform cannot tell) they train one after another in
this process. Each model owns a seeded RNG and runs the same code on the same
bits in either case, so a model's result depends only on its setup and the
data, and every artifact is the same whatever the worker count. A worker
returns the fit's metrics.FitTrace, from which ModelKind.info.of derives
the report's v1 ``info``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from typing import Callable, Literal, Optional, Union

import numpy as np

from . import gbmodels, nnmodels
from .errors import ConfigError, DataError, NormbaseError, UndefinedMetricError
from .features import FeatureMatrix, FeatureSpec, apply_scaler, build_features, fit_scaler, make_sequences
from .metrics import KpiReport, kpi_report
from .savefile import check_fields, json_schema

SELECTION_GATE = "gate-passing"
SELECTION_TOP_K = "top_k"
Selection = Literal[SELECTION_GATE, SELECTION_TOP_K]

MIN_TRAIN_ROWS = 100
MIN_TEST_ROWS = 30


@dataclass(frozen=True)
class PeriodSpec:
    """Chronologically ordered, disjoint date ranges (inclusive bounds)."""

    train: tuple[date, date]
    test: tuple[date, date]
    study: tuple[date, date]

    def __post_init__(self):
        for name in ("train", "test", "study"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} range ends before it starts")
        if not (self.train[1] < self.test[0] and self.test[1] < self.study[0]):
            raise ConfigError("periods must be disjoint and ordered train < test < study")


@dataclass(frozen=True)
class KpiSetup:
    """KPI settings; ``p`` is the NMBE sample-count adjustment."""

    p: int = field(default=1, metadata={"minimum": 0})

    __post_init__ = check_fields


@dataclass(frozen=True)
class EnsembleSetup:
    """Which models the ensemble averages: the gate passers, or the best
    ``top_k`` by daily CV(RMSE) whatever their gate verdict."""

    selection: Selection = SELECTION_GATE
    top_k: int = field(default=2, metadata={"minimum": 1})

    __post_init__ = check_fields


@dataclass(kw_only=True)
class RunSetup:
    """What one run_pipeline call trains, gates and reports, resolved and
    checked when built, so later code reads each setting as it is.

    ``models`` maps model names (of MODEL_KINDS, at least one) to setups;
    None becomes all four with defaults, seeded ``seed`` plus their offsets.
    ``reference_range``, the annual share's denominator, becomes the test
    range when None. from_json(RunSetup, doc) picks each setup class by the
    keys of a full to_json dict, as no two setups share a field set; a
    partial config section fits the wrong one (an LSTM's ``{"epochs": 5}``
    fits MlpSetup), so the CLI translates its own (cli._model_setups).
    """

    periods: PeriodSpec
    features: FeatureSpec = FeatureSpec()
    models: Optional[dict[str, Union[MlpSetup, LstmSetup, gbmodels.BoostConfig]]] = None
    kpi: KpiSetup = KpiSetup()
    ensemble: EnsembleSetup = EnsembleSetup()
    seed: int = 0
    reference_range: Optional[tuple[date, date]] = None

    def __post_init__(self):
        check_fields(self)
        if self.models is None:
            self.models = {n: kind.setup(seed=self.seed + kind.seed_offset) for n, kind in MODEL_KINDS.items()}
        for name in self.models:
            if name not in MODEL_KINDS:
                raise ConfigError(f"unknown config key 'models.{name}'")
        if not self.models:
            raise ConfigError("all models are disabled")
        self.reference_range = self.reference_range or self.periods.test
        if self.reference_range[1] < self.reference_range[0]:
            raise ConfigError("config key 'reference_range' ends before it starts")


@dataclass(frozen=True)
class MlpSetup(nnmodels.TrainConfig):
    """The training loop's settings plus the network layout."""

    hidden_sizes: tuple[int, ...] = (32,)
    activation: nnmodels.MlpActivation = "relu"

    def __post_init__(self):
        super().__post_init__()
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ConfigError("hidden_sizes must be a non-empty list of positive sizes")


@dataclass(frozen=True)
class LstmSetup(nnmodels.TrainConfig):
    """The training loop's settings plus the cell width."""

    hidden_size: int = field(default=32, metadata={"minimum": 1})


# ---------------------------------------------------------------------------
# model registry
#
# Every model is driven through the same four calls. The functions reach the
# model modules by attribute at call time (nnmodels.mlp_train, not a stored
# reference), so wrapping a module attribute also wraps the pipeline's call.


@dataclass(frozen=True)
class ModelKind:
    """How the pipeline fits, predicts and saves one model family.

    fit(setup, matrix, train_mask, lookback) -> (fitted, FitTrace) trains on
    the masked rows of a scaled FeatureMatrix; info.of(fitted, trace) is its
    v1 report ``info``. predict(fitted, matrix, lookback) returns one value per
    matrix row, NaN where the model has no input (no full lookback window).
    to_dict/from_dict convert the fitted model to and from its saved JSON
    payload. n_inputs(fitted) is the number of feature columns it reads.
    """

    setup: type
    seed_offset: int
    fit: Callable
    info: type
    predict: Callable
    to_dict: Callable
    from_dict: Callable
    n_inputs: Callable


@dataclass
class NetInfo:
    """A network's v1 report ``info``: the epochs run, and the 0-based epoch
    whose weights the fitted model keeps."""

    epochs: int = field(metadata={"minimum": 1})
    best_epoch: int = field(metadata={"minimum": 0})
    __post_init__ = check_fields
    of = classmethod(lambda cls, params, trace: cls(len(trace.train), trace.best))


@dataclass
class TreeInfo:
    """A tree ensemble's v1 report ``info``: the rounds run, the 0-based round
    the fitted ensemble stops at (-1 after none), and the trees it keeps."""

    rounds: int = field(metadata={"minimum": 0})
    best_round: int = field(metadata={"minimum": -1})
    n_trees: int = field(metadata={"minimum": 0})
    __post_init__ = check_fields
    of = classmethod(lambda cls, ens, trace: cls(len(trace.train), trace.best, len(ens.trees)))


def _fit_mlp(setup: MlpSetup, matrix: FeatureMatrix, rows, lookback: int):
    return nnmodels.mlp_train(
        (matrix.X[rows], matrix.y[rows]), setup,
        hidden_sizes=setup.hidden_sizes, activation=setup.activation,
    )


def _fit_lstm(setup: LstmSetup, matrix: FeatureMatrix, rows, lookback: int):
    seqs = make_sequences(matrix, lookback)
    train = rows[seqs.rows]
    return nnmodels.lstm_train(
        (seqs.windows[train], seqs.targets[train]), setup, hidden_size=setup.hidden_size
    )


def _predict_lstm(params, matrix: FeatureMatrix, lookback: int) -> np.ndarray:
    seqs = make_sequences(matrix, lookback)
    pred = np.full(len(matrix), np.nan)
    pred[seqs.rows] = nnmodels.lstm_predict(params, seqs.windows)
    return pred


def _fit_trees(kind: str, cfg: gbmodels.BoostConfig, matrix: FeatureMatrix, rows, lookback: int):
    return gbmodels.boost_fit((matrix.X[rows], matrix.y[rows]), cfg, kind=kind)


def _predict_trees(ens, matrix: FeatureMatrix, lookback: int) -> np.ndarray:
    return gbmodels.boost_predict(ens, matrix.X)


def _tree_kind(kind: str, seed_offset: int) -> ModelKind:
    return ModelKind(
        setup=gbmodels.BoostConfig,
        seed_offset=seed_offset,
        fit=partial(_fit_trees, kind),
        info=TreeInfo,
        predict=_predict_trees,
        to_dict=lambda ens: gbmodels.ensemble_to_dict(ens),
        from_dict=lambda doc: gbmodels.ensemble_from_dict(doc),
        n_inputs=lambda ens: ens.n_features,
    )


MODEL_KINDS = {
    "mlp": ModelKind(
        setup=MlpSetup,
        seed_offset=11,
        fit=_fit_mlp,
        info=NetInfo,
        predict=lambda params, matrix, lookback: nnmodels.mlp_predict(params, matrix.X),
        to_dict=lambda params: nnmodels.mlp_to_dict(params),
        from_dict=lambda doc: nnmodels.mlp_from_dict(doc),
        n_inputs=lambda params: params.layer_sizes[0],
    ),
    "lstm": ModelKind(
        setup=LstmSetup,
        seed_offset=22,
        fit=_fit_lstm,
        info=NetInfo,
        predict=_predict_lstm,
        to_dict=lambda params: nnmodels.lstm_to_dict(params),
        from_dict=lambda doc: nnmodels.lstm_from_dict(doc),
        n_inputs=lambda params: params.input_size,
    ),
    "gbt_exact": _tree_kind("exact", 33),
    "gbt_hist": _tree_kind("histogram", 44),
}

MODEL_ORDER = tuple(MODEL_KINDS)


def score(matrix: FeatureMatrix, test_mask, pred, p: int = KpiSetup.p) -> KpiReport:
    """KPIs of one prediction vector over the test rows it covers.

    Raises:
        DataError: the vector covers no test row (only a model with a
            lookback window can leave rows uncovered).
    """
    rows = test_mask & ~np.isnan(pred)
    if not rows.any():
        raise DataError("test range yields no sequences for the recurrent model")
    dates = [d for d, r in zip(matrix.dates, rows) if r]
    return kpi_report(dates, matrix.y[rows], pred[rows], p=p)


# ---------------------------------------------------------------------------
# deviation operations


def daily_load_ratio(actual, predicted):
    """Actual / predicted per date.

    Returns:
        (ratio, undefined): ratio holds NaN where predicted <= 0; undefined
        is the matching bool mask.
    """
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise DataError("daily_load_ratio inputs must align")
    undefined = ~(p > 0)
    ratio = np.full(a.shape, np.nan)
    ratio[~undefined] = a[~undefined] / p[~undefined]
    return ratio, undefined


def ensemble_mean(predictions) -> np.ndarray:
    """Pointwise mean over aligned member prediction vectors.

    A NaN marks a member without a prediction there; each point averages the
    members that have one, and stays NaN where none does.
    """
    rows = [np.asarray(p, dtype=float) for p in predictions]
    if not rows:
        raise DataError("ensemble_mean needs at least one member")
    stack = np.stack(rows)
    have = ~np.isnan(stack)
    cover = have.any(axis=0)
    out = np.full(stack.shape[1:], np.nan)
    out[cover] = np.nansum(np.where(have, stack, 0.0), axis=0)[cover] / have.sum(axis=0)[cover]
    return out


def annual_share(total_reduction_kwh: float, reference_total_kwh: float) -> float:
    """Reduction expressed as a fraction of a reference period's consumption."""
    if reference_total_kwh <= 0:
        raise UndefinedMetricError("annual share undefined: reference total <= 0")
    return total_reduction_kwh / reference_total_kwh


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class ModelReport:
    """One model's test KPIs, its ModelKind.info and covered study-day predictions."""

    kpis: KpiReport
    info: Union[NetInfo, TreeInfo]
    study_predicted: list[Optional[float]]


@dataclass
class Flags:
    """No model selected; study days the ensemble covers but predicts <= 0."""

    no_valid_baseline: bool
    dlr_undefined_dates: list[date]


@dataclass
class StudySeries:
    """Per study day: actual and ensemble kWh, and the daily load ratios."""

    dates: list[date]
    actual_kwh: list[Optional[float]]
    ensemble_predicted_kwh: list[Optional[float]]
    dlr: dict[str, list[Optional[float]]]


@dataclass
class Cumulative:
    """Running sums over the study days the ensemble covers."""

    dates: list[date]
    actual_kwh: list[Optional[float]]
    predicted_kwh: list[Optional[float]]


@dataclass
class Totals:
    """The study-range reduction (None without a selected model): in kWh, of
    predicted consumption, and of the reference range's actual total."""

    reduction_kwh: Optional[float]
    reduction_fraction: Optional[float]
    annual_share: Optional[float]
    reference_total_kwh: float


@dataclass
class Report:
    """report.json, key for key, as savefile.to_json writes it. A series is
    a list of numbers with null for a NaN or an infinity: run_pipeline fills
    it with a float array, from_json(Report, doc) with a list holding None.
    """

    periods: PeriodSpec
    seed: int
    kpi_p: int = field(metadata={"minimum": 0})
    selection: Selection
    feature_names: list[str]
    models: dict[str, ModelReport]
    models_used: list[str]
    flags: Flags
    study: StudySeries
    ensemble_test_kpis: Optional[KpiReport]
    cumulative: Cumulative
    totals: Totals
    schema_version: Literal[1] = 1

    __post_init__ = check_fields


def report_schema() -> dict:
    """report.schema.json: json_schema(Report) plus the v1 rules that tie each
    model name to its info dataclass."""
    schema = {"title": "normbase normalization report", **json_schema(Report)}
    tied = {}
    for info in dict.fromkeys(kind.info for kind in MODEL_KINDS.values()):
        names = "|".join(name for name, kind in MODEL_KINDS.items() if kind.info is info)
        tied[f"^({names})$"] = {"allOf": [
            {"$ref": "#/definitions/ModelReport"},
            {"properties": {"info": {"$ref": f"#/definitions/{info.__name__}"}}},
        ]}
    schema["properties"]["models"] = {"type": "object", "additionalProperties": False,
                                      "patternProperties": tied}
    schema["properties"]["models_used"]["items"] = {"enum": list(MODEL_KINDS)}
    return schema


@dataclass
class NormalizationReport:
    """A run's report plus what its other artifacts need: ``dates`` is the
    date axis (one entry per usable feature row) of ``actual`` and each
    model's prediction in ``preds``, NaN where the model has no input
    window. The masks pick the test and study rows out of it.
    """

    report: Report
    feature_scaler: object
    dates: list
    actual: np.ndarray
    test_mask: np.ndarray
    study_mask: np.ndarray
    preds: dict
    fitted: dict


def _fit_one(name, setup, matrix, train_mask, test_mask, lookback, p) -> tuple:
    """Fit, predict and score one model: (kpis, pred, FitTrace, fitted)."""
    kind = MODEL_KINDS[name]
    fitted, trace = kind.fit(setup, matrix, train_mask, lookback)
    pred = kind.predict(fitted, matrix, lookback)
    return score(matrix, test_mask, pred, p=p), pred, trace, fitted


def map_in_workers(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, spread over worker processes.

    The input channels and the model fits both run through here, in
    min(tasks, usable CPUs) workers, where a task is one item of the first
    iterable. With one worker the calls run here, one after another.
    Otherwise they run in forked workers, which inherit the loaded modules
    and need no fresh import, and with them the one BLAS thread that
    importing normbase sets (see __init__). Results and errors are read back
    in input order, so the first failing item raises its own exception, as
    it would in the serial loop. On that or any exception (a KeyboardInterrupt,
    say), the pool's workers, the children not alive before it started, are
    terminated with the items they run, and every worker has exited before
    this returns or raises. A worker that dies (killed, say, by the kernel
    for memory) takes every pending item with it; that raises a NormbaseError
    naming the items whose results had not been read back. Where the
    platform cannot report the usable CPUs (and ``fork`` may be unsafe) it
    runs serially.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(iterables[0]), cpus)
    if workers <= 1:
        return list(map(fn, *iterables))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results, others = [], set(multiprocessing.active_children())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            # not pool.map, which cancels the items not yet started when it
            # raises: an executor that then finds its workers terminated
            # fails on a cancelled item and leaves a worker running
            futures = [pool.submit(fn, *args) for args in zip(*iterables)]
            for future in futures:
                results.append(future.result())
        except BaseException as e:
            for child in set(multiprocessing.active_children()) - others:
                child.terminate()
            if isinstance(e, BrokenProcessPool):
                lost = ", ".join(map(str, iterables[0][len(results):]))
                raise NormbaseError(f"a worker process was lost while running {lost}") from None
            raise
    return results


def fit_models(table, setup: RunSetup, ranges: tuple = ()) -> tuple:
    """Fit the models ``setup`` enables on the train rows of ``table``, an
    aligned daily table, and score them on its test rows.

    Before any fit, the train and test ranges must have enough usable rows,
    the test range more than kpi.p, then each (name, (first, last)) of
    ``ranges`` one. Returns (scaler fitted on the train rows, scaled matrix,
    test mask, fits), fits mapping each enabled model, in MODEL_ORDER, to
    (test KPIs, prediction per matrix row, FitTrace, fitted model).

    Raises:
        ConfigError: kpi.p is not below the test range's usable rows.
        DataError: too few usable rows in a range.
    """
    enabled = [name for name in MODEL_ORDER if name in setup.models]

    matrix = build_features(table, setup.features)
    train_mask = matrix.date_mask(*setup.periods.train)
    test_mask = matrix.date_mask(*setup.periods.test)
    if int(train_mask.sum()) < MIN_TRAIN_ROWS:
        raise DataError(f"train range has {int(train_mask.sum())} usable rows, needs {MIN_TRAIN_ROWS}")
    test_days = int(test_mask.sum())
    if test_days < MIN_TEST_ROWS:
        raise DataError(f"test range has {test_days} usable rows, needs {MIN_TEST_ROWS}")
    if setup.kpi.p >= test_days:
        raise ConfigError(f"kpi.p must be below the test range's {test_days} usable days, not {setup.kpi.p}")
    for name, (first, last) in ranges:
        if not matrix.date_mask(first, last).any():
            raise DataError(f"{name} has no usable rows")

    scaler = fit_scaler(matrix, train_mask)
    scaled = apply_scaler(matrix, scaler)
    fit_one = partial(_fit_one, matrix=scaled, train_mask=train_mask, test_mask=test_mask,
                      lookback=setup.features.lookback_days, p=setup.kpi.p)
    fits = map_in_workers(fit_one, enabled, [setup.models[n] for n in enabled])
    return scaler, scaled, test_mask, dict(zip(enabled, fits))


def run_pipeline(table, setup: RunSetup) -> NormalizationReport:
    """Train the models ``setup`` enables on ``table``, an aligned daily
    table covering all three periods, and quantify study-range deviation.

    Returns:
        NormalizationReport. With gate-passing selection and no passer, its
        report has ``flags.no_valid_baseline`` set, every model's KPIs and
        no totals.

    Raises:
        ConfigError: as fit_models.
        DataError: too few usable rows in a period or the reference range,
            or no selected model predicts a study day (a lookback window
            can leave them all uncovered).
    """
    periods, p, reference = setup.periods, setup.kpi.p, setup.reference_range
    scaler, scaled, test_mask, fits = fit_models(
        table, setup, (("study range", periods.study), ("reference_range", reference)))
    kpis, preds, traces, fitted = ({n: fit[i] for n, fit in fits.items()} for i in range(4))
    study_mask = scaled.date_mask(*periods.study)

    if setup.ensemble.selection == SELECTION_GATE:
        used = [n for n in fits if kpis[n].passed]
    else:
        ranked = sorted(fits, key=lambda n: kpis[n].daily.cv_rmse)
        used = ranked[: min(setup.ensemble.top_k, len(ranked))]

    # Each row averages whichever selected members predict it.
    y = scaled.y
    ensemble = np.full(len(y), np.nan)
    ensemble_test_kpis = None
    if used:
        member_preds = [preds[n] for n in used]
        ensemble = ensemble_mean(member_preds)
        # Ensemble quality on the test rows where every member predicts.
        common = test_mask & ~np.isnan(member_preds).any(axis=0)
        if common.any():
            ensemble_test_kpis = score(scaled, common, ensemble, p=p)

    study_dates = [d for d, s in zip(scaled.dates, study_mask) if s]
    study_actual = y[study_mask]
    ens_study = ensemble[study_mask]
    if used and np.isnan(ens_study).all():
        raise DataError("no selected model predicts a study day")
    study_preds = {n: pred[study_mask] for n, pred in preds.items()}
    dlr = {n: daily_load_ratio(study_actual, pred)[0] for n, pred in study_preds.items()}
    dlr["ensemble"], undef = daily_load_ratio(study_actual, ens_study)
    cover = ~np.isnan(ens_study)
    cumulative = Cumulative([d for d, c in zip(study_dates, cover) if c],
                            np.cumsum(study_actual[cover]), np.cumsum(ens_study[cover]))

    totals = Totals(None, None, None, float(np.sum(y[scaled.date_mask(*reference)])))
    if used:
        # Total reduction is defined off the cumulative curves so the two are
        # consistent to the last bit.
        total_pred = float(cumulative.predicted_kwh[-1])
        totals.reduction_kwh = float(cumulative.predicted_kwh[-1] - cumulative.actual_kwh[-1])
        if total_pred <= 0:
            raise UndefinedMetricError("reduction fraction undefined: predicted total <= 0")
        totals.reduction_fraction = totals.reduction_kwh / total_pred
        totals.annual_share = annual_share(totals.reduction_kwh, totals.reference_total_kwh)

    report = Report(
        periods=periods,
        seed=setup.seed,
        kpi_p=p,
        selection=setup.ensemble.selection,
        feature_names=list(scaled.names),
        models={n: ModelReport(kpis[n], MODEL_KINDS[n].info.of(fitted[n], traces[n]),
                               pred[~np.isnan(pred)]) for n, pred in study_preds.items()},
        models_used=used,
        flags=Flags(not used, [d for d, u, c in zip(study_dates, undef, cover) if u and c]),
        study=StudySeries(study_dates, study_actual, ens_study, dlr),
        ensemble_test_kpis=ensemble_test_kpis,
        cumulative=cumulative,
        totals=totals,
    )
    return NormalizationReport(
        report=report,
        feature_scaler=scaler,
        dates=scaled.dates,
        actual=y,
        test_mask=test_mask,
        study_mask=study_mask,
        preds=preds,
        fitted=fitted,
    )
