"""Pure derivations the benchmark makes from its raw measurements.

Nothing here imports normbase or touches the file system, so the self-tests
in ``perfbench/tests`` can pin every formula on small fixed inputs.

A span is a dict with at least ``id``, ``name``, ``parent``, ``start``,
``end`` (seconds on one monotonic clock) and ``attrs`` (counts observed at
the call).
"""

from __future__ import annotations

import statistics


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_time(span: dict, spans) -> float:
    """Duration of ``span`` minus the union of its child spans' intervals.

    Children may run on other threads and overlap each other (two pool
    workers), so their durations are not simply subtracted. Each child is
    clipped to the parent's interval.
    """
    lo, hi = span["start"], span["end"]
    kids = [
        (max(s["start"], lo), min(s["end"], hi))
        for s in spans
        if s["parent"] == span["id"] and s["end"] > lo and s["start"] < hi
    ]
    return (hi - lo) - union_length(kids)


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


# ---------------------------------------------------------------------------
# per-layer metrics from one traced command


def _named(spans, *names):
    return [s for s in spans if s["name"] in names]


def _seconds(spans, *names) -> float:
    return sum(s["end"] - s["start"] for s in _named(spans, *names))


def _count(spans, key, *names) -> int:
    return sum(s["attrs"].get(key, 0) for s in _named(spans, *names))


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


MODEL_FITS = ("nnmodels.lstm_train", "nnmodels.mlp_train", "gbmodels.boost_fit")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced ``normbase`` command.

    ``*.s`` is inclusive time summed over calls; ``*.self_s`` subtracts the
    union of child intervals; counts come from span attributes.
    """
    m = {}
    m["tsdata.parse_series.s"] = _seconds(spans, "tsdata.parse_series")
    m["tsdata.parse_series.rows"] = _count(spans, "rows", "tsdata.parse_series")
    m["tsdata.parse_series.bytes"] = _count(spans, "bytes", "tsdata.parse_series")
    m["tsdata.fill_gaps.s"] = _seconds(spans, "tsdata.fill_gaps")
    m["tsdata.fill_gaps.filled"] = _count(spans, "filled", "tsdata.fill_gaps")
    m["tsdata.resample_daily.s"] = _seconds(spans, "tsdata.resample_daily")
    m["tsdata.resample_daily.days"] = _count(spans, "days", "tsdata.resample_daily")
    m["tsdata.align.s"] = _seconds(spans, "tsdata.align")
    m["tsdata.align.days_excluded"] = _count(spans, "days_excluded", "tsdata.align")

    m["features.build_features.s"] = _seconds(spans, "features.build_features")
    m["features.make_sequences.s"] = _seconds(spans, "features.make_sequences")
    m["features.rows"] = _count(spans, "rows", "features.build_features")

    for net in ("lstm", "mlp"):
        train = f"nnmodels.{net}_train"
        m[f"{train}.s"] = _seconds(spans, train)
        m[f"{train}.epochs"] = _count(spans, "epochs", train)
        m[f"{train}.s_per_epoch"] = _per(m[f"{train}.s"], m[f"{train}.epochs"])
        grad = f"nnmodels.{net}_loss_grad"
        m[f"{grad}.calls"] = len(_named(spans, grad))
        m[f"{grad}.s"] = _seconds(spans, grad)
    m["nnmodels.lstm_loss_grad.rows"] = _count(spans, "rows", "nnmodels.lstm_loss_grad")
    m["nnmodels.lstm_predict.s"] = _seconds(spans, "nnmodels.lstm_predict")
    m["nnmodels.mlp_predict.s"] = _seconds(spans, "nnmodels.mlp_predict")
    m["nnmodels.from_dict.s"] = _seconds(spans, "nnmodels.lstm_from_dict", "nnmodels.mlp_from_dict")
    m["nnmodels.to_dict.s"] = _seconds(spans, "nnmodels.lstm_to_dict", "nnmodels.mlp_to_dict")

    for kind, tag in (("exact", "exact"), ("histogram", "hist")):
        fits = [s for s in _named(spans, "gbmodels.boost_fit") if s["attrs"].get("kind") == kind]
        key = f"gbmodels.boost_fit.{tag}"
        m[f"{key}.s"] = sum(s["end"] - s["start"] for s in fits)
        m[f"{key}.rounds"] = sum(s["attrs"].get("rounds", 0) for s in fits)
        m[f"{key}.trees"] = sum(s["attrs"].get("trees", 0) for s in fits)
        m[f"{key}.s_per_round"] = _per(m[f"{key}.s"], m[f"{key}.rounds"])
    for fn in ("build_tree_exact", "build_tree_hist", "predict_tree"):
        m[f"gbmodels.{fn}.calls"] = len(_named(spans, f"gbmodels.{fn}"))
        m[f"gbmodels.{fn}.s"] = _seconds(spans, f"gbmodels.{fn}")
    for fn in ("goss_sample", "efb_bundle", "boost_predict", "ensemble_from_dict", "ensemble_to_dict"):
        m[f"gbmodels.{fn}.s"] = _seconds(spans, f"gbmodels.{fn}")

    m["metrics.kpi_report.calls"] = len(_named(spans, "metrics.kpi_report"))
    m["metrics.kpi_report.s"] = _seconds(spans, "metrics.kpi_report")

    pipelines = _named(spans, "normalize.run_pipeline")
    m["normalize.run_pipeline.s"] = _seconds(spans, "normalize.run_pipeline")
    m["normalize.run_pipeline.self_s"] = sum(self_time(s, spans) for s in pipelines)
    m["normalize.fit_overlap"] = _per(_seconds(spans, *MODEL_FITS), m["normalize.run_pipeline.s"])
    m["normalize.models_fitted"] = len(_named(spans, *MODEL_FITS))

    m["cli.main.s"] = _seconds(spans, "cli.main")
    m["cli.main.self_s"] = sum(self_time(s, spans) for s in _named(spans, "cli.main"))
    m["cli.load_run_settings.s"] = _seconds(spans, "cli.load_run_settings")
    m["svgchart.s"] = _seconds(
        spans, "svgchart.overlay_chart", "svgchart.dlr_chart", "svgchart.cumulative_chart"
    )
    return m


def median_metrics(samples) -> dict:
    """Per-key median over a list of metric dicts with the same keys."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
