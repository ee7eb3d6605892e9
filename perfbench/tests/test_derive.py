"""Self-tests for the benchmark's own derivations.

    python3 -m pytest perfbench/tests -q
"""

import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from derive import (  # noqa: E402
    layer_metrics,
    median_metrics,
    quartiles,
    relative_spread,
    self_time,
    union_length,
)
from run import parse_kpi_table  # noqa: E402
from tracing import Tracer  # noqa: E402


def span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "thread": 0, "attrs": attrs}


def test_union_length_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0  # nested
    assert union_length([(3.0, 8.0), (1.0, 5.0)]) == 7.0  # overlapping, unsorted
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0  # touching


def test_self_time_with_overlapping_children_on_two_threads():
    parent = span(0, "normalize.run_pipeline", None, 0.0, 10.0)
    spans = [
        parent,
        span(1, "nnmodels.lstm_train", 0, 1.0, 5.0),     # worker thread A
        span(2, "gbmodels.boost_fit", 0, 3.0, 8.0),      # worker thread B
        span(3, "nnmodels.lstm_loss_grad", 1, 1.5, 2.0),  # grandchild, inside A
        span(4, "cli.main", None, 0.0, 12.0),            # not a child
        span(5, "metrics.kpi_report", 0, 9.5, 11.0),     # clipped at 10
    ]
    # children cover [1, 8] and [9.5, 10]: 7.5 of 10 seconds
    assert self_time(parent, spans) == pytest.approx(2.5)
    assert self_time(span(6, "x", None, 0.0, 1.0), spans) == 1.0


def test_tracer_links_worker_spans_to_the_span_that_started_them():
    tracer = Tracer()
    both_inside = threading.Barrier(2, timeout=10)

    def fit():
        both_inside.wait()  # the two worker spans are open at the same time
        time.sleep(0.02)

    work = tracer.wrap(fit, "nnmodels.lstm_train")

    def run_pipeline():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.wrap(run_pipeline, "normalize.run_pipeline")()
    outer = next(s for s in tracer.spans if s["name"] == "normalize.run_pipeline")
    workers = [s for s in tracer.spans if s["name"] == "nnmodels.lstm_train"]
    assert len(workers) == 2
    assert {s["parent"] for s in workers} == {outer["id"]}
    assert len({s["thread"] for s in workers}) == 2
    overlap = union_length([(s["start"], s["end"]) for s in workers])
    assert self_time(outer, tracer.spans) == pytest.approx(
        outer["end"] - outer["start"] - overlap)
    # the two worker spans overlap, so their union is shorter than their sum
    assert overlap < sum(s["end"] - s["start"] for s in workers)


def test_quartiles_and_spread_on_fixed_inputs():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert relative_spread(values) == pytest.approx(1.0)
    assert quartiles([4.0, 1.0, 3.0]) == tuple(statistics.quantiles([4.0, 1.0, 3.0], n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_spread([3.0, 3.0, 3.0, 3.0]) == 0.0


def test_median_metrics_per_key():
    samples = [{"a": 1.0, "b": 10}, {"a": 3.0, "b": 30}, {"a": 2.0, "b": 20}]
    assert median_metrics(samples) == {"a": 2.0, "b": 20}
    assert median_metrics(samples[:2]) == {"a": 2.0, "b": 20}


def test_layer_metrics_from_one_traced_command():
    spans = [
        span(0, "cli.main", None, 0.0, 10.0),
        span(1, "cli.load_run_settings", 0, 0.0, 0.5),
        span(2, "tsdata.parse_series", 0, 0.5, 1.5, rows=100, bytes=2000),
        span(3, "normalize.run_pipeline", 0, 2.0, 9.0),
        span(4, "nnmodels.lstm_train", 3, 2.5, 8.5, epochs=4),
        span(5, "gbmodels.boost_fit", 3, 2.5, 4.5, kind="exact", rounds=10, trees=8),
        span(6, "gbmodels.boost_fit", 3, 4.5, 5.5, kind="histogram", rounds=5, trees=5),
        span(7, "nnmodels.lstm_loss_grad", 4, 3.0, 3.5, rows=32),
        span(8, "nnmodels.lstm_loss_grad", 4, 4.0, 4.5, rows=32),
    ]
    m = layer_metrics(spans)
    assert m["cli.main.s"] == 10.0
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 0.5 - 1.0 - 7.0)
    assert m["tsdata.parse_series.rows"] == 100
    assert m["tsdata.parse_series.bytes"] == 2000
    assert m["normalize.run_pipeline.self_s"] == pytest.approx(7.0 - 6.0)
    assert m["normalize.fit_overlap"] == pytest.approx((6.0 + 2.0 + 1.0) / 7.0)
    assert m["normalize.models_fitted"] == 3
    assert m["nnmodels.lstm_train.s_per_epoch"] == pytest.approx(1.5)
    assert m["nnmodels.lstm_loss_grad.calls"] == 2
    assert m["nnmodels.lstm_loss_grad.rows"] == 64
    assert m["gbmodels.boost_fit.exact.s_per_round"] == pytest.approx(0.2)
    assert m["gbmodels.boost_fit.hist.trees"] == 5
    # layers a command never calls read zero, never a division error
    assert m["nnmodels.mlp_train.s_per_epoch"] == 0.0
    assert m["svgchart.s"] == 0


def test_parse_kpi_table():
    text = (
        "model      d.CV(RMSE)     d.R^2    d.NMBE m.CV(RMSE)     m.R^2    m.NMBE  gate\n"
        "-----------------------------------------------------------------------------\n"
        "mlp            0.0121    0.9900   -0.0010     0.0050    0.9950   -0.0010  PASS\n"
        "gbt_hist       0.2500    0.5000    0.0100          -         -         -  "
        "n/a (window too short for monthly KPIs)\n"
        "\n"
        "gate passed by: mlp\n"
    )
    assert parse_kpi_table(text) == {
        "mlp": (0.0121, "PASS"),
        "gbt_hist": (0.25, "n/a (window too short for monthly KPIs)"),
    }
