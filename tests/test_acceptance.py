"""Acceptance suite: one test per shipped guarantee, one pass/fail line each.

Every test builds its own independent oracle or synthetic dataset, drives the
public API or the command line exactly as a user would, and asserts the
published tolerance and runtime budget.
"""

import json
import math
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from normbase import cli, gbmodels, metrics, nnmodels, synthgen, tsdata
from normbase.features import DEFAULT_WEATHER

# ---------------------------------------------------------------------------
# 1. metric implementations agree with a brute-force reference


def test_c01_metric_oracle_equivalence():
    """RMSE, CV(RMSE), R^2, NMBE match plain-Python references to 1e-12
    relative on 1,000 random pairs plus a hand-derived fixture; < 5 s."""
    t0 = time.perf_counter()

    def ref_rmse(a, q):
        return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, q)) / len(a))

    def ref_cv(a, q):
        return ref_rmse(a, q) / (math.fsum(a) / len(a))

    def ref_r2(a, q):
        mean = math.fsum(a) / len(a)
        sse = math.fsum((x - y) ** 2 for x, y in zip(a, q))
        sst = math.fsum((x - mean) ** 2 for x in a)
        return 1.0 - sse / sst

    def ref_nmbe(a, q, adj):
        mean = math.fsum(a) / len(a)
        return math.fsum(x - y for x, y in zip(a, q)) / ((len(a) - adj) * mean)

    # hand-derived fixture: errors (-10, +10, -10) around mean 200
    act, pred = [100.0, 200.0, 300.0], [110.0, 190.0, 310.0]
    assert metrics.rmse(act, pred) == pytest.approx(10.0, rel=1e-12)
    assert metrics.cv_rmse(act, pred) == pytest.approx(0.05, rel=1e-12)
    assert metrics.r_squared(act, pred) == pytest.approx(0.985, rel=1e-12)
    assert metrics.nmbe(act, pred, p=1) == pytest.approx(-0.025, rel=1e-12)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 401))
        a = rng.uniform(10.0, 1000.0, n)
        q = a + rng.normal(0.0, 30.0, n)
        pairs = [
            (metrics.rmse(a, q), ref_rmse(a, q)),
            (metrics.cv_rmse(a, q), ref_cv(a, q)),
            (metrics.r_squared(a, q), ref_r2(a, q)),
            (metrics.nmbe(a, q, p=1), ref_nmbe(a, q, 1)),
        ]
        for ours, ref in pairs:
            assert abs(ours - ref) <= 1e-12 * max(abs(ref), 1e-15)

    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. acceptance-gate thresholds are exact and strict


def test_c02_quality_gate_boundaries():
    """Gate limits are exactly 0.15/0.22 CV(RMSE) and 0.05/0.07 |NMBE|
    (monthly/daily), applied strictly; probed at limit ± 1e-9; < 1 s."""
    t0 = time.perf_counter()
    assert (metrics.MONTHLY_CV_LIMIT, metrics.DAILY_CV_LIMIT) == (0.15, 0.22)
    assert (metrics.MONTHLY_NMBE_LIMIT, metrics.DAILY_NMBE_LIMIT) == (0.05, 0.07)

    def kpis(cv, nm):
        return metrics.KpiSet(rmse=1.0, cv_rmse=cv, r_squared=0.9, nmbe=nm, n=30)

    good = kpis(0.01, 0.0)
    eps = 1e-9

    def gate(daily=good, monthly=good):
        return metrics.ashrae_gate(daily, monthly)

    # monthly CV(RMSE) < 0.15, strict
    assert gate(monthly=kpis(0.15 - eps, 0.0)).monthly_cv_ok
    assert not gate(monthly=kpis(0.15, 0.0)).monthly_cv_ok
    assert not gate(monthly=kpis(0.15 + eps, 0.0)).monthly_cv_ok
    # daily CV(RMSE) < 0.22, strict
    assert gate(daily=kpis(0.22 - eps, 0.0)).daily_cv_ok
    assert not gate(daily=kpis(0.22, 0.0)).daily_cv_ok
    assert not gate(daily=kpis(0.22 + eps, 0.0)).daily_cv_ok
    # |monthly NMBE| < 0.05, strict, both signs
    for sign in (1.0, -1.0):
        assert gate(monthly=kpis(0.01, sign * (0.05 - eps))).monthly_nmbe_ok
        assert not gate(monthly=kpis(0.01, sign * 0.05)).monthly_nmbe_ok
        assert not gate(monthly=kpis(0.01, sign * (0.05 + eps))).monthly_nmbe_ok
    # |daily NMBE| < 0.07, strict, both signs
    for sign in (1.0, -1.0):
        assert gate(daily=kpis(0.01, sign * (0.07 - eps))).daily_nmbe_ok
        assert not gate(daily=kpis(0.01, sign * 0.07)).daily_nmbe_ok
        assert not gate(daily=kpis(0.01, sign * (0.07 + eps))).daily_nmbe_ok
    # overall verdict is the conjunction of all four
    assert gate().passed
    assert not gate(daily=kpis(0.22 + eps, 0.0)).passed
    assert not gate(monthly=kpis(0.01, 0.05 + eps)).passed

    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 3. analytic network gradients agree with central finite differences


def _numeric_grads(loss_fn, arrays, eps=1e-5):
    grads = []
    for arr in arrays:
        gnum = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            hi = loss_fn()
            arr[ix] = orig - eps
            lo = loss_fn()
            arr[ix] = orig
            gnum[ix] = (hi - lo) / (2.0 * eps)
            it.iternext()
        grads.append(gnum)
    return grads


def _worst_rel_err(analytic, numeric):
    worst = 0.0
    for a_arr, n_arr in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a_arr), np.abs(n_arr)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a_arr - n_arr) / denom)))
    return worst


def test_c03_network_gradient_check():
    """MLP and LSTM backprop gradients match central differences (step 1e-5)
    to better than 1e-4 relative over 10 random draws each; < 30 s."""
    t0 = time.perf_counter()

    for draw in range(10):
        rng = np.random.default_rng(100 + draw)
        act = "relu" if draw % 2 == 0 else "tanh"
        params = nnmodels.mlp_init([3, 5, 1], activation=act, seed=100 + draw)
        for w in params.arrays():
            w += rng.normal(0.0, 0.3, w.shape)  # move off the zero biases
        X = rng.normal(0.0, 1.0, (8, 3))
        y = rng.normal(0.0, 1.0, 8)
        _, analytic = nnmodels.mlp_loss_grad(params, X, y)
        numeric = _numeric_grads(
            lambda: nnmodels.mlp_loss_grad(params, X, y)[0], params.arrays()
        )
        assert _worst_rel_err(analytic, numeric) < 1e-4

    for draw in range(10):
        rng = np.random.default_rng(200 + draw)
        params = nnmodels.lstm_init(2, 3, seed=200 + draw)
        for w in params.arrays():
            w += rng.normal(0.0, 0.2, w.shape)
        S = rng.normal(0.0, 1.0, (4, 3, 2))
        y = rng.normal(0.0, 1.0, 4)
        _, analytic = nnmodels.lstm_loss_grad(params, S, y)
        numeric = _numeric_grads(
            lambda: nnmodels.lstm_loss_grad(params, S, y)[0], params.arrays()
        )
        assert _worst_rel_err(analytic, numeric) < 1e-4

    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 4. exact trees pick provably optimal splits


def _exhaustive_best_gain(X, g, h, rows, cfg):
    """Max gain over every (feature, midpoint) candidate of a row subset."""
    best = -np.inf
    g_total = math.fsum(g[rows])
    h_total = math.fsum(h[rows])
    lam = cfg.reg_lambda
    for f in range(X.shape[1]):
        distinct = sorted(set(X[rows, f]))
        for lo, hi in zip(distinct[:-1], distinct[1:]):
            thr = 0.5 * (lo + hi)
            left = rows[X[rows, f] <= thr]
            right = rows[X[rows, f] > thr]
            hl = math.fsum(h[left])
            hr = math.fsum(h[right])
            if hl < cfg.min_child_hessian or hr < cfg.min_child_hessian:
                continue
            gl = math.fsum(g[left])
            gr = g_total - gl
            gain = 0.5 * (
                gl * gl / (hl + lam)
                + gr * gr / (hr + lam)
                - g_total * g_total / (h_total + lam)
            ) - cfg.gamma
            best = max(best, gain)
    return best


def test_c04_exact_tree_split_optimality():
    """On 200 random instances (<= 64 rows, <= 3 features, depth <= 2) every
    chosen split attains the exhaustive-enumeration maximum gain and every
    leaf weight equals -G/(H+lambda) to 1e-12; < 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    splits_checked = 0

    for _ in range(200):
        n = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        X = rng.integers(0, 6, (n, d)).astype(float)
        g = rng.normal(0.0, 2.0, n)
        h = rng.uniform(0.5, 2.0, n)
        cfg = gbmodels.BoostConfig(
            max_depth=depth, reg_lambda=lam, gamma=0.0, min_child_hessian=1.0
        )
        tree = gbmodels.build_tree_exact(X, g, h, cfg)

        stack = [(0, np.arange(n), 0)]
        while stack:
            node, rows, level = stack.pop()
            if tree.feature[node] < 0:
                want = -math.fsum(g[rows]) / (math.fsum(h[rows]) + lam)
                assert abs(tree.weight[node] - want) <= 1e-12 * max(1.0, abs(want))
                # a leaf above the depth limit must mean no positive gain exists
                if level < cfg.max_depth and rows.size >= 2:
                    assert _exhaustive_best_gain(X, g, h, rows, cfg) <= 0.0
                continue
            best = _exhaustive_best_gain(X, g, h, rows, cfg)
            assert abs(tree.gain[node] - best) <= 1e-12 * max(1.0, abs(best))
            splits_checked += 1
            go_left = X[rows, tree.feature[node]] <= tree.threshold[node]
            stack.append((tree.left[node], rows[go_left], level + 1))
            stack.append((tree.right[node], rows[~go_left], level + 1))

    assert splits_checked > 100  # the draw actually exercised real splits
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. gradient-magnitude sampling is unbiased


def test_c05_gradient_sampling_unbiased():
    """Mean over 10,000 seeds of the weighted sampled gradient sum stays
    within 2% relative of the full gradient sum (a=0.2, b=0.1); < 10 s."""
    t0 = time.perf_counter()
    g = np.random.default_rng(42).normal(1.0, 1.0, 200)
    full = float(np.sum(g))
    est = np.empty(10_000)
    for seed in range(10_000):
        idx, w = gbmodels.goss_sample(g, 0.2, 0.1, seed)
        est[seed] = float(np.sum(w * g[idx]))
    assert abs(float(est.mean()) - full) / abs(full) < 0.02
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 6. histogram trees agree with exact trees when binning is lossless


def test_c06_histogram_matches_exact():
    """With more bins than distinct values and no row sampling, histogram
    root splits pick the same feature as exact trees on <= 32-row instances,
    thresholds within one bin width; < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    agreements = 0

    for _ in range(200):
        n = int(rng.integers(8, 33))
        d = int(rng.integers(1, 4))
        X = rng.integers(-3, 4, (n, d)).astype(float)
        g = rng.normal(0.0, 2.0, n)
        h = rng.uniform(0.5, 2.0, n)
        cfg = gbmodels.BoostConfig(max_depth=1, max_leaves=2, bins=64, reg_lambda=1.0)

        exact = gbmodels.build_tree_exact(X, g, h, cfg)
        edges = [gbmodels.quantile_edges(X[:, f], cfg.bins) for f in range(d)]
        bin_idx = np.column_stack(
            [gbmodels._bin_column(X[:, f], edges[f]) for f in range(d)]
        )
        hist = gbmodels.build_tree_hist(
            bin_idx, edges, g, h, np.ones(n), np.arange(n), cfg
        )

        assert (hist.feature[0] < 0) == (exact.feature[0] < 0)  # both or neither refuse to split
        if exact.feature[0] < 0:
            continue
        assert hist.feature[0] == exact.feature[0]
        col = X[:, exact.feature[0]]
        grid = np.concatenate([[col.min()], edges[exact.feature[0]], [col.max()]])
        bin_width = float(np.max(np.diff(grid)))
        assert abs(hist.threshold[0] - exact.threshold[0]) <= bin_width + 1e-12
        agreements += 1

    assert agreements > 100  # the draw actually produced real splits
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 7-9. full-scale end-to-end runs (shared synthetic building)

PERIODS = {
    "train": ["2017-01-01", "2018-12-31"],
    "test": ["2019-01-01", "2019-12-31"],
    "study": ["2020-03-12", "2020-07-31"],
}


@pytest.fixture(scope="module")
def planted_040(tmp_path_factory):
    """Hourly 3.6-year building with a noiseless 0.40 reduction planted in
    the study window and daily noise at 3% of the base load."""
    root = tmp_path_factory.mktemp("accept40")
    cfg = synthgen.configure_for_target(
        synthgen.SynthConfig(interval_seconds=3600, noise_sigma_kwh=30.0, seed=2024),
        0.40,
    )
    ds = synthgen.generate(cfg)
    synthgen.write_dataset(ds, root)
    return root, ds


def _write_run_config(path: Path, data_dir: Path, out_dir: Path, seed=17) -> str:
    doc = {
        "seed": seed,
        "interval_seconds": 3600,
        "inputs": {
            ch: str(data_dir / f"{ch}.csv") for ch in ("kwh",) + DEFAULT_WEATHER
        },
        "periods": PERIODS,
        "output_dir": str(out_dir),
    }
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def test_c07_end_to_end_recovery(planted_040, tmp_path):
    """Default pipeline on the planted-0.40 building: both boosted models
    pass the gate on the held-out pre-disruption year and the ensemble
    estimate lands within ±0.05 of the planted fraction; < 5 min."""
    t0 = time.perf_counter()
    root, ds = planted_040
    assert ds.reduction_fraction == pytest.approx(0.40, rel=1e-12)

    out = tmp_path / "out"
    rc = cli.main(
        ["normalize", "--config", _write_run_config(tmp_path / "run.json", root, out)]
    )
    assert rc == 0

    report = json.loads((out / "report.json").read_text())
    for name in ("gbt_exact", "gbt_hist"):
        kpis = report["models"][name]["kpis"]
        assert kpis["gate"]["passed"] is True
        assert kpis["daily"]["cv_rmse"] < 0.22
        assert abs(kpis["daily"]["nmbe"]) < 0.07
        assert name in report["models_used"]

    estimate = report["totals"]["reduction_fraction"]
    assert abs(estimate - 0.40) < 0.05
    assert time.perf_counter() - t0 < 300.0


def test_c08_zero_disruption_null(tmp_path):
    """With no planted disruption the estimated reduction fraction stays
    inside ±0.02 of zero; < 5 min."""
    t0 = time.perf_counter()
    cfg = synthgen.SynthConfig(
        interval_seconds=3600, occupancy_drop=0.0, noise_sigma_kwh=30.0, seed=2025
    )
    ds = synthgen.generate(cfg)
    assert ds.reduction_fraction == 0.0
    root = tmp_path / "data"
    synthgen.write_dataset(ds, root)

    out = tmp_path / "out"
    rc = cli.main(
        ["normalize", "--config", _write_run_config(tmp_path / "run.json", root, out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert abs(report["totals"]["reduction_fraction"]) < 0.02
    assert time.perf_counter() - t0 < 300.0


def test_c09_thread_count_determinism(planted_040, tmp_path):
    """Two normalize runs with identical config and seed, in separate
    processes, produce byte-identical report.json; < 5 min."""
    import subprocess
    import sys

    t0 = time.perf_counter()
    root, _ = planted_040
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = _write_run_config(tmp_path / f"run_{tag}.json", root, out)
        proc = subprocess.run(
            [sys.executable, "-m", "normbase.cli", "normalize", "--config", cfg],
            capture_output=True, text=True, timeout=280,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# 10. ingestion conserves energy and fills single gaps exactly


def test_c10_data_path_conservation(planted_040):
    """Daily sum resampling conserves each full-coverage day's energy to
    1e-9 relative, and a single-sample gap fills with the exact mean of its
    two neighbors."""
    root, _ = planted_040
    schema = tsdata.SeriesSchema("kwh", "kWh", "UTC", 3600)
    series = tsdata.parse_series((root / "kwh.csv").read_text(), schema)
    daily = tsdata.resample_daily(series, "sum")

    # independent oracle: bucket samples by local calendar date, fsum each
    tz = series.tzinfo
    by_day = {}
    for e, v, m in zip(series.epochs, series.values, series.missing):
        assert not m
        by_day.setdefault(datetime.fromtimestamp(e, tz).date(), []).append(float(v))

    assert len(daily.dates) == len(by_day)
    for d, val, miss in zip(daily.dates, daily.values, daily.missing):
        assert not miss
        ref = math.fsum(by_day[d])
        assert abs(val - ref) <= 1e-9 * abs(ref)

    total_ref = math.fsum(series.values)
    assert abs(float(np.sum(daily.values)) - total_ref) <= 1e-9 * abs(total_ref)

    # single interior gap: filled value is exactly the neighbor mean
    epochs = 1_600_000_000.0 + 3600.0 * np.arange(3)
    raw = tsdata.RawSeries(
        "kwh", "kWh", 3600, "UTC",
        epochs, np.array([4.0, 0.0, 10.0]), np.array([False, True, False]),
    )
    filled, report = tsdata.fill_gaps(raw)
    assert filled.values[1] == 7.0
    assert not filled.missing.any()
    (rec,) = report.records
    assert rec.method == "interpolated"
