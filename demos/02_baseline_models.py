"""Train counterfactual baseline models by hand and judge them with the gate.

A baseline model learns daily energy from weather and calendar features on a
pre-disruption training span. Whether its counterfactuals can be trusted is
decided on a held-out span by four KPIs — monthly and daily CV(RMSE) and
NMBE — against fixed acceptance limits (0.15 / 0.22 / 0.05 / 0.07, strict).

This script builds the feature matrix explicitly, trains one boosted-tree
model and one MLP directly against the low-level APIs, prints where each
stopped (the FitTrace both trainers return, curves in kWh RMSE), and prints
the KPI table. The full four-model ensemble pipeline is demos/03_counterfactual_study.py.

Run:  python3 demos/02_baseline_models.py
"""

from datetime import date

import numpy as np

from normbase import features, gbmodels, metrics, nnmodels, synthgen, tsdata
from normbase.cli import kpi_table


def daily_table(ds: synthgen.SynthDataset) -> tsdata.DailyTable:
    """Wrap a synthetic building's daily arrays as a modeling table."""
    n = len(ds.dates)
    clean = np.zeros(n, dtype=bool)
    return tsdata.DailyTable(
        dates=ds.dates,
        energy=ds.daily_energy,
        weather=dict(ds.daily_weather),
        weather_missing={ch: clean.copy() for ch in ds.daily_weather},
        energy_missing=clean.copy(),
        coverage={},
        excluded=clean.copy(),
    )


def main():
    # -- 1. a 3.2-year building with no disruption --------------------------
    ds = synthgen.generate(
        synthgen.SynthConfig(interval_seconds=3600, occupancy_drop=0.0, seed=21)
    )
    table = daily_table(ds)

    # -- 2. features: weather channels + calendar indicators ----------------
    matrix = features.build_features(table, features.FeatureSpec())
    train = matrix.date_mask(date(2017, 1, 1), date(2018, 12, 31))
    test = matrix.date_mask(date(2019, 1, 1), date(2019, 12, 31))
    print(f"[1] {len(table)} days; train {int(train.sum())}, "
          f"held-out test {int(test.sum())}")
    print(f"[2] feature matrix {matrix.X.shape}: {', '.join(matrix.names)}")

    # standardize non-binary columns on training statistics only
    scaler = features.fit_scaler(matrix, train)
    scaled = features.apply_scaler(matrix, scaler)
    X_tr, y_tr = scaled.X[train], scaled.y[train]
    X_te, y_te = scaled.X[test], scaled.y[test]
    test_dates = [d for d, m in zip(scaled.dates, test) if m]

    # sequence models consume lookback windows instead of single rows
    windows = features.make_sequences(scaled, lookback=7)
    print(f"[3] sequence view for recurrent models: {windows.windows.shape} "
          "(windows, days, features)")

    # -- 4. one boosted-tree baseline ---------------------------------------
    cfg = gbmodels.BoostConfig(rounds=300, learning_rate=0.1, seed=1)
    ensemble, trace = gbmodels.boost_fit((X_tr, y_tr), cfg, kind="exact")
    print(f"[4] boosted trees: {len(ensemble.trees)} rounds kept "
          f"(best validation round {trace.best + 1}, "
          f"validation RMSE {trace.val[trace.best]:.1f} kWh); "
          "row sampling by gradient magnitude and sparse-feature bundling "
          "are on by default")
    pred_gbt = gbmodels.boost_predict(ensemble, X_te)

    # -- 5. one MLP baseline -------------------------------------------------
    params, nn_trace = nnmodels.mlp_train(
        (X_tr, y_tr),
        nnmodels.TrainConfig(epochs=150, seed=2),
        hidden_sizes=(16,),
        activation="relu",
    )
    print(f"[5] MLP: stopped after epoch {len(nn_trace.train)}, "
          f"kept snapshot from epoch {nn_trace.best + 1} "
          f"(validation RMSE {nn_trace.val[nn_trace.best]:.1f} kWh)")
    pred_mlp = nnmodels.mlp_predict(params, X_te)

    # -- 6. KPIs on the held-out span and the acceptance verdict ------------
    reports = {
        "gbt_exact": metrics.kpi_report(test_dates, y_te, pred_gbt),
        "mlp": metrics.kpi_report(test_dates, y_te, pred_mlp),
    }
    print("\n" + kpi_table(reports))
    for name, rep in reports.items():
        verdict = "usable as a baseline" if rep.passed else "rejected"
        print(f"    {name}: {verdict}")


if __name__ == "__main__":
    main()
