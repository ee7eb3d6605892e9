"""Quantify a disruption: counterfactual prediction and deviation metrics.

The end-to-end workflow: train every baseline model on pre-disruption data,
keep the ones that pass the acceptance gate on a held-out span, predict what
consumption *would have been* during the disruption, and quantify deviation —
the daily load ratio (actual / counterfactual) and the cumulative reduction.

Because the building here is synthetic, the planted reduction is known
exactly, so the estimate can be checked against the truth.

Run:  python3 demos/03_counterfactual_study.py
"""

from datetime import date

import numpy as np

from normbase import normalize, synthgen, tsdata
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
    # -- 1. a building with a known disruption planted in spring 2020 -------
    cfg = synthgen.configure_for_target(
        synthgen.SynthConfig(interval_seconds=3600, seed=99), target_fraction=0.30
    )
    ds = synthgen.generate(cfg)
    print(f"[1] planted ground truth: {ds.reduction_kwh:,.0f} kWh "
          f"({ds.reduction_fraction:.1%} of the counterfactual) over "
          f"{cfg.study_start} .. {cfg.study_end}")

    # -- 2. train all four models, gate them, ensemble the passers ----------
    periods = normalize.PeriodSpec(
        train=(date(2017, 1, 1), date(2018, 12, 31)),
        test=(date(2019, 1, 1), date(2019, 12, 31)),
        study=(cfg.study_start, cfg.study_end),
    )
    setup = normalize.RunSetup(periods=periods, seed=5)
    report = normalize.run_pipeline(daily_table(ds), setup).report

    print("[2] held-out KPIs; only gate passers join the ensemble:\n")
    print(kpi_table({name: m.kpis for name, m in report.models.items()}))
    print(f"\n    ensemble members: {', '.join(report.models_used)}")

    # -- 3. deviation metrics ------------------------------------------------
    dlr = np.asarray(report.study.dlr["ensemble"], dtype=float)
    dlr = dlr[np.isfinite(dlr)]
    print(f"[3] daily load ratio over the study: mean {dlr.mean():.3f} "
          f"(1.0 would mean no deviation)")
    print(f"    cumulative reduction: {report.totals.reduction_kwh:,.0f} kWh "
          f"= {report.totals.reduction_fraction:.1%} of predicted consumption")
    print(f"    share of a reference year's consumption: "
          f"{report.totals.annual_share:.1%}")

    # -- 4. estimate vs. planted truth ---------------------------------------
    err = report.totals.reduction_fraction - ds.reduction_fraction
    print(f"[4] estimate {report.totals.reduction_fraction:.1%} vs planted "
          f"{ds.reduction_fraction:.1%} -> error {err:+.2%}")

    print(
        "\nThe same run is available from the command line:\n"
        "  normbase synth --config synth.json     # write the CSVs\n"
        "  normbase normalize --config run.json   # report.json, CSVs, plots\n"
        "See README.md for the config file formats."
    )


if __name__ == "__main__":
    main()
