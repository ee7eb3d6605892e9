"""From messy interval CSVs to a clean, aligned daily modeling table.

Real meter exports arrive damaged: duplicated rows, blank value cells,
multi-hour outages. This walk-through fabricates a small synthetic building,
damages its energy export in exactly those ways, then repairs and aggregates
it step by step with the ingestion layer.

Run:  python3 demos/01_ingest_and_clean.py
"""

import tempfile
from datetime import date
from pathlib import Path

from normbase import synthgen, tsdata


def main():
    with tempfile.TemporaryDirectory(prefix="normbase_demo1_") as workdir:
        walk_through(Path(workdir))


def walk_through(workdir: Path):
    print(f"scratch directory: {workdir} (removed at exit)\n")

    # -- 1. fabricate a building ------------------------------------------
    cfg = synthgen.SynthConfig(
        start=date(2019, 1, 1),
        study_start=date(2019, 10, 1),
        study_end=date(2019, 11, 30),
        interval_seconds=3600,
        seed=42,
    )
    paths = synthgen.write_dataset(synthgen.generate(cfg), workdir / "data")
    print("[1] generated channel files:", ", ".join(sorted(paths)))

    # -- 2. damage the energy export the way real exports arrive ----------
    kwh_path = workdir / "data" / "kwh.csv"
    lines = kwh_path.read_text().splitlines()
    # wipe most of one day: 22 of 24 samples gone (an outage too long to fix)
    del lines[2000:2022]
    # a three-hour run of blank value cells (short interior gap)
    for i in range(1200, 1203):
        lines[i] = lines[i].split(",")[0] + ","
    # one isolated blank cell
    lines[700] = lines[700].split(",")[0] + ","
    # a duplicated timestamp row
    lines.insert(501, lines[500])
    messy = "\n".join(lines) + "\n"
    print("[2] damaged the export: 1 duplicated row, 4 blank cells, "
          "22 samples deleted outright")

    # -- 3. parse: sorting, de-duplication, explicit missingness ----------
    schema = tsdata.SeriesSchema("kwh", "kWh", "UTC", 3600)
    series = tsdata.parse_series(messy, schema)
    print(f"[3] parsed {len(series)} samples; "
          f"{series.duplicates_collapsed} duplicate row collapsed to its mean; "
          f"{int(series.missing.sum())} samples flagged missing")

    # -- 4. fill what can be filled safely ---------------------------------
    filled, gaps = tsdata.fill_gaps(series, tsdata.GapFillPolicy(max_interior=6))
    print("[4] gap-fill report:")
    for rec in gaps.records:
        print(f"      {rec.start:%Y-%m-%d %H:%M} length={rec.length:>2}  {rec.method}")
    print("    (a single missing sample becomes the mean of its neighbors;"
          " short runs are interpolated in time)")

    # -- 5. aggregate to local calendar days -------------------------------
    daily_energy = tsdata.resample_daily(filled, "sum")
    bad_days = [d for d, m in zip(daily_energy.dates, daily_energy.missing) if m]
    print(f"[5] daily sums: {len(daily_energy.dates)} days; "
          f"{len(bad_days)} dropped for coverage below 90%: {bad_days}")

    weather = {}
    for ch in ("drybulb_c", "solar_wm2"):
        raw = tsdata.parse_series(
            (workdir / "data" / f"{ch}.csv").read_text(),
            tsdata.SeriesSchema(ch, tsdata.CHANNEL_UNITS[ch], "UTC", 3600),
        )
        w_filled, _ = tsdata.fill_gaps(raw)
        weather[ch] = tsdata.resample_daily(w_filled, "mean")

    # -- 6. inner-join energy with weather ---------------------------------
    table = tsdata.align(daily_energy, weather)
    print(f"[6] aligned table: {len(table)} days x "
          f"{1 + len(table.weather)} channels, {table.n_excluded} row(s) excluded")
    print("\nThe table is ready for feature construction and model training —"
          "\nsee demos/02_baseline_models.py.")


if __name__ == "__main__":
    main()
