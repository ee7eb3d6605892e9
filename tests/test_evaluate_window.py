"""evaluate --models parses each channel once, from its last present sample
before the first day it scores to its first present sample after the test
range's last day, and its KPIs must be bit for bit those of a full read.

Each case edits the channel files of a small building whose models
normalize saved, then compares the to_json text of every KpiReport from
cli._evaluate_saved with the one from a full read: cli._evaluate_saved run
again with the two cut epochs dropped from each parse, so every value is
converted and every day is filled and resampled from the whole file. It also
checks which parses the windowed run ran: with the cut epochs (``W``) or over
the whole file (``F``), in channel order.
"""

import json
import shutil
from datetime import date

import pytest

from normbase import cli, synthgen
from normbase.savefile import to_json
from test_cli import CHANNELS, run_config, write_config

SMALL_NETWORK = {"epochs": 3, "early_stop_patience": 3}
MODELS = {"mlp": SMALL_NETWORK, "lstm": SMALL_NETWORK,
          "gbt_exact": {"rounds": 30, "learning_rate": 0.2},
          "gbt_hist": {"rounds": 30, "learning_rate": 0.2}}
HOURLY_PERIODS = {"train": ["2019-01-01", "2019-10-31"], "test": ["2019-11-01", "2019-12-31"],
                  "study": ["2020-01-01", "2020-02-15"]}
# the lookback of 7 days reaches back to 2019-11-04, and the day before is
# 2019-11-03, when New York leaves daylight saving time
NEW_YORK_PERIODS = {"train": ["2019-01-01", "2019-10-31"], "test": ["2019-11-10", "2019-12-31"],
                    "study": ["2020-01-01", "2020-02-15"]}


def building(tmp_path_factory, interval, zone, periods):
    """(channel directory, saved models, run config) of a trained building."""
    root = tmp_path_factory.mktemp(f"building{interval}")
    cfg = synthgen.SynthConfig(
        start=date(2019, 1, 1), study_start=date(2020, 1, 1), study_end=date(2020, 2, 15),
        interval_seconds=interval, timezone=zone, occupancy_drop=0.3, noise_sigma_kwh=30.0,
        seed=3,
    )
    synthgen.write_dataset(synthgen.generate(cfg), root / "data")
    doc = run_config(root / "data", interval_seconds=interval, timezone=zone, periods=periods,
                     models=MODELS, save_models=True, output_dir=str(root / "out"))
    assert cli.main(["normalize", "--config", write_config(root / "run.json", doc)]) in (0, 3)
    return root / "data", root / "out" / "models", doc


@pytest.fixture(scope="module")
def hourly(tmp_path_factory):
    return building(tmp_path_factory, 3600, "UTC", HOURLY_PERIODS)


@pytest.fixture(scope="module")
def new_york(tmp_path_factory):
    return building(tmp_path_factory, 300, "America/New_York", NEW_YORK_PERIODS)


def blank(lo, hi):
    """Empty the value cells stamped from local time ``lo`` to ``hi``."""
    return lambda lines: [line.split(",")[0] + "," if lo <= line[:19] <= hi else line
                          for line in lines]


def end_on(last):
    """Drop the rows after the day ``last``."""
    return lambda lines: lines[:1] + [line for line in lines[1:] if line[:10] <= last]


def end_at(stamp):
    """Drop the rows stamped after local time ``stamp``."""
    return lambda lines: lines[:1] + [line for line in lines[1:] if line[:19] <= stamp]


def duplicate_at(stamp, *cells):
    """Follow the row stamped at local time ``stamp`` with one row per cell, stamped alike."""
    def edit(lines):
        out = []
        for line in lines:
            out.append(line)
            if line[:19] == stamp:
                out += [f"{line.split(',')[0]},{cell}" for cell in cells]
        return out
    return edit


# The test ranges below end on 2019-12-31, so both parses are cut at the
# local midnight that opens 2020-01-01.
AFTER_TEST = "2020-01-01T00:00:00"
END_CASES = {
    # interpolated in the hourly file, left unfilled in the 5-minute one
    "gap_across_end": ({"kwh": blank("2019-12-31T20", "2020-01-01T03:00:00")}, "WWWWWW"),
    # 71 hours, more than max_interior, and 25 hours that hold the midnight
    "outage_across_end": ({"drybulb_c": blank("2019-12-30T07", "2020-01-02T05:00:00"),
                           "kwh": blank("2019-12-31T00", AFTER_TEST)}, "WWWWWW"),
    "duplicates_at_end": ({"kwh": duplicate_at(AFTER_TEST, "", "123.5"),
                           "rh_pct": duplicate_at(AFTER_TEST, "55.25")}, "WWWWWW"),
    "ends_on_the_midnight_after_test": ({ch: end_at(AFTER_TEST) for ch in CHANNELS}, "WWWWWW"),
}


def edited(data_dir, tmp_path, doc, edits: dict) -> dict:
    """The run config with each channel in ``edits`` rewritten by its edit."""
    doc = json.loads(json.dumps(doc))
    for ch, edit in edits.items():
        lines = (data_dir / f"{ch}.csv").read_text().splitlines()
        (tmp_path / f"{ch}.csv").write_text("\n".join(edit(lines)) + "\n")
        doc["inputs"][ch] = str(tmp_path / f"{ch}.csv")
    return doc


def kpi_texts(kpis: dict) -> dict:
    return {name: json.dumps(to_json(k)) for name, k in kpis.items()}


def evaluate_both(doc, models_dir, tmp_path, cpus, monkeypatch):
    """(KPIs of the windowed evaluate, KPIs of a full read, parses it ran)."""
    cpus(1)  # the channels are read in this process, where the spy sees them
    settings = cli.load_run_settings(write_config(tmp_path / "run.json", doc))
    loaded = cli._load_models(settings, models_dir)
    parses, parse = [], cli.parse_series_bytes

    def spy(data, schema, *cut):
        parses.append("W" if cut else "F")
        return parse(data, schema, *cut)

    monkeypatch.setattr(cli, "parse_series_bytes", spy)
    windowed = kpi_texts(cli._evaluate_saved(settings, loaded))
    ran = "".join(parses)
    monkeypatch.setattr(cli, "parse_series_bytes", lambda data, schema, *cut: parse(data, schema))
    full = kpi_texts(cli._evaluate_saved(settings, loaded))
    return windowed, full, ran


HOURLY_CASES = {
    "plain": ({}, "WWWWWW"),
    "excluded_days_in_lookback": ({"kwh": blank("2019-10-28", "2019-10-28T23:59:59"),
                                   "drybulb_c": blank("2019-10-30", "2019-10-30T12:00:00")},
                                  "WWWWWW"),
    # an interpolated run and an unfilled one, each from the day before on
    "gap_across_cut": ({"kwh": blank("2019-10-25T20", "2019-10-26T03:00:00"),
                        "solar_wm2": blank("2019-10-25T12", "2019-10-27T00:00:00")},
                       "WWWWWW"),
    # the full read interpolates drybulb_c's 27 hours; read from the day
    # before on, they would be a leading run too long to hold
    "outage_on_padding_day": ({"kwh": blank("2019-10-20", "2019-10-25T23:59:59"),
                               "drybulb_c": blank("2019-10-25", "2019-10-26T02:00:00")},
                              "WWWWWW"),
    # 71 blank hours, more than max_interior, from three days before the cut
    "long_run_across_cut": ({"drybulb_c": blank("2019-10-23T07", "2019-10-26T05:00:00")},
                            "WWWWWW"),
    "ends_inside_test": ({ch: end_on("2019-12-20") for ch in CHANNELS}, "WWWWWW"),
    "ends_on_last_test_day": ({ch: end_on("2019-12-31") for ch in CHANNELS}, "WWWWWW"),
    "ends_1_day_after_test": ({ch: end_on("2020-01-01") for ch in CHANNELS}, "WWWWWW"),
    "ends_2_days_after_test": ({ch: end_on("2020-01-02") for ch in CHANNELS}, "WWWWWW"),
    "ends_3_days_after_test": ({ch: end_on("2020-01-03") for ch in CHANNELS}, "WWWWWW"),
    **END_CASES,
}


@pytest.mark.parametrize("case", HOURLY_CASES)
def test_hourly_utc_kpis_match_a_full_read(hourly, case, tmp_path, cpus, monkeypatch):
    data_dir, models_dir, doc = hourly
    edits, want = HOURLY_CASES[case]
    doc = edited(data_dir, tmp_path, doc, edits)
    windowed, full, ran = evaluate_both(doc, models_dir, tmp_path, cpus, monkeypatch)
    assert windowed == full
    assert set(windowed) == set(MODELS)
    assert ran == want


def test_days_after_the_test_range_move_no_bit(hourly, tmp_path, cpus):
    data_dir, models_dir, doc = hourly
    cpus(1)
    kpis = []
    for edits in ({}, {ch: end_on("2020-01-01") for ch in CHANNELS}):
        cfg = write_config(tmp_path / "run.json", edited(data_dir, tmp_path, doc, edits))
        settings = cli.load_run_settings(cfg)
        loaded = cli._load_models(settings, models_dir)
        kpis.append(kpi_texts(cli._evaluate_saved(settings, loaded)))
    assert kpis[0] == kpis[1]


def test_no_day_from_the_first_scored_one_exits_4(hourly, tmp_path, capsys):
    data_dir, models_dir, doc = hourly
    doc = edited(data_dir, tmp_path, doc, {ch: end_on("2019-10-25") for ch in CHANNELS})
    cfg = write_config(tmp_path / "run.json", doc)
    assert cli.main(["evaluate", "--config", cfg, "--models", str(models_dir)]) == 4
    assert capsys.readouterr().err == "data error: energy and weather share no dates in range\n"


@pytest.mark.parametrize("case", ["plain", "gap_across_cut", "outage_on_padding_day",
                                  "long_run_across_cut", "gap_across_end", "outage_across_end"])
def test_table_is_the_full_reads_from_the_first_needed_day(hourly, case, tmp_path, cpus):
    """The table holds the days from the first scored one to the test end."""
    data_dir, _, doc = hourly
    doc = edited(data_dir, tmp_path, doc, HOURLY_CASES[case][0])
    settings = cli.load_run_settings(write_config(tmp_path / "run.json", doc))
    cpus(1)
    first, last = date(2019, 10, 26), date(2019, 12, 31)  # 2019-11-01 - (7 - 1) days
    full, table = cli._ingest(settings), cli._ingest(settings, (first, last))
    cut = slice(full.dates.index(first), full.dates.index(last) + 1)
    assert table.dates == full.dates[cut]
    for name in ("energy", "energy_missing", "excluded"):
        assert getattr(table, name).tobytes() == getattr(full, name)[cut].tobytes()
    for name in ("weather", "weather_missing", "coverage"):
        mine, theirs = getattr(table, name), getattr(full, name)
        assert {k: a.tobytes() for k, a in mine.items()} == {
            k: a[cut].tobytes() for k, a in theirs.items()}


NEW_YORK_CASES = {
    "plain": ({}, "WWWWWW"),
    "gap_across_cut": ({"kwh": blank("2019-11-03T23:00:00", "2019-11-04T01:00:00")}, "WWWWWW"),
    "outage_on_padding_day": ({"rh_pct": blank("2019-11-03", "2019-11-03T23:59:59")},
                              "WWWWWW"),
    # six samples, filled by interpolation
    "short_gap_across_end": ({"kwh": blank("2019-12-31T23:40", "2020-01-01T00:05:00")},
                             "WWWWWW"),
    **END_CASES,
}


@pytest.mark.parametrize("case", NEW_YORK_CASES)
def test_five_minute_new_york_kpis_match_a_full_read(new_york, case, tmp_path, cpus,
                                                     monkeypatch):
    data_dir, models_dir, doc = new_york
    edits, want = NEW_YORK_CASES[case]
    doc = edited(data_dir, tmp_path, doc, edits)
    windowed, full, ran = evaluate_both(doc, models_dir, tmp_path, cpus, monkeypatch)
    assert windowed == full
    assert ran == want


@pytest.mark.parametrize("lookbacks", [{"lstm": 12}, {"lstm": 3, "gbt_exact": 10},
                                       {"gbt_hist": 10**9}])
def test_saved_lookback_other_than_the_configured(hourly, lookbacks, tmp_path, cpus,
                                                  monkeypatch):
    data_dir, models_dir, doc = hourly
    saved = tmp_path / "models"
    shutil.copytree(models_dir, saved)
    for name, days in lookbacks.items():
        model = json.loads((saved / f"{name}.json").read_text())
        (saved / f"{name}.json").write_text(json.dumps({**model, "lookback_days": days}))
    # the day before 2019-11-01 - (12 - 1) days holds the only gap
    doc = edited(data_dir, tmp_path, doc, {"kwh": blank("2019-10-20T10", "2019-10-21T08:00:00")})
    windowed, full, ran = evaluate_both(doc, saved, tmp_path, cpus, monkeypatch)
    assert windowed == full
    # a lookback reaching before 0001-01-01 reads from that day on
    assert ran == "WWWWWW"


@pytest.mark.parametrize("line, want", [
    ("2019-01-02T05:00:00+00:00,1.2.3", "unparseable value '1.2.3'"),
    # in the study range, after the test range
    ("2020-02-10T02:00:00+00:00,1.2.3", "unparseable value '1.2.3'"),
    ("2020-02-10T02:00:00+00:0,5", "unparseable timestamp '2020-02-10T02:00:00+00:0'"),
])
def test_malformed_line_outside_the_window_exits_4(hourly, line, want, tmp_path, capsys):
    data_dir, models_dir, doc = hourly
    lines = (data_dir / "kwh.csv").read_text().splitlines()
    row = next(i for i, old in enumerate(lines) if old[:19] == line[:19])
    lines[row] = line
    (tmp_path / "kwh.csv").write_text("\n".join(lines) + "\n")
    doc = json.loads(json.dumps(doc))
    doc["inputs"]["kwh"] = str(tmp_path / "kwh.csv")
    cfg = write_config(tmp_path / "run.json", doc)
    assert cli.main(["evaluate", "--config", cfg, "--models", str(models_dir)]) == 4
    err = capsys.readouterr().err
    assert err == f"data error: {tmp_path / 'kwh.csv'}: line {row + 1}: {want}\n"


def test_test_range_ending_on_9999_12_30(hourly, tmp_path, cpus, monkeypatch):
    """The midnight after the test range is the last one a date can name."""
    data_dir, models_dir, doc = hourly
    years = {"2019": "9998", "2020": "9999"}

    def far(lines):
        return [years.get(line[:4], line[:4]) + line[4:] for line in lines]

    doc = edited(data_dir, tmp_path, doc, {ch: far for ch in CHANNELS})
    doc["periods"] = {"train": ["9998-01-01", "9998-10-31"], "test": ["9998-11-01", "9999-12-30"],
                      "study": ["9999-12-31", "9999-12-31"]}
    windowed, full, ran = evaluate_both(doc, models_dir, tmp_path, cpus, monkeypatch)
    assert windowed == full
    assert set(windowed) == set(MODELS)
    assert ran == "WWWWWW"


@pytest.mark.parametrize("model_file", ["malformed", "other_features", "none"])
def test_model_files_are_checked_before_any_channel_is_read(hourly, model_file, tmp_path,
                                                            capsys, monkeypatch):
    data_dir, models_dir, doc = hourly
    (tmp_path / "kwh.csv").write_text("timestamp,kwh\n2019-01-01T00:00:00+00:00,1.2.3\n")
    doc = json.loads(json.dumps(doc))
    doc["inputs"]["kwh"] = str(tmp_path / "kwh.csv")
    saved = tmp_path / "models"
    saved.mkdir()
    model = json.loads((models_dir / "gbt_hist.json").read_text())
    if model_file == "malformed":
        del model["payload"]
    if model_file != "none":
        if model_file == "other_features":
            doc["features"] = {"weather_channels": ["drybulb_c"]}
        (saved / "gbt_hist.json").write_text(json.dumps(model))
    parses = []
    monkeypatch.setattr(cli, "parse_series_bytes", lambda *args: parses.append(args))
    cfg = write_config(tmp_path / "run.json", doc)
    assert cli.main(["evaluate", "--config", cfg, "--models", str(saved)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert {"malformed": "cannot load model file", "none": "no model files found",
            "other_features": "different feature columns"}[model_file] in err
    assert parses == []
