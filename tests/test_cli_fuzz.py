"""Property-based fuzz of the command line: whatever the inputs, a run ends
with a documented exit code (0, 2, 3 or 4), never with an exception, leaves
no model worker process behind, and a report.json it writes validates
against the report schema and reads back through from_json(Report, ...).

Each example runs ``normbase synth`` on a small building (a drawn zone,
cadence and seed, sometimes a bad config value), damages the written files
(gaps, blanked or corrupt cells, bytes that are not UTF-8, duplicated rows,
cut ranges) and runs ``normbase normalize`` on them with a drawn, sometimes
invalid, run config. Short training keeps the whole test within a few seconds.
"""

import contextlib
import io
import json
import multiprocessing
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from normbase import cli

CHANNELS = ("kwh", "drybulb_c", "solar_wm2", "rh_pct", "dewpoint_c", "windspeed_ms")
EXIT_CODES = {0, 2, 3, 4}

SYNTH = {
    "start": "2019-01-01",
    "study_start": "2019-11-15",
    "study_end": "2019-12-31",
    "occupancy_drop": 0.3,
    "noise_sigma_kwh": 20.0,
}
BAD_SYNTH = (
    ("interval_seconds", 7000), ("interval_seconds", 0), ("seed", -1),
    ("timezone", "Mars/Olympus"), ("timezone", "+25:00"), ("study_end", "2019-13-01"),
    ("occupancy_drop", 2.0), ("start", "2020-01-01"), ("noise_sigma_kwh", "loud"),
    ("noise_sigma_kwh", 1e6), ("weekly_pattern", [1.0, 2.0]), ("colour", "red"),
)
PERIODS = {
    "train": ["2019-01-01", "2019-08-31"],
    "test": ["2019-09-01", "2019-11-14"],
    "study": ["2019-11-15", "2019-12-31"],
}
MODELS = {
    "gbt_exact": {"rounds": 15, "learning_rate": 0.3},
    "gbt_hist": {"rounds": 15, "learning_rate": 0.3},
    "mlp": {"epochs": 4, "hidden_sizes": [4]},
    "lstm": {"epochs": 2, "hidden_size": 4, "batch_size": 64},
}
BAD_RUN = (
    ("kpi", {"p": -1}), ("ensemble", {"top_k": 0}), ("ensemble", {"selection": "best"}),
    ("gap_fill", {"max_interior": -3}), ("interval_seconds", "hourly"),
    ("interval_seconds", 0), ("timezone", "Nowhere/Land"),
    ("periods", {**PERIODS, "test": ["2019-11-14", "2019-09-01"]}),
    ("periods", {**PERIODS, "study": ["2020-03-01", "2020-03-31"]}),
    ("features", {"lookback_days": 0}), ("features", {"weather_channels": ["winddir_deg"]}),
    ("features", {"calendar": ["lunar_phase"]}), ("reference_range", ["2019-03-01", "2019-02-01"]),
    ("models", {"gbt_exact": {"rounds": -1}}), ("models", {"mlp": {"hidden_sizes": []}}),
    ("models", {"gbt_hist": {"learning_rate": 1e308}}), ("models", {"lstm": {"epochs": 1.5}}),
    ("seed", -3), ("save_models", "yes"),
)
DAMAGE = ("gap", "blank", "corrupt", "nan", "binary", "duplicate", "cut_head", "cut_tail", "empty")


@st.composite
def scenarios(draw):
    synth = dict(
        SYNTH,
        timezone=draw(st.sampled_from(["UTC", "+05:30", "America/New_York", "Australia/Lord_Howe"])),
        interval_seconds=draw(st.sampled_from([3600, 3600, 1800, 86400])),
        seed=draw(st.integers(0, 40)),
    )
    if draw(st.integers(0, 5)) == 0:
        key, value = draw(st.sampled_from(BAD_SYNTH))
        synth[key] = value
    damage = draw(st.lists(st.tuples(
        st.sampled_from(CHANNELS), st.sampled_from(DAMAGE),
        st.floats(0.0, 1.0), st.integers(1, 2000),
    ), max_size=3))
    run = {
        "seed": draw(st.integers(0, 9)),
        "timezone": synth.get("timezone") if draw(st.integers(0, 5)) else "UTC",
        "interval_seconds": synth.get("interval_seconds") if draw(st.integers(0, 5)) else 3600,
        "periods": PERIODS,
        "models": {name: budget if draw(st.booleans()) else {"enabled": False}
                   for name, budget in MODELS.items()},
        "save_models": draw(st.booleans()),
    }
    if draw(st.integers(0, 3)) == 0:
        key, value = draw(st.sampled_from(BAD_RUN))
        run[key] = {**run[key], **value} if key == "models" else value
    return synth, damage, run


def damage_file(path: Path, kind: str, where: float, length: int):
    """Apply one kind of damage to a written channel file.

    The file goes through surrogateescape, so a byte an earlier "binary"
    damage wrote stays that byte.
    """
    lines = path.read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    head, rows = lines[:1], lines[1:]
    at = int(where * len(rows))
    hit = slice(at, at + length)
    if kind == "gap":
        del rows[hit]
    elif kind in ("blank", "corrupt", "nan", "binary"):
        cell = {"blank": "", "corrupt": "12..5", "nan": "nan", "binary": "1\udcff"}[kind]
        rows[hit] = [r.split(",")[0] + "," + cell for r in rows[hit]]
    elif kind == "duplicate":
        rows[at:at] = [r + "1" for r in rows[hit]]
    elif kind == "cut_head":
        rows = rows[at:]
    elif kind == "cut_tail":
        rows = rows[:at]
    else:
        rows = []
    path.write_text("\n".join(head + rows) + "\n", encoding="utf-8", errors="surrogateescape")


def run_cli(argv):
    """Exit code and stderr of one in-process run; an exception propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@settings(deadline=None, max_examples=40)
@given(scenarios())
@example((dict(SYNTH, timezone="America/New_York", interval_seconds=3600, seed=1),
          [("kwh", "duplicate", 0.5, 30), ("drybulb_c", "gap", 0.2, 200)],
          {"periods": PERIODS, "interval_seconds": 3600, "timezone": "America/New_York",
           "models": {"mlp": {"enabled": False}, "lstm": {"enabled": False},
                      "gbt_exact": MODELS["gbt_exact"], "gbt_hist": MODELS["gbt_hist"]}}))
@example((dict(SYNTH, interval_seconds=3600, seed=2), [("rh_pct", "binary", 0.3, 1)],
          {"periods": PERIODS, "interval_seconds": 3600,
           "models": {"mlp": {"enabled": False}, "lstm": {"enabled": False},
                      "gbt_exact": MODELS["gbt_exact"], "gbt_hist": MODELS["gbt_hist"]}}))
def test_cli_exits_with_a_documented_code(read_report, scenario):
    synth, damage, run = scenario
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "synth.json").write_text(json.dumps(dict(synth, output_dir="data")))
        rc, err = run_cli(["synth", "--config", str(root / "synth.json")])
        event(f"synth exits {rc}")
        assert rc in EXIT_CODES and "Traceback" not in err
        if rc != 0:
            return
        for channel, kind, where, length in damage:
            damage_file(root / "data" / f"{channel}.csv", kind, where, length)

        inputs = {ch: f"data/{ch}.csv" for ch in CHANNELS}
        (root / "run.json").write_text(json.dumps(dict(run, inputs=inputs, output_dir="out")))
        rc, err = run_cli(["normalize", "--config", str(root / "run.json")])
        event(f"normalize exits {rc}")
        assert rc in EXIT_CODES and "Traceback" not in err
        assert not multiprocessing.active_children()
        report = root / "out" / "report.json"
        if rc in (0, 3) or report.exists():
            read_report(report.read_text())
