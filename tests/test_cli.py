import argparse
import contextlib
import dataclasses
import errno
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import encode_report, nested_tree
from normbase import cli, gbmodels, nnmodels, synthgen, tsdata
from normbase.errors import ConfigError, DataError, ParseError
from normbase.features import FeatureSpec, Scaler, apply_scaler, build_features
from normbase.normalize import MODEL_KINDS, EnsembleSetup, KpiSetup, PeriodSpec, RunSetup, run_pipeline
from normbase.savefile import from_json, to_json

# ---------------------------------------------------------------------------
# shared on-disk dataset: coarse interval keeps parsing fast


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    cfg = synthgen.SynthConfig(
        start=date(2019, 1, 1),
        study_start=date(2020, 1, 1),
        study_end=date(2020, 2, 15),
        interval_seconds=1800,
        occupancy_drop=0.3,
        noise_sigma_kwh=30.0,
        seed=3,
    )
    ds = synthgen.generate(cfg)
    synthgen.write_dataset(ds, root)
    (root / "truth.json").write_text(json.dumps({
        "reduction_fraction": ds.reduction_fraction,
        "reduction_kwh": ds.reduction_kwh,
    }))
    return root


CHANNELS = ("kwh", "drybulb_c", "solar_wm2", "rh_pct", "dewpoint_c", "windspeed_ms")


def run_config(data_dir: Path, **over) -> dict:
    doc = {
        "seed": 5,
        "interval_seconds": 1800,
        # absolute paths so the config file can live in any tmp dir
        "inputs": {ch: str(data_dir / f"{ch}.csv") for ch in CHANNELS},
        "periods": {
            "train": ["2019-01-01", "2019-10-31"],
            "test": ["2019-11-01", "2019-12-31"],
            "study": ["2020-01-01", "2020-02-15"],
        },
        "models": {
            "mlp": {"enabled": False},
            "lstm": {"enabled": False},
            "gbt_exact": {"rounds": 60, "learning_rate": 0.2},
            "gbt_hist": {"rounds": 60, "learning_rate": 0.2},
        },
    }
    doc.update(over)
    return doc


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def damaged_dir(data_dir, tmp_path_factory):
    """The dataset with two duplicate rows each in kwh and rh_pct, a short
    blank run in drybulb_c (filled) and a long one in rh_pct (left unfilled)."""
    root = tmp_path_factory.mktemp("damaged")
    for ch in CHANNELS:
        lines = (data_dir / f"{ch}.csv").read_text().splitlines()
        if ch in ("kwh", "rh_pct"):
            lines[100:100] = lines[100:102]
        blank = {"drybulb_c": slice(500, 503), "rh_pct": slice(900, 960)}.get(ch)
        if blank:
            lines[blank] = [line.split(",")[0] + "," for line in lines[blank]]
        (root / f"{ch}.csv").write_text("\n".join(lines) + "\n")
    return root


def run_with_cpus(n: int, argv: list) -> subprocess.CompletedProcess:
    """One CLI run in its own process, which sees n usable CPUs; its stderr
    holds whatever the workers write too."""
    script = (
        "import os, sys\n"
        "from normbase import cli\n"
        "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, str(n), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def happy_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    cfg = write_config(
        data_dir / "run.json",
        run_config(data_dir, save_models=True, output_dir=str(out)),
    )
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["normalize", "--config", cfg])
    return rc, out, buf.getvalue()


class TestNormalize:
    def test_exit_code_zero(self, happy_run):
        assert happy_run[0] == 0

    def test_artifacts_written(self, happy_run):
        _, out, _stdout = happy_run
        assert (out / "report.json").is_file()
        assert (out / "daily.csv").is_file()
        assert (out / "monthly.csv").is_file()
        assert (out / "plots" / "test_overlay.svg").is_file()
        assert (out / "plots" / "dlr.svg").is_file()
        assert (out / "plots" / "cumulative.svg").is_file()
        assert (out / "models" / "gbt_exact.json").is_file()
        assert (out / "models" / "gbt_hist.json").is_file()

    def test_report_validates_against_schema(self, happy_run, read_report):
        _, out, _stdout = happy_run
        doc = read_report((out / "report.json").read_text())
        assert doc["flags"]["no_valid_baseline"] is False
        assert doc["models_used"]  # at least one gate passer

    def test_estimate_close_to_planted(self, happy_run, data_dir):
        _, out, _stdout = happy_run
        doc = json.loads((out / "report.json").read_text())
        truth = json.loads((data_dir / "truth.json").read_text())
        est = doc["totals"]["reduction_fraction"]
        assert abs(est - truth["reduction_fraction"]) < 0.05

    def test_daily_csv_consistent_with_report(self, happy_run):
        _, out, _stdout = happy_run
        doc = json.loads((out / "report.json").read_text())
        lines = (out / "daily.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == [
            "date", "actual_kwh", "predicted_ensemble_kwh", "dlr_ensemble",
            "cumulative_actual_kwh", "cumulative_predicted_kwh",
        ]
        assert len(lines) - 1 == len(doc["study"]["dates"])
        first = lines[1].split(",")
        assert first[0] == doc["study"]["dates"][0]
        assert float(first[1]) == doc["study"]["actual_kwh"][0]

    def test_monthly_csv_has_complete_month(self, happy_run):
        _, out, _stdout = happy_run
        lines = (out / "monthly.csv").read_text().strip().splitlines()
        assert lines[0] == "month,actual_kwh,predicted_kwh,reduction_kwh"
        assert any(row.startswith("2020-01,") for row in lines[1:])

    def test_stdout_mentions_models_and_totals(self, happy_run):
        _, out, stdout = happy_run
        doc = json.loads((out / "report.json").read_text())
        assert "d.CV(RMSE)" in stdout
        assert f"models used: {', '.join(doc['models_used'])}" in stdout
        assert f"reduction_fraction: {doc['totals']['reduction_fraction']:.4f}" in stdout
        assert "artifacts written to" in stdout

    def test_unknown_config_key(self, data_dir, tmp_path, capsys):
        doc = run_config(data_dir)
        doc["models"]["gbt_exact"]["lerning_rate"] = 0.1
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        assert "unknown config key 'models.gbt_exact.lerning_rate'" in capsys.readouterr().err

    def test_missing_required_key(self, data_dir, tmp_path, capsys):
        doc = run_config(data_dir)
        del doc["periods"]
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        assert "periods" in capsys.readouterr().err

    def test_missing_input_file(self, data_dir, tmp_path, capsys):
        doc = run_config(data_dir)
        doc["inputs"]["kwh"] = "nope.csv"
        # inputs resolve relative to the config file, so point the config at
        # the dataset dir but give a bogus energy path
        cfg = write_config(data_dir / "bad_input.json", doc)
        rc = cli.main(["normalize", "--config", cfg])
        assert rc == 2
        assert "cannot read input file" in capsys.readouterr().err

    def test_corrupt_data_value(self, data_dir, tmp_path, capsys):
        broken = tmp_path / "kwh.csv"
        lines = (data_dir / "kwh.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",not-a-number"
        broken.write_text("\n".join(lines) + "\n")
        doc = run_config(data_dir)
        doc["inputs"] = {
            ch: str(data_dir / f"{ch}.csv") for ch in doc["inputs"]
        }
        doc["inputs"]["kwh"] = str(broken)
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 4
        assert f"data error: {broken}: line 3: unparseable value 'not-a-number'" in capsys.readouterr().err

    def test_gate_failure_still_writes_report(self, data_dir, tmp_path, capsys, read_report):
        # one deliberately underfit tree: a single shallow round cannot track
        # the seasonal swing, so the gate must reject it and exit 3
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"))
        doc["models"] = {
            "mlp": {"enabled": False},
            "lstm": {"enabled": False},
            "gbt_hist": {"enabled": False},
            "gbt_exact": {"rounds": 1, "learning_rate": 0.01},
        }
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "no valid baseline" in captured.out
        report = read_report((tmp_path / "out" / "report.json").read_text())
        assert report["flags"]["no_valid_baseline"] is True
        assert report["models_used"] == []
        assert report["totals"]["reduction_kwh"] is None
        assert report["ensemble_test_kpis"] is None

    def test_out_flag_overrides_config(self, data_dir, tmp_path, monkeypatch):
        doc = run_config(data_dir, output_dir="ignored_dir")
        cfg = write_config(tmp_path / "c.json", doc)
        rc = cli.main(["normalize", "--config", cfg, "--out", str(tmp_path / "flagged")])
        assert rc == 0
        assert (tmp_path / "flagged" / "report.json").is_file()
        assert not (tmp_path / "ignored_dir").exists()
        # a relative --out resolves against the working directory, not the config's
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert cli.main(["normalize", "--config", cfg, "--out", "relative"]) == 0
        assert (tmp_path / "cwd" / "relative" / "report.json").is_file()
        assert not (tmp_path / "relative").exists()

    def test_feature_channel_without_input(self, data_dir, tmp_path, capsys):
        doc = run_config(data_dir)
        doc["features"] = {"weather_channels": ["drybulb_c", "winddir_deg"]}
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        assert "winddir_deg" in capsys.readouterr().err

    def test_diverging_model_exits_4_without_traceback(self, data_dir, tmp_path, capsys):
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"))
        doc["models"]["gbt_hist"]["learning_rate"] = 1e308
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error: non-finite predictions" in err
        assert "Traceback" not in err

    def test_no_study_day_predicted_exits_4_without_artifacts(self, data_dir, tmp_path, capsys):
        # kwh blanked for 2019-12-20..31 leaves no full 7-day window ending
        # in 2020-01-01..03, so the only selected model predicts no study day
        blanked = tmp_path / "kwh.csv"
        lines = (data_dir / "kwh.csv").read_text().splitlines()
        blanked.write_text("\n".join(
            line.split(",")[0] + "," if "2019-12-20" <= line[:10] <= "2019-12-31" else line
            for line in lines
        ) + "\n")
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"),
                         ensemble={"selection": "top_k", "top_k": 1})
        doc["inputs"]["kwh"] = str(blanked)
        doc["periods"] = {
            "train": ["2019-01-01", "2019-09-30"],
            "test": ["2019-10-01", "2019-12-31"],
            "study": ["2020-01-01", "2020-01-03"],
        }
        doc["models"] = {
            "mlp": {"enabled": False},
            "lstm": {"epochs": 3, "early_stop_patience": 3},
            "gbt_exact": {"enabled": False},
            "gbt_hist": {"enabled": False},
        }
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "data error: no selected model predicts a study day" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_artifacts_do_not_depend_on_worker_count(self, data_dir, tmp_path, cpus, pools):
        small = {"epochs": 3, "early_stop_patience": 3}
        models = {**run_config(data_dir)["models"], "mlp": small, "lstm": small}
        trees = []
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"out{n}"
            cfg = write_config(tmp_path / f"c{n}.json", run_config(
                data_dir, save_models=True, output_dir=str(out), models=models,
            ))
            assert cli.main(["normalize", "--config", cfg]) == 0
            assert not multiprocessing.active_children()
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        assert pools == [2, 2]  # channels, then fits
        assert (Path("models") / "lstm.json") in trees[0]
        assert trees[0] == trees[1]

    def test_diverging_later_model_fails_alike_with_any_worker_count(self, data_dir, tmp_path):
        # gbt_hist comes after gbt_exact in MODEL_ORDER
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"))
        doc["models"]["gbt_hist"]["learning_rate"] = 1e308
        cfg = write_config(tmp_path / "c.json", doc)
        runs = [run_with_cpus(n, ["normalize", "--config", cfg]) for n in (1, 2)]
        for run in runs:
            assert run.returncode == 4
            assert "error: non-finite predictions" in run.stderr
            assert "Traceback" not in run.stderr
        assert runs[0].stderr == runs[1].stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, fault, n, want", [
        ("ingest", "kill", 2, "error: a worker process was lost while running "
                              "kwh, drybulb_c, solar_wm2, rh_pct, dewpoint_c, windspeed_ms"),
        ("fit", "kill", 2, "error: a worker process was lost while running gbt_exact, gbt_hist"),
        ("fit", "memory", 1, "error: out of memory"),
        ("fit", "memory", 2, "error: out of memory"),
    ], ids=["ingest-kill-2", "fit-kill-2", "fit-memory-1", "fit-memory-2"])
    def test_lost_worker_or_memory_exits_4(self, data_dir, tmp_path, capsys, cpus, monkeypatch,
                                           stage, fault, n, want):
        """The first task in order fails: kwh's parse, or gbt_exact's fit."""
        test_pid = os.getpid()

        def fail():
            if fault == "memory":
                raise MemoryError
            if os.getpid() != test_pid:  # only ever in a worker
                os.kill(os.getpid(), signal.SIGKILL)

        parse, boost_fit = cli.parse_series_bytes, gbmodels.boost_fit

        def failing_parse(data, schema, *cut):
            if schema.channel == "kwh":
                fail()
            return parse(data, schema, *cut)

        def failing_fit(data, cfg, kind):
            if kind == "exact":
                fail()
            return boost_fit(data, cfg, kind=kind)

        if stage == "ingest":
            monkeypatch.setattr(cli, "parse_series_bytes", failing_parse)
        else:
            monkeypatch.setattr(gbmodels, "boost_fit", failing_fit)
        cpus(n)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", run_config(data_dir, output_dir=str(out)))
        assert cli.main(["normalize", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == want
        assert "Traceback" not in err
        assert not (out / "report.json").exists()
        assert not multiprocessing.active_children()

    def test_interrupt_in_a_fit_leaves_no_report_and_no_worker(self, data_dir, tmp_path, cpus,
                                                                 monkeypatch):
        """Ctrl-C is not an error of the run: KeyboardInterrupt leaves main
        once the workers have stopped, and an earlier run's report, whole or
        cut before its rename, is gone."""
        test_pid = os.getpid()
        boost_fit = gbmodels.boost_fit

        def interrupted_fit(data, cfg, kind):
            if kind == "exact" and os.getpid() != test_pid:
                os.kill(os.getppid(), signal.SIGINT)
            return boost_fit(data, cfg, kind=kind)

        monkeypatch.setattr(gbmodels, "boost_fit", interrupted_fit)
        cpus(2)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("report.json", "report.json.tmp"):
            (out / name).write_text("{}")
        cfg = write_config(tmp_path / "c.json", run_config(data_dir, output_dir=str(out)))
        with pytest.raises(KeyboardInterrupt):
            cli.main(["normalize", "--config", cfg])
        assert not any(out.glob("report.json*"))
        assert not multiprocessing.active_children()

    def test_ingest_log_does_not_depend_on_worker_count(self, damaged_dir, tmp_path):
        cfg = write_config(tmp_path / "c.json", run_config(damaged_dir, output_dir=str(tmp_path / "out")))
        runs = [run_with_cpus(n, ["normalize", "--config", cfg]) for n in (1, 2)]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[0].stderr == runs[1].stderr
        assert [line for line in runs[0].stderr.splitlines() if "aligned table" not in line] == [
            "WARNING normbase.cli: kwh: collapsed 2 duplicate timestamp rows",
            "INFO normbase.cli: drybulb_c: filled 1 gap(s), left 0 unfillable",
            "WARNING normbase.cli: rh_pct: collapsed 2 duplicate timestamp rows",
            "INFO normbase.cli: rh_pct: filled 0 gap(s), left 1 unfillable",
        ]

    @pytest.mark.parametrize("n", [1, 2])
    def test_undecodable_input_exits_4_naming_file_line_and_byte(self, data_dir, tmp_path, capsys,
                                                                   cpus, n):
        raw = (data_dir / "solar_wm2.csv").read_bytes()
        at = raw.index(b"\n", raw.index(b"\n") + 1) + 3  # inside the second data row
        broken = tmp_path / "solar_wm2.csv"
        broken.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        doc = run_config(data_dir)
        doc["inputs"]["solar_wm2"] = str(broken)
        cpus(n)
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"data error: {broken}: line 3: not UTF-8: bad byte at offset 2 of the line")
        assert "Traceback" not in err
        assert not multiprocessing.active_children()

    def test_undecodable_config_exits_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(json.dumps(run_config(data_dir, output_dir="out")).encode().replace(
            b'"out"', b'"\xffout"'))
        rc = cli.main(["normalize", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: cannot read config {cfg}" in err
        assert "Traceback" not in err


class TestReportNullPaths:
    """Runs whose report.json holds nulls the schema allows (for a run with no
    gate passer, see test_gate_failure_still_writes_report). Each report
    validates, and reads back through from_json(Report, ...) to the same bytes."""

    @staticmethod
    def normalize(tmp_path, doc: dict, read_report) -> tuple:
        doc = dict(doc, output_dir=str(tmp_path / "out"))
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        return rc, read_report((tmp_path / "out" / "report.json").read_text())

    def test_test_range_without_a_complete_month(self, data_dir, tmp_path, read_report):
        doc = run_config(data_dir, ensemble={"selection": "top_k", "top_k": 2})
        doc["periods"] = dict(doc["periods"], train=["2019-01-01", "2019-11-04"],
                              test=["2019-11-05", "2019-12-20"])
        rc, report = self.normalize(tmp_path, doc, read_report)
        assert rc == 0
        kpis = [m["kpis"] for m in report["models"].values()] + [report["ensemble_test_kpis"]]
        assert len(kpis) == 3
        for k in kpis:
            assert k["monthly"] is None and k["gate"] is None and k["daily"]["n"] == 46

    def test_uncovered_and_undefined_study_days(self, data_dir, tmp_path, read_report,
                                                monkeypatch):
        # kwh blanked on 2020-01-20 leaves the LSTM, the only model, without
        # a full 7-day window ending on the six days after; 2020-02-10 is
        # predicted <= 0
        blanked = tmp_path / "kwh.csv"
        lines = (data_dir / "kwh.csv").read_text().splitlines()
        blanked.write_text("\n".join(
            line.split(",")[0] + "," if line.startswith("2020-01-20") else line for line in lines
        ) + "\n")
        lstm = MODEL_KINDS["lstm"]

        def predict(params, matrix, lookback):
            pred = lstm.predict(params, matrix, lookback)
            pred[list(matrix.dates).index(date(2020, 2, 10))] = -1.0
            return pred

        monkeypatch.setitem(MODEL_KINDS, "lstm", dataclasses.replace(lstm, predict=predict))
        doc = run_config(data_dir, ensemble={"selection": "top_k", "top_k": 1})
        doc["inputs"]["kwh"] = str(blanked)
        doc["models"] = {
            "mlp": {"enabled": False},
            "lstm": {"epochs": 3, "early_stop_patience": 3},
            "gbt_exact": {"enabled": False},
            "gbt_hist": {"enabled": False},
        }
        rc, report = self.normalize(tmp_path, doc, read_report)
        assert rc == 0
        study = report["study"]
        uncovered = [f"2020-01-{d}" for d in range(21, 27)]
        assert "2020-01-20" not in study["dates"]
        assert [d for d, p in zip(study["dates"], study["ensemble_predicted_kwh"]) if p is None] \
            == uncovered
        assert [d for d, r in zip(study["dates"], study["dlr"]["ensemble"]) if r is None] \
            == sorted(uncovered + ["2020-02-10"])
        assert study["dlr"]["lstm"] == study["dlr"]["ensemble"]
        assert report["flags"]["dlr_undefined_dates"] == ["2020-02-10"]
        assert len(report["models"]["lstm"]["study_predicted"]) == len(study["dates"]) - 6
        assert -1.0 in report["models"]["lstm"]["study_predicted"]


class TestOutputDirReuse:
    """A run into a directory an earlier run wrote leaves only its own charts
    and, with save_models, only its own model files. A run that fails leaves
    no report.json, neither its own nor an earlier run's."""

    @staticmethod
    def normalize(out: Path, tmp_path, doc: dict) -> tuple:
        doc = dict(doc, save_models=True, output_dir=str(out))
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        report = json.loads((out / "report.json").read_text())
        assert sorted(p.name for p in (out / "models").iterdir()) == sorted(f"{n}.json" for n in report["models"])
        return rc, report

    def test_fewer_models_leave_no_earlier_model_file(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        small = {"epochs": 3, "early_stop_patience": 3}
        doc = run_config(data_dir)
        rc, report = self.normalize(out, tmp_path, dict(doc, models={**doc["models"], "mlp": small, "lstm": small}))
        assert rc == 0 and sorted(report["models"]) == ["gbt_exact", "gbt_hist", "lstm", "mlp"]
        rc, report = self.normalize(out, tmp_path, doc)
        assert rc == 0 and report["models_used"] == ["gbt_exact", "gbt_hist"]
        capsys.readouterr()  # drop normalize output

        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["evaluate", "--config", cfg, "--models", str(out / "models")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in lines[2:lines.index("")]] == ["gbt_exact", "gbt_hist"]

    def test_run_without_a_baseline_leaves_no_earlier_chart(self, data_dir, tmp_path):
        out = tmp_path / "out"
        rc, _ = self.normalize(out, tmp_path, run_config(data_dir))
        assert rc == 0
        assert sorted(p.name for p in (out / "plots").iterdir()) == [
            "cumulative.svg", "dlr.svg", "test_overlay.svg"]
        # the underfit single tree of test_gate_failure_still_writes_report
        doc = run_config(data_dir)
        doc["models"] = {
            "mlp": {"enabled": False},
            "lstm": {"enabled": False},
            "gbt_hist": {"enabled": False},
            "gbt_exact": {"rounds": 1, "learning_rate": 0.01},
        }
        rc, report = self.normalize(out, tmp_path, doc)
        assert rc == 3 and report["flags"]["no_valid_baseline"] is True
        assert sorted(p.name for p in (out / "plots").iterdir()) == ["dlr.svg", "test_overlay.svg"]

    @pytest.mark.parametrize("save_models", [True, False])
    def test_failed_run_leaves_no_earlier_artifact(self, data_dir, tmp_path, save_models):
        out = tmp_path / "out"
        doc = run_config(data_dir, output_dir=str(out), save_models=True)
        assert cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)]) == 0
        assert (out / "report.json").exists() and len(list((out / "plots").iterdir())) == 3
        models = {f"models/{p.name}": p.read_bytes() for p in (out / "models").iterdir()}
        assert sorted(models) == ["models/gbt_exact.json", "models/gbt_hist.json"]
        doc.update(save_models=save_models)
        doc["models"]["gbt_hist"]["learning_rate"] = 1e308
        assert cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)]) == 4
        left = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        # a run without save_models neither writes nor unlinks the model files
        assert left == ({} if save_models else models)

    def test_failing_chart_writer_leaves_no_report(self, data_dir, tmp_path, monkeypatch,
                                                   capsys):
        out = tmp_path / "out"

        def broken(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "cumulative_chart", broken)
        cfg = write_config(tmp_path / "c.json", run_config(data_dir, output_dir=str(out)))
        assert cli.main(["normalize", "--config", cfg]) == 4
        assert capsys.readouterr().err == f"error: cannot write {out}: no space left on device\n"
        assert (out / "daily.csv").exists() and not (out / "report.json").exists()

    def test_plots_path_that_is_a_file_exits_4_before_any_input_is_read(
            self, data_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "plots").write_text("not a directory\n")
        monkeypatch.setattr(cli, "_ingest", lambda *args: pytest.fail("input was read"))
        cfg = write_config(tmp_path / "c.json", run_config(data_dir, output_dir=str(out)))
        assert cli.main(["normalize", "--config", cfg]) == 4
        chart = out / "plots" / "test_overlay.svg"
        assert capsys.readouterr().err == f"error: cannot write {chart}: Not a directory\n"


class TestRunSetup:
    """A config file is a cli.RunSettings, which is a normalize.RunSetup: the
    library runs a hand-built RunSetup as the CLI runs the config."""

    def test_hand_built_setup_gives_the_cli_report(self, data_dir, tmp_path):
        out = tmp_path / "out"
        doc = run_config(
            data_dir, output_dir=str(out), features={"calendar": ["dow_onehot"]}, kpi={"p": 2},
            ensemble={"selection": "top_k", "top_k": 1}, reference_range=["2019-06-01", "2019-12-31"],
        )
        cfg = Path(write_config(tmp_path / "c.json", doc))
        assert cli.main(["normalize", "--config", str(cfg)]) == 0
        setup = RunSetup(
            periods=PeriodSpec(
                train=(date(2019, 1, 1), date(2019, 10, 31)),
                test=(date(2019, 11, 1), date(2019, 12, 31)),
                study=(date(2020, 1, 1), date(2020, 2, 15)),
            ),
            features=FeatureSpec(calendar=("dow_onehot",)),
            models={
                "gbt_exact": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=5 + 33),
                "gbt_hist": gbmodels.BoostConfig(rounds=60, learning_rate=0.2, seed=5 + 44),
            },
            kpi=KpiSetup(p=2),
            ensemble=EnsembleSetup(selection="top_k", top_k=1),
            seed=5,
            reference_range=(date(2019, 6, 1), date(2019, 12, 31)),
        )
        settings = cli.load_run_settings(cfg)
        table = cli._ingest(settings)
        texts = [encode_report(run_pipeline(table, s).report) for s in (settings, setup)]
        assert texts[0] == texts[1] == (out / "report.json").read_text()

    def test_reference_range_without_a_usable_day_exits_4_before_any_fit(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model trained before the reference range was checked")

        monkeypatch.setattr(gbmodels, "boost_fit", no_fit)
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"),
                         reference_range=["2015-01-01", "2015-12-31"])
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 4
        assert capsys.readouterr().err == "data error: reference_range has no usable rows\n"
        assert not (tmp_path / "out").exists()


def table_bits(table) -> dict:
    """Every field of a DailyTable, each array as its dtype, shape and bytes."""
    def bits(v):
        if isinstance(v, dict):
            return {k: bits(a) for k, a in v.items()}
        return (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v

    return {f.name: bits(getattr(table, f.name)) for f in dataclasses.fields(table)}


class TestIngestPool:
    """The channels are read in the worker pool, one per channel up to the
    usable CPUs; one worker means the serial loop in this process."""

    def test_table_does_not_depend_on_worker_count(self, damaged_dir, tmp_path, cpus, pools):
        settings = cli.load_run_settings(write_config(tmp_path / "c.json", run_config(damaged_dir)))
        bits = []
        for n in (1, 2, 8):
            cpus(n)
            table = cli._ingest(settings)
            assert not multiprocessing.active_children()
            bits.append(table_bits(table))
        assert pools == [2, 6]
        assert table.n_excluded > 0  # the long blank run in rh_pct
        assert bits[0] == bits[1] == bits[2]

    def test_byte_order_marks_and_crlf_give_the_same_table(self, data_dir, tmp_path, cpus):
        doc = run_config(data_dir)
        for ch in ("kwh", "rh_pct", "solar_wm2"):
            raw = (data_dir / f"{ch}.csv").read_bytes()
            if ch != "solar_wm2":
                raw = b"\xef\xbb\xbf" + raw  # as spreadsheet "CSV UTF-8" exports start
            if ch != "rh_pct":
                raw = raw.replace(b"\n", b"\r\n")
            (tmp_path / f"{ch}.csv").write_bytes(raw)
            doc["inputs"][ch] = str(tmp_path / f"{ch}.csv")
        cpus(1)
        plain = cli.load_run_settings(write_config(tmp_path / "plain.json", run_config(data_dir)))
        marked = cli.load_run_settings(write_config(tmp_path / "marked.json", doc))
        assert table_bits(cli._ingest(marked)) == table_bits(cli._ingest(plain))

    @pytest.mark.parametrize("damage", ["in_header", "truncated", "after_bom",
                                        "after_a_two_byte_character"])
    def test_first_bad_utf8_byte_is_reported(self, data_dir, tmp_path, damage):
        raw = (data_dir / "kwh.csv").read_bytes()
        at = raw.index(b"\n") + 5
        if damage == "in_header":
            raw, line, offset = raw[:4] + b"\xff" + raw[4:], 1, 4
        elif damage == "truncated":  # a three-byte sequence cut off at the end
            raw, line, offset = raw + b"\xe2\x82", raw.count(b"\n") + 1, 0
        elif damage == "after_bom":
            raw, line, offset = b"\xef\xbb\xbf" + raw[:at] + b"\xff" + raw[at:], 2, 4
        else:  # a two-byte character first, then a lone continuation byte
            at = raw.index(b"\n", 1000) + 5
            line = raw[:at].count(b"\n") + 1
            raw, offset = raw[:at] + b"\xc3\xa9\x80" + raw[at:], 4 + 2
        (tmp_path / "kwh.csv").write_bytes(raw)
        doc = run_config(data_dir)
        doc["inputs"]["kwh"] = str(tmp_path / "kwh.csv")
        settings = cli.load_run_settings(write_config(tmp_path / "c.json", doc))
        want = (f"^{re.escape(str(tmp_path / 'kwh.csv'))}: line {line}: "
                f"not UTF-8: bad byte at offset {offset} of the line$")
        with pytest.raises(ParseError, match=want):
            cli._ingest_channel("kwh", settings)

    @pytest.mark.parametrize("where, want", [
        ("row", "line 3: unparseable value '1\\ud800.5'"),
        ("header", "line 1: expected header 'timestamp,<channel>', got 'time\\ud800stamp,kwh'"),
    ], ids=["row", "header"])
    def test_encoded_surrogate_is_its_lines_parse_error(self, data_dir, tmp_path, where, want):
        """U+D800 encoded as UTF-8 bytes is never a value or a header cell."""
        lines = (data_dir / "kwh.csv").read_bytes().split(b"\n")
        if where == "row":
            lines[2] = lines[2].split(b",")[0] + b",1\xed\xa0\x80.5"
        else:
            lines[0] = b"time\xed\xa0\x80stamp,kwh"
        (tmp_path / "kwh.csv").write_bytes(b"\n".join(lines))
        doc = run_config(data_dir)
        doc["inputs"]["kwh"] = str(tmp_path / "kwh.csv")
        settings = cli.load_run_settings(write_config(tmp_path / "c.json", doc))
        with pytest.raises(DataError) as e:
            cli._ingest_channel("kwh", settings)
        assert str(e.value) == f"{tmp_path / 'kwh.csv'}: {want}"

    def test_first_failing_channel_in_order_raises(self, data_dir, tmp_path, cpus, pools,
                                                   monkeypatch):
        lines = (data_dir / "kwh.csv").read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",not-a-number"
        (tmp_path / "kwh.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "drybulb_c.csv").write_text("")
        doc = run_config(data_dir)
        doc["inputs"].update(kwh=str(tmp_path / "kwh.csv"), drybulb_c=str(tmp_path / "drybulb_c.csv"))
        settings = cli.load_run_settings(write_config(tmp_path / "c.json", doc))
        parse = cli.parse_series_bytes

        def slow_energy(data, schema):
            if schema.channel == "kwh":
                time.sleep(0.5)  # so the later channel fails first
            return parse(data, schema)

        monkeypatch.setattr(cli, "parse_series_bytes", slow_energy)
        for n in (1, 2):
            cpus(n)
            want = f"^{re.escape(str(tmp_path / 'kwh.csv'))}: line 3: unparseable value 'not-a-number'$"
            with pytest.raises(ParseError, match=want):
                cli._ingest(settings)
            assert not multiprocessing.active_children()
        assert pools == [2]


DELETE = object()  # test_run_config: remove the key instead of setting it


class TestConfigValidation:
    """One wrongly typed, missing or unknown key per section, each named by
    its dotted path; section "" is the top level."""

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("models.mlp", "hidden_sizes", [16, "a"],
             "config key 'models.mlp.hidden_sizes' must be an integer"),
            ("models.lstm", "hidden_size", True,
             "config key 'models.lstm.hidden_size' must be an integer"),
            ("models.gbt_exact", "rounds", "thirty",
             "config key 'models.gbt_exact.rounds' must be an integer"),
            ("features", "lookback_days", "7",
             "config key 'features.lookback_days' must be an integer"),
            ("gap_fill", "max_edge", 1.5,
             "config key 'gap_fill.max_edge' must be an integer"),
            ("models.gbt_hist", "max_bins", 64,
             "unknown config key 'models.gbt_hist.max_bins'"),
            ("periods", "test", DELETE,
             "missing required config key 'periods.test'"),
            ("periods", "train", ["2019-01-01", "2019-10-3l"],
             "config key 'periods.train[1]' is not an ISO date: '2019-10-3l'"),
            ("kpi", "p", -1,
             "config key 'kpi.p' must be >= 0, not -1"),
            ("", "seed", "1",
             "config key 'seed' must be an integer"),
            ("", "output", "out",
             "unknown config key 'output'"),
            ("ensemble", "top_k", 0,
             "config key 'ensemble.top_k' must be >= 1, not 0"),
            ("", "timezone", "Mars/Olympus",
             "unrecognized timezone 'Mars/Olympus'"),
            ("", "interval_seconds", 0,
             "config key 'interval_seconds' must be >= 1, not 0"),
        ],
    )
    def test_run_config(self, data_dir, tmp_path, section, key, value, message):
        doc = run_config(data_dir)
        sub = doc
        for part in section.split(".") if section else ():
            sub = sub.setdefault(part, {})
        sub.pop("enabled", None)  # disabled models go unchecked
        if value is DELETE:
            del sub[key]
        else:
            sub[key] = value
        with pytest.raises(ConfigError) as exc:
            cli.load_run_settings(Path(write_config(tmp_path / "c.json", doc)))
        assert str(exc.value) == message

    def test_reversed_reference_range(self, data_dir, tmp_path):
        doc = run_config(data_dir, reference_range=["2019-12-31", "2019-01-01"])
        with pytest.raises(ConfigError) as exc:
            cli.load_run_settings(Path(write_config(tmp_path / "c.json", doc)))
        assert str(exc.value) == "config key 'reference_range' ends before it starts"

    @pytest.mark.parametrize("command", ["normalize", "synth"])
    def test_negative_seed_exits_2_without_traceback(self, data_dir, tmp_path, capsys, command):
        if command == "normalize":
            doc = run_config(data_dir, output_dir=str(tmp_path / "out"))
            doc["models"]["gbt_hist"]["seed"] = -5
            key, value = "models.gbt_hist.seed", -5
        else:
            doc = {"seed": -1, "output_dir": str(tmp_path / "out")}
            key, value = "seed", -1
        rc = cli.main([command, "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: config key '{key}' must be >= 0, not {value}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # json reads these literals as NaN, -inf and inf, and the last as an int
    # no float holds
    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999", "1" + "0" * 400])
    @pytest.mark.parametrize("command, key", [
        ("normalize", "models.gbt_exact.gamma"),
        ("normalize", "models.mlp.gradient_clip_norm"),
        ("synth", "noise_sigma_kwh"),
        ("synth", "target_reduction_fraction"),
    ])
    def test_non_finite_number_exits_2_and_writes_nothing(self, data_dir, tmp_path, capsys,
                                                         monkeypatch, command, key, literal):
        def no_input(*args, **kwargs):
            raise AssertionError("input was read before the config was checked")

        monkeypatch.setattr(cli, "_ingest", no_input)
        monkeypatch.setattr(cli, "generate", no_input)
        out = str(tmp_path / "out")
        if command == "normalize":
            doc = run_config(data_dir, output_dir=out)
        else:
            doc = {"seed": 5, "interval_seconds": 3600, "target_reduction_fraction": 0.3,
                   "output_dir": out}
        *section, leaf = key.split(".")
        sub = doc
        for part in section:
            sub = sub[part]
        sub.pop("enabled", None)  # disabled models go unchecked
        sub[leaf] = "<number>"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc).replace('"<number>"', literal))
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: config key '{key}' must be a finite number\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize(
        "model, key, value, message",
        [
            ("lstm", "hidden_size", 0, "config key 'models.lstm.hidden_size' must be >= 1, not 0"),
            ("mlp", "hidden_sizes", [0],
             "config key 'models.mlp': hidden_sizes must be a non-empty list of positive sizes"),
            ("mlp", "activation", "sigmoid",
             "config key 'models.mlp.activation' must be 'relu' or 'tanh', not 'sigmoid'"),
        ],
    )
    def test_bad_network_size_exits_2_at_load(self, data_dir, tmp_path, capsys, monkeypatch,
                                              model, key, value, message):
        def no_ingest(*args, **kwargs):
            raise AssertionError("input was read before the config was checked")

        monkeypatch.setattr(cli, "_ingest", no_ingest)
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"))
        doc["models"][model] = {key: value}
        rc = cli.main(["normalize", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {message}\n" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", ["normalize", "evaluate"])
    def test_energy_channel_as_feature_exits_2_at_load(self, data_dir, tmp_path, capsys, monkeypatch,
                                                       command):
        def no_ingest(*args, **kwargs):
            raise AssertionError("input was read before the config was checked")

        monkeypatch.setattr(cli, "_ingest", no_ingest)
        doc = run_config(data_dir, output_dir=str(tmp_path / "out"),
                         features={"weather_channels": ["drybulb_c", "kwh"]})
        rc = cli.main([command, "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        channels = " or ".join(map(repr, tsdata.WEATHER_CHANNELS))
        assert capsys.readouterr().err == (
            f"config error: config key 'features.weather_channels' must be {channels}, not 'kwh'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["normalize", "synth"])
    @pytest.mark.parametrize("via", ["output_dir", "--out", "--out below"])
    def test_output_path_that_is_a_file_exits_2(self, data_dir, tmp_path, capsys, monkeypatch,
                                                command, via):
        def no_input(*args, **kwargs):
            raise AssertionError("input was read before the output path was checked")

        monkeypatch.setattr(cli, "_ingest", no_input)
        monkeypatch.setattr(cli, "generate", no_input)
        (tmp_path / "taken").write_text("a file\n")
        out = str(tmp_path / "taken" / "sub" if via == "--out below" else tmp_path / "taken")
        doc = run_config(data_dir) if command == "normalize" else {"seed": 1}
        flag = []
        if via == "output_dir":
            doc["output_dir"] = out
        else:
            flag = ["--out", out]
        assert cli.main([command, "--config", write_config(tmp_path / "c.json", doc), *flag]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cannot write to {out}: {tmp_path / 'taken'} is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "taken"]
        assert (tmp_path / "taken").read_text() == "a file\n"

    def test_synth_config(self, tmp_path):
        cfg = write_config(tmp_path / "s.json", {"weekly_pattern": ["a"]})
        with pytest.raises(ConfigError) as exc:
            cli.cmd_synth(argparse.Namespace(config=Path(cfg), out=str(tmp_path / "data")))
        assert str(exc.value) == "config key 'weekly_pattern' must be a number"
        assert not (tmp_path / "data").exists()


class TestSynth:
    def test_generates_with_target(self, tmp_path, capsys):
        doc = {
            "seed": 9,
            "start": "2019-01-01",
            "study_start": "2019-10-01",
            "study_end": "2019-11-15",
            "interval_seconds": 3600,
            "target_reduction_fraction": 0.2,
            "output_dir": "data",
        }
        cfg = write_config(tmp_path / "synth.json", doc)
        rc = cli.main(["synth", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planted reduction_fraction: 0.2000" in out
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        assert truth["reduction_fraction"] == pytest.approx(0.2, rel=1e-12)
        assert (tmp_path / "data" / "kwh.csv").is_file()
        assert (tmp_path / "data" / "drybulb_c.csv").is_file()

    def test_relative_out_flag_resolves_against_the_working_directory(self, tmp_path, capsys,
                                                                      monkeypatch):
        doc = {"seed": 9, "start": "2019-01-01", "study_start": "2019-03-01",
               "study_end": "2019-03-10", "interval_seconds": 3600, "output_dir": "ignored"}
        (tmp_path / "cfg").mkdir()
        write_config(tmp_path / "cfg" / "s.json", doc)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--config", "cfg/s.json", "--out", "data"]) == 0
        assert (tmp_path / "data" / "kwh.csv").is_file()
        assert sorted(p.name for p in (tmp_path / "cfg").iterdir()) == ["s.json"]
        assert "to data\n" in capsys.readouterr().out

    def test_drop_and_target_are_mutually_exclusive(self, tmp_path, capsys):
        doc = {
            "start": "2019-01-01",
            "study_start": "2019-10-01",
            "study_end": "2019-10-15",
            "occupancy_drop": 0.3,
            "target_reduction_fraction": 0.2,
        }
        rc = cli.main(["synth", "--config", write_config(tmp_path / "s.json", doc)])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_failing_writer_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(synthgen, "render_csv", broken)
        doc = {"seed": 9, "start": "2019-01-01", "study_start": "2019-03-01",
               "study_end": "2019-03-10", "interval_seconds": 3600}
        cfg = write_config(tmp_path / "s.json", doc)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {tmp_path / 'data'}: No space left on device\n"
        assert "wrote" not in captured.out

    def test_unknown_key(self, tmp_path, capsys):
        doc = {"start": "2019-01-01", "tempcoeff": 12.0}
        rc = cli.main(["synth", "--config", write_config(tmp_path / "s.json", doc)])
        assert rc == 2
        assert "unknown config key 'tempcoeff'" in capsys.readouterr().err


class TestCalendarEnds:
    """Every local day must lie on 0001-01-01..9999-12-30, so that the
    midnight closing it is a date too."""

    @pytest.mark.parametrize("first, timezone", [
        ("9999-12-31T00:00:00+00:00", "UTC"),
        ("9999-12-30T00:00:00+00:00", "Asia/Tokyo"),
        ("0001-01-01T00:00:00+00:00", "America/New_York"),
    ])
    def test_data_outside_exits_4(self, first, timezone, tmp_path, capsys):
        t0 = datetime.fromisoformat(first)
        for ch in CHANNELS:
            rows = "".join(f"{(t0 + timedelta(hours=h)).isoformat()},1.0\n" for h in range(24))
            (tmp_path / f"{ch}.csv").write_text(f"timestamp,{ch}\n{rows}")
        doc = run_config(tmp_path, interval_seconds=3600, timezone=timezone)
        cfg = write_config(tmp_path / "run.json", doc)
        assert cli.main(["normalize", "--config", cfg]) == 4
        assert capsys.readouterr().err == (
            "data error: kwh: samples fall on local days outside 0001-01-01..9999-12-30\n"
        )

    def test_synth_past_9999_12_30_exits_2(self, tmp_path, capsys):
        doc = {"start": "9999-12-01", "study_start": "9999-12-20", "study_end": "9999-12-31",
               "interval_seconds": 3600}
        cfg = write_config(tmp_path / "s.json", doc)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err == "config error: study_end must be on or before 9999-12-30\n"
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("timezone, offset", [("Asia/Tokyo", "+09:18:59"), ("+09:00", "+09:00")])
    def test_synth_from_0001_01_01_east_of_utc(self, timezone, offset, tmp_path):
        # the first day's morning is 0000-12-31 in UTC
        doc = {"start": "0001-01-01", "study_start": "0001-01-20", "study_end": "0001-01-30",
               "interval_seconds": 3600, "timezone": timezone}
        cfg = write_config(tmp_path / "s.json", doc)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 0
        for ch, unit in tsdata.CHANNEL_UNITS.items():
            data = (tmp_path / "data" / f"{ch}.csv").read_bytes()
            assert data.startswith(f"timestamp,{ch}\n0001-01-01T00:00:00{offset},".encode())
            schema = tsdata.SeriesSchema(ch, unit, timezone, 3600)
            series, _ = tsdata.fill_gaps(tsdata.parse_series_bytes(data, schema))
            daily = tsdata.resample_daily(series, "sum")
            assert len(series) == 720
            assert daily.dates == [date(1, 1, 1) + timedelta(days=i) for i in range(30)]
            assert daily.values[0] == np.sum(series.values[:24])


class TestEvaluate:
    def test_training_mode_prints_table(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", run_config(data_dir))
        rc = cli.main(["evaluate", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d.CV(RMSE)" in out
        assert "gate passed by:" in out

    @pytest.mark.parametrize("case", ["data_ends_with_the_test_range", "empty_reference_range"])
    def test_training_mode_needs_no_study_or_reference_rows(self, data_dir, tmp_path, capsys, case):
        doc = run_config(data_dir)
        assert cli.main(["evaluate", "--config", write_config(tmp_path / "full.json", doc)]) == 0
        full = capsys.readouterr().out
        if case == "empty_reference_range":
            doc["reference_range"] = ["2015-01-01", "2015-12-31"]
        else:
            for ch in CHANNELS:
                lines = (data_dir / f"{ch}.csv").read_text().splitlines(keepends=True)
                cut = tmp_path / f"{ch}.csv"
                cut.write_text("".join(lines[:1] + [x for x in lines[1:] if x < "2020"]))
                doc["inputs"][ch] = str(cut)
        rc = cli.main(["evaluate", "--config", write_config(tmp_path / "c.json", doc)])
        assert (rc, capsys.readouterr().out) == (0, full)

    @pytest.mark.parametrize("from_files", [False, True])
    def test_no_gate_passer_exits_3(self, data_dir, tmp_path, capsys, from_files):
        # the underfit single tree of test_gate_failure_still_writes_report,
        # trained in place or reloaded from the files normalize saved
        out_dir = tmp_path / "out"
        doc = run_config(data_dir, save_models=True, output_dir=str(out_dir))
        doc["models"] = {
            "mlp": {"enabled": False},
            "lstm": {"enabled": False},
            "gbt_hist": {"enabled": False},
            "gbt_exact": {"rounds": 1, "learning_rate": 0.01},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        argv = ["evaluate", "--config", cfg]
        if from_files:
            assert cli.main(["normalize", "--config", cfg]) == 3
            capsys.readouterr()  # drop normalize output
            argv += ["--models", str(out_dir / "models")]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out.startswith("model")
        assert captured.out.endswith("\nno model passed the acceptance gate\n")
        assert "\ngbt_exact " in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("p, cell", [
        (1, "PASS"), (2, "n/a (monthly KPIs need at least 3 complete test months)")])
    def test_gate_cell_states_the_months_p_needs(self, data_dir, tmp_path, capsys, p, cell):
        # the test range holds two complete months, and NMBE needs more than p
        doc = run_config(data_dir, kpi={"p": p})
        doc["models"].update(gbt_hist={"enabled": False})
        rc = cli.main(["evaluate", "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == (0 if cell == "PASS" else 3)
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("gbt_exact "))
        assert row.endswith(f"  {cell}")

    def test_saved_models_reproduce_training_kpis(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            run_config(data_dir, save_models=True, output_dir=str(out_dir)),
        )
        assert cli.main(["normalize", "--config", cfg]) == 0
        capsys.readouterr()  # drop normalize output

        rc = cli.main(["evaluate", "--config", cfg, "--models", str(out_dir / "models")])
        assert rc == 0
        table = capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        # the reloaded models' table rows carry the exact same KPI numbers
        for name in ("gbt_exact", "gbt_hist"):
            cv = report["models"][name]["kpis"]["daily"]["cv_rmse"]
            row = next(line for line in table.splitlines() if line.startswith(name))
            assert f"{cv:9.4f}" in row

    def test_saved_model_files_reload_bit_identically(self, data_dir, tmp_path, monkeypatch):
        kept = {}
        render = cli._model_json

        def keep(name, report, settings):
            kept.update(report=report, settings=settings)
            return render(name, report, settings)

        monkeypatch.setattr(cli, "_model_json", keep)
        out_dir = tmp_path / "out"
        small = {"epochs": 3, "early_stop_patience": 3}
        models = {**run_config(data_dir)["models"], "mlp": small, "lstm": small}
        cfg = write_config(tmp_path / "c.json", run_config(
            data_dir, save_models=True, output_dir=str(out_dir), models=models,
        ))
        assert cli.main(["normalize", "--config", cfg]) == 0

        report, settings = kept["report"], kept["settings"]
        matrix = build_features(cli._ingest(settings), settings.features)
        assert set(report.preds) == set(MODEL_KINDS)
        for name, outcome in report.preds.items():
            text = (out_dir / "models" / f"{name}.json").read_text()
            assert text.count("\n") == 1  # no indentation, one closing newline
            doc = json.loads(text)
            assert list(doc) == sorted(doc)
            kind = MODEL_KINDS[name]
            scaled = apply_scaler(matrix, from_json(Scaler, doc["feature_scaler"]))
            pred = kind.predict(kind.from_dict(doc["payload"]), scaled, doc["lookback_days"])
            assert pred.tobytes() == outcome.tobytes()

    def test_saved_model_files_are_the_to_json_of_their_envelope(self, data_dir, tmp_path,
                                                                 monkeypatch):
        kept = {}
        monkeypatch.setattr(cli, "_write_artifacts", lambda outdir, run, settings: kept.update(
            run=run, settings=settings))
        small = {"epochs": 3, "early_stop_patience": 3}
        models = {**run_config(data_dir)["models"], "mlp": small, "lstm": small}
        cfg = write_config(tmp_path / "c.json", run_config(data_dir, models=models))
        cli.main(["normalize", "--config", cfg])
        run, settings = kept["run"], kept["settings"]
        assert set(run.fitted) == set(MODEL_KINDS)
        for name, fitted in run.fitted.items():
            envelope = cli.SavedModel(
                kind=name,
                feature_names=list(run.report.feature_names),
                feature_scaler=run.feature_scaler,
                lookback_days=settings.features.lookback_days,
                payload=MODEL_KINDS[name].to_dict(fitted),
            )
            want = json.dumps(to_json(envelope), sort_keys=True) + "\n"
            assert cli._model_json(name, run, settings) == want

    def test_saved_models_feature_mismatch(self, data_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            run_config(data_dir, save_models=True, output_dir=str(out_dir)),
        )
        assert cli.main(["normalize", "--config", cfg]) == 0
        capsys.readouterr()

        narrowed = run_config(data_dir, save_models=True, output_dir=str(out_dir))
        narrowed["features"] = {"weather_channels": ["drybulb_c", "solar_wm2"]}
        cfg2 = write_config(tmp_path / "c2.json", narrowed)
        rc = cli.main(["evaluate", "--config", cfg2, "--models", str(out_dir / "models")])
        assert rc == 2
        assert "different feature columns" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption", [
        "no_payload", "text_threshold", "json_list", "previous_format", "truncated_weights",
        "tree_feature_out_of_range", "scaler_too_short", "lstm_three_gates",
        "lstm_ragged_gate", "lookback_text", "lookback_fraction", "lookback_bool",
        "lookback_zero", "lookback_negative", "kind_of_other_model", "mlp_no_target_scaler",
        "hist_no_bundles", "nested_trees",
    ])
    def test_malformed_model_file_exits_2_without_traceback(
        self, data_dir, happy_run, tmp_path, capsys, corruption
    ):
        _, out, _ = happy_run
        doc = json.loads((out / "models" / "gbt_exact.json").read_text())
        name = "gbt_exact"
        if corruption == "no_payload":
            del doc["payload"]
        elif corruption.startswith("lookback"):
            doc["lookback_days"] = {"text": "7", "fraction": 7.5, "bool": True, "zero": 0,
                                   "negative": -3}[corruption[9:]]
        elif corruption == "kind_of_other_model":
            doc["kind"] = "gbt_hist"
        elif corruption == "hist_no_bundles":
            name = "gbt_hist"
            doc = json.loads((out / "models" / "gbt_hist.json").read_text())
            del doc["payload"]["bundles"]
        elif corruption == "mlp_no_target_scaler":
            # a well-formed mlp file but for its missing target scaler
            n = len(doc["feature_names"])
            name = "mlp"
            payload = nnmodels.mlp_to_dict(nnmodels.mlp_init([n, 1]))
            del payload["target_scaler"]
            doc = {**doc, "kind": "mlp", "lookback_days": 7, "payload": payload}
        elif corruption == "nested_trees":
            # one object per node, children inside: the layout before the flat node arrays
            doc["payload"]["trees"] = [nested_tree(t) for t in doc["payload"]["trees"]]
        elif corruption == "text_threshold":
            doc["payload"]["trees"][0]["threshold"][0] = "abc"
        elif corruption == "json_list":
            doc = [doc]
        elif corruption == "tree_feature_out_of_range":
            doc["payload"]["trees"][0]["feature"][0] = len(doc["feature_names"])
        elif corruption == "scaler_too_short":
            doc["feature_scaler"]["std"].pop()
        elif corruption.startswith("lstm"):
            # an lstm file whose W has three gates, or a gate with a short row
            name = "lstm"
            payload = nnmodels.lstm_to_dict(nnmodels.lstm_init(len(doc["feature_names"]), 2))
            if corruption == "lstm_three_gates":
                payload["W"].pop()
            else:
                payload["W"][2][0].pop()
            doc = {**doc, "kind": "lstm", "lookback_days": 7, "payload": payload}
        elif corruption == "truncated_weights":
            # an mlp file with one input row of its weight matrix removed
            n = len(doc["feature_names"])
            name = "mlp"
            doc = {
                "kind": "mlp",
                "feature_names": doc["feature_names"],
                "feature_scaler": {"mean": [0.0] * n, "std": [1.0] * n, "exempt": [False] * n},
                "lookback_days": 7,
                "payload": {
                    "layer_sizes": [n, 1], "activation": "relu",
                    "weights": [[[0.5]] * (n - 1)], "biases": [[0.0]],
                    "target_scaler": {"mean": 0.0, "std": 1.0},
                },
            }
        else:
            # an mlp file as written before the codec: floats as repr strings
            n = len(doc["feature_names"])
            name = "mlp"
            doc = {
                "kind": "mlp",
                "feature_names": doc["feature_names"],
                "feature_scaler": {"mean": ["0.0"] * n, "std": ["1.0"] * n, "exempt": [False] * n},
                "lookback_days": 7,
                "payload": {
                    "model": "mlp", "layer_sizes": [n, 1], "activation": "relu",
                    "weights": [["0.5"] * n], "biases": [["0.0"]],
                    "target_scaler": {"mean": "0.0", "std": "1.0"},
                },
            }
        models = tmp_path / "models"
        models.mkdir()
        (models / f"{name}.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", run_config(data_dir))
        rc = cli.main(["evaluate", "--config", cfg, "--models", str(models)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot load model file {models / name}.json: ")
        assert "Traceback" not in err

    def test_empty_models_dir(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", run_config(data_dir))
        empty = tmp_path / "nomodels"
        empty.mkdir()
        rc = cli.main(["evaluate", "--config", cfg, "--models", str(empty)])
        assert rc == 2
        assert "no model files" in capsys.readouterr().err
