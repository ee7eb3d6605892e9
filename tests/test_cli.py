import argparse
import contextlib
import io
import json
from datetime import date
from pathlib import Path

import pytest

from normbase import cli, synthgen
from normbase.errors import ConfigError

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


def run_config(data_dir: Path, **over) -> dict:
    doc = {
        "seed": 5,
        "interval_seconds": 1800,
        # absolute paths so the config file can live in any tmp dir
        "inputs": {
            ch: str(data_dir / f"{ch}.csv")
            for ch in ("kwh", "drybulb_c", "solar_wm2", "rh_pct",
                       "dewpoint_c", "windspeed_ms")
        },
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

    def test_report_validates_against_schema(self, happy_run):
        import importlib.resources as res

        import jsonschema

        _, out, _stdout = happy_run
        doc = json.loads((out / "report.json").read_text())
        schema = json.loads(
            res.files("normbase").joinpath("schemas/report.schema.json").read_text()
        )
        jsonschema.validate(doc, schema)
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
        assert "line 3" in capsys.readouterr().err

    def test_gate_failure_still_writes_report(self, data_dir, tmp_path, capsys):
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
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["flags"]["no_valid_baseline"] is True
        assert report["models_used"] == []
        assert report["totals"]["reduction_kwh"] is None

    def test_out_flag_overrides_config(self, data_dir, tmp_path):
        doc = run_config(data_dir, output_dir="ignored_dir")
        cfg = write_config(tmp_path / "c.json", doc)
        rc = cli.main(["normalize", "--config", cfg, "--out", str(tmp_path / "flagged")])
        assert rc == 0
        assert (tmp_path / "flagged" / "report.json").is_file()
        assert not (tmp_path / "ignored_dir").exists()

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


class TestConfigValidation:
    """One wrongly typed or unknown key per section, each named by its dotted path."""

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
        ],
    )
    def test_run_config(self, data_dir, tmp_path, section, key, value, message):
        doc = run_config(data_dir)
        sub = doc
        for part in section.split("."):
            sub = sub.setdefault(part, {})
        sub.pop("enabled", None)  # disabled models go unchecked
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
        else:
            doc = {"seed": -1, "output_dir": str(tmp_path / "out")}
        rc = cli.main([command, "--config", write_config(tmp_path / "c.json", doc)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: seed must be non-negative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    def test_unknown_key(self, tmp_path, capsys):
        doc = {"start": "2019-01-01", "tempcoeff": 12.0}
        rc = cli.main(["synth", "--config", write_config(tmp_path / "s.json", doc)])
        assert rc == 2
        assert "unknown config key 'tempcoeff'" in capsys.readouterr().err


class TestEvaluate:
    def test_training_mode_prints_table(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", run_config(data_dir))
        rc = cli.main(["evaluate", "--config", cfg])
        assert rc == 0
        out = capsys.readouterr().out
        assert "d.CV(RMSE)" in out
        assert "gate passed by:" in out

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

    @pytest.mark.parametrize("corruption", ["no_payload", "text_threshold", "json_list", "previous_format"])
    def test_malformed_model_file_exits_2_without_traceback(
        self, data_dir, happy_run, tmp_path, capsys, corruption
    ):
        _, out, _ = happy_run
        doc = json.loads((out / "models" / "gbt_exact.json").read_text())
        name = "gbt_exact"
        if corruption == "no_payload":
            del doc["payload"]
        elif corruption == "text_threshold":
            doc["payload"]["trees"][0]["threshold"] = "abc"
        elif corruption == "json_list":
            doc = [doc]
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
        assert "cannot load model file" in err
        assert "Traceback" not in err

    def test_empty_models_dir(self, data_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", run_config(data_dir))
        empty = tmp_path / "nomodels"
        empty.mkdir()
        rc = cli.main(["evaluate", "--config", cfg, "--models", str(empty)])
        assert rc == 2
        assert "no model files" in capsys.readouterr().err
