"""The config examples in README.md stay loadable.

README.md holds two ``json`` blocks: a synth config (section 1) and the run
config that reads its output (section 2). The synth block must generate its
building, and the run block must load and name only files that building has,
so a renamed or retired config key fails here rather than for a reader.
"""

import json
import re
from pathlib import Path

from normbase import cli
from normbase.tsdata import ENERGY_CHANNEL, WEATHER_CHANNELS

README = Path(__file__).resolve().parents[1] / "README.md"


def json_blocks() -> list:
    return [json.loads(b) for b in re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)]


def test_readme_configs_run(tmp_path, capsys):
    synth_doc, run_doc = json_blocks()
    (tmp_path / "synth.json").write_text(json.dumps(synth_doc))
    assert cli.main(["synth", "--config", str(tmp_path / "synth.json")]) == 0
    data = tmp_path / synth_doc["output_dir"]
    channels = (ENERGY_CHANNEL, *WEATHER_CHANNELS)
    assert sorted(p.name for p in data.glob("*.csv")) == sorted(f"{ch}.csv" for ch in channels)

    (tmp_path / "run.json").write_text(json.dumps(run_doc))
    settings = cli.load_run_settings(tmp_path / "run.json")
    assert settings.interval_seconds == synth_doc["interval_seconds"]
    assert all(path.is_file() for path in settings.inputs.values()), settings.inputs
    assert settings.output_dir == tmp_path / run_doc["output_dir"]
