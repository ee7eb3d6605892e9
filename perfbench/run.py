#!/usr/bin/env python3
"""normbase benchmark: user commands on seeded synthetic buildings.

    python3 perfbench/run.py --workload hourly_full --seed 2024 --seconds 20 --trace 0

Run from the repository root. Each timed operation is one fresh
``normbase`` process (``python -m normbase.cli`` on ``src/``), started only
after the previous one exited: a closed loop with one client, so the load is
the program's own. Operations repeat until their wall times add up to
``--seconds``, and at least twice, so that repeats can be compared byte for
byte.

Inputs come from ``normbase.synthgen`` with the building seed ``--seed``; the
program sees only the generated files. Every operation is checked (exit
code, report schema, byte-identical repeats, recovered reduction, KPI table),
and a failed check counts against ``failed`` without stopping the run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics (see
README.md). The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
from derive import layer_metrics, median_metrics, quartiles
from tracing import SETUP_TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 2024
RUN_SEED = 17
PLANTED_FRACTION = 0.40
RECOVERY_TOLERANCE = 0.05  # the acceptance suite's end-to-end tolerance
KPI_TABLE_TOLERANCE = 1e-4  # the KPI table prints four decimals
OP_TIMEOUT_S = 60
SETUP_REPEATS = 3
THREAD_VARS = ("NORMBASE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CHANNELS = ("kwh", "drybulb_c", "solar_wm2", "rh_pct", "dewpoint_c", "windspeed_ms")
PERIODS = {
    "train": ["2017-01-01", "2018-12-31"],
    "test": ["2019-01-01", "2019-12-31"],
    "study": ["2020-03-12", "2020-07-31"],
}


@dataclass(frozen=True)
class Workload:
    interval_seconds: int
    timezone: str
    command: str
    disabled: tuple
    setups_between_ops: int


# Why each workload exists (also in BENCHMARK.json and README.md):
#   hourly_full   the headline flow; the LSTM fit is the critical path.
#   hourly_trees  same flow without the networks, so boosted trees dominate
#                 and an nnmodels change must show no change.
#   fine_evaluate 5-minute data with DST days through saved models: ingest
#                 dominates and no training is timed.
# The fine building's set-up trains its models on the hourly UTC twin of the
# same seed, whose daily table is identical, so set-up stays affordable and
# the evaluate KPIs can be checked against the twin's report.
# Hourly set-up takes about 0.3 s. The machine's speed drifts over tens of
# seconds, so set-ups that short are also repeated after every operation,
# which spreads them over the whole run.
WORKLOADS = {
    "hourly_full": Workload(3600, "UTC", "normalize", (), SETUP_REPEATS),
    "hourly_trees": Workload(3600, "UTC", "normalize", ("mlp", "lstm"), SETUP_REPEATS),
    "fine_evaluate": Workload(300, "America/New_York", "evaluate", (), 0),
}

# Training lengths pinned near where the defaults stop on these buildings
# (LSTM about 75 epochs, MLP 150, exact trees 180 rounds, histogram trees
# 150), with early stopping that never fires. The default learning rates,
# sizes and best-validation snapshot stay. Under the defaults, when early
# stopping fires depends on the seed and swung wall time by 30% between
# seeds; pinned, the seed changes the building but not the amount of work.
MODEL_BUDGETS = {
    "mlp": {"epochs": 150, "early_stop_patience": 150},
    "lstm": {"epochs": 75, "early_stop_patience": 75},
    "gbt_exact": {"rounds": 180, "early_stop_rounds": 180},
    "gbt_hist": {"rounds": 150, "early_stop_rounds": 150},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "reduction_accuracy": "ratio",
    "ensemble_daily_cv_rmse": "ratio",
    "max_model_daily_cv_rmse": "ratio",
    "gate_passed": "count",
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def make_building(seed: int, interval: int, timezone: str, outdir: Path):
    from normbase import synthgen

    cfg = synthgen.SynthConfig(
        interval_seconds=interval, timezone=timezone, noise_sigma_kwh=30.0, seed=seed
    )
    cfg = synthgen.configure_for_target(cfg, PLANTED_FRACTION)
    synthgen.write_dataset(synthgen.generate(cfg), outdir)


def write_run_config(path: Path, data: Path, out: Path, interval: int, timezone: str,
                     disabled=(), save_models=True) -> Path:
    doc = {
        "seed": RUN_SEED,
        "interval_seconds": interval,
        "timezone": timezone,
        "inputs": {ch: str(data / f"{ch}.csv") for ch in CHANNELS},
        "periods": PERIODS,
        "output_dir": str(out),
        "save_models": save_models,
        "models": {
            name: {"enabled": False} if name in disabled else budget
            for name, budget in MODEL_BUDGETS.items()
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@dataclass
class Prepared:
    args: list  # normbase command line
    out_dir: Path
    planted: float
    twin_report: dict = None


def generate_inputs(wl: Workload, seed: int, work: Path):
    """Write the workload's building (and, for evaluate, its hourly twin)."""
    make_building(seed, wl.interval_seconds, wl.timezone, work / "data")
    if wl.command == "evaluate":
        make_building(seed, 3600, "UTC", work / "twin")


def prepare(wl: Workload, work: Path, env: dict) -> Prepared:
    """Write the run config; for evaluate, train and save the models."""
    data, out = work / "data", work / "out"
    planted = json.loads((data / "ground_truth.json").read_text())["reduction_fraction"]
    if wl.command == "normalize":
        cfg = write_run_config(work / "run.json", data, out, wl.interval_seconds,
                               wl.timezone, wl.disabled)
        return Prepared(["normalize", "--config", str(cfg)], out, planted)

    twin_out = work / "twin_out"
    twin_cfg = write_run_config(work / "twin.json", work / "twin", twin_out, 3600, "UTC")
    op = run_normbase(["normalize", "--config", str(twin_cfg)], env, work)
    if op.rc != 0:
        raise SetupError(f"training the saved models exited {op.rc}: {op.stderr_tail}")
    cfg = write_run_config(work / "run.json", data, out, wl.interval_seconds,
                           wl.timezone, save_models=False)
    return Prepared(
        ["evaluate", "--config", str(cfg), "--models", str(twin_out / "models")],
        out, planted, json.loads((twin_out / "report.json").read_text()),
    )


# ---------------------------------------------------------------------------
# one operation


@dataclass
class Op:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr_tail: str
    traced: bool = False
    problems: list = None
    quality: dict = None
    layers: dict = None


def run_normbase(args, env: dict, work: Path, spans: Path = None) -> Op:
    """One fresh normbase process; wall, CPU and peak RSS from its rusage."""
    if spans is None:
        cmd = [sys.executable, "-m", "normbase.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
    out_path, err_path = work / "op.stdout", work / "op.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(),
        stderr_tail=err_path.read_text()[-2000:],
        traced=spans is not None,
    )


def parse_kpi_table(text: str) -> dict:
    """Model name -> (daily CV(RMSE), gate cell) from the printed KPI table."""
    lines = text.splitlines()
    rows = {}
    for line in lines[2:]:
        if not line.strip():
            break
        cells = line.split(None, 7)
        rows[cells[0]] = (float(cells[1]), cells[7])
    return rows


class Checker:
    """Output checks; remembers the first good output to compare repeats."""

    def __init__(self, wl: Workload, prep: Prepared):
        self.wl = wl
        self.prep = prep
        schema = json.loads((SRC / "normbase" / "schemas" / "report.schema.json").read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self.reference = None

    def check(self, op: Op):
        op.problems = []
        if op.rc != 0:
            op.problems.append(f"exit code {op.rc}")
            return
        try:
            if self.wl.command == "normalize":
                self._check_report(op)
            else:
                self._check_table(op)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            op.problems.append(f"unreadable output: {e!r}")

    def _same_as_first(self, op: Op, output, what: str):
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            op.problems.append(f"{what} differs from the first repeat")

    def _check_report(self, op: Op):
        raw = (self.prep.out_dir / "report.json").read_bytes()
        report = json.loads(raw)
        for err in self.validator.iter_errors(report):
            op.problems.append(f"report.json schema: {err.message}")
        self._same_as_first(op, raw, "report.json")
        estimate = report["totals"]["reduction_fraction"]
        if estimate is None or abs(estimate - self.prep.planted) >= RECOVERY_TOLERANCE:
            op.problems.append(f"reduction_fraction {estimate} vs planted {self.prep.planted}")
            return
        op.quality = report_quality(report, self.prep.planted)
        op.quality["max_model_daily_cv_rmse"] = max(
            m["kpis"]["daily"]["cv_rmse"] for m in report["models"].values()
        )
        op.quality["gate_passed"] = sum(
            1 for m in report["models"].values() if (m["kpis"]["gate"] or {}).get("passed")
        )

    def _check_table(self, op: Op):
        table = parse_kpi_table(op.stdout)
        self._same_as_first(op, op.stdout, "KPI table")
        twin = self.prep.twin_report["models"]
        if sorted(table) != sorted(twin):
            op.problems.append(f"KPI table models {sorted(table)} vs trained {sorted(twin)}")
            return
        for name, (daily_cv, _) in table.items():
            expected = twin[name]["kpis"]["daily"]["cv_rmse"]
            if abs(daily_cv - expected) > KPI_TABLE_TOLERANCE:
                op.problems.append(f"{name} daily CV(RMSE) {daily_cv} vs hourly twin {expected}")
        op.quality = report_quality(self.prep.twin_report, self.prep.planted)
        op.quality["max_model_daily_cv_rmse"] = max(cv for cv, _ in table.values())
        op.quality["gate_passed"] = sum(1 for _, gate in table.values() if gate == "PASS")


def report_quality(report: dict, planted: float) -> dict:
    estimate = report["totals"]["reduction_fraction"]
    return {
        "reduction_accuracy": 1.0 - abs(estimate - planted) / planted,
        "ensemble_daily_cv_rmse": report["ensemble_test_kpis"]["daily"]["cv_rmse"],
    }


def artifact_bytes(out_dir: Path) -> int:
    if not out_dir.exists():
        return 0
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# the run


def program_env() -> dict:
    """Environment of every normbase process: the checkout's source, and the
    thread settings left at their defaults, as a user runs it."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment_facts(env: dict) -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": commit,
        **{k: env.get(k, "unset") for k in THREAD_VARS},
    }


class SetupTimer:
    """Times input generation; when traced, also its synthgen calls.

    Training the saved models is deterministic for a seed and costs most of
    a fine_evaluate set-up, so it runs once, and ``setup_times`` adds its
    time to every timed generation.
    """

    def __init__(self, wl: Workload, seed: int, tracer):
        importlib.import_module("normbase.synthgen")  # import outside the timing
        self.wl, self.seed, self.tracer = wl, seed, tracer
        self.times, self.synth = [], []
        self.train_s = 0.0

    def generate(self, dest: Path):
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        first_span = len(self.tracer.spans) if self.tracer else 0
        t0 = time.perf_counter()
        generate_inputs(self.wl, self.seed, dest)
        self.times.append(time.perf_counter() - t0)
        if self.tracer:
            new = self.tracer.spans[first_span:]
            self.synth.append({
                f"synthgen.{fn}.s": sum(s["end"] - s["start"] for s in new
                                       if s["name"] == f"synthgen.{fn}")
                for fn in ("generate", "write_dataset")
            })

    def prepare(self, work: Path, env: dict) -> Prepared:
        t0 = time.perf_counter()
        prep = prepare(self.wl, work, env)
        self.train_s = time.perf_counter() - t0
        return prep

    def repeat(self, work: Path, times: int):
        """Generate again into a scratch directory the operations never read."""
        for _ in range(times):
            self.generate(work / "regenerated")

    @property
    def setup_times(self) -> list:
        return [t + self.train_s for t in self.times]


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path, env: dict):
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(SETUP_TARGETS)
    setup = SetupTimer(wl, seed, tracer)
    setup.generate(work)
    prep = setup.prepare(work, env)
    setup.repeat(work, SETUP_REPEATS - 1)
    checker = Checker(wl, prep)

    ops = []
    while len(ops) < 2 or sum(op.wall_s for op in ops) < seconds:
        traced = trace and len(ops) % 2 == 1
        spans_path = work / "spans.json"
        shutil.rmtree(prep.out_dir, ignore_errors=True)
        op = run_normbase(prep.args, env, work, spans_path if traced else None)
        checker.check(op)
        if traced and op.rc == 0:
            doc = json.loads(spans_path.read_text())
            op.layers = layer_metrics(doc["spans"])
            op.layers["cli.import_s"] = doc["import_s"]
            op.layers["cli.artifact_bytes"] = artifact_bytes(prep.out_dir)
        if op.problems:
            print(f"FAILED operation {len(ops) + 1}: {'; '.join(op.problems)}", file=sys.stderr)
            print(op.stderr_tail, file=sys.stderr)
        ops.append(op)
        setup.repeat(work, wl.setups_between_ops)
    return setup.setup_times, setup.synth, ops


def end_to_end(setup_times, ops) -> dict:
    good = [op for op in ops if not op.problems] or ops
    values = {
        "wall_s": statistics.median(op.wall_s for op in good),
        "cpu_s": statistics.median(op.cpu_s for op in good),
        "peak_rss_mb": statistics.median(op.rss_mb for op in good),
        "setup_s": statistics.median(setup_times),
    }
    quality = next((op.quality for op in good if op.quality), None)
    for key in ("reduction_accuracy", "ensemble_daily_cv_rmse",
                "max_model_daily_cv_rmse", "gate_passed"):
        values[key] = quality[key] if quality else 0.0
    return values


def per_layer(synth, ops) -> dict:
    traced = [op for op in ops if op.traced and op.layers]
    values = median_metrics([op.layers for op in traced]) if traced else {}
    values.update(median_metrics(synth))
    plain = [op.wall_s for op in ops if not op.traced]
    values["trace.overhead_s"] = (
        statistics.median(op.wall_s for op in traced) - statistics.median(plain)
        if traced else 0.0
    )
    return values


def print_summary(name, seed, env_facts, setup_times, ops, e2e):
    walls = [op.wall_s for op in ops if not op.traced]
    q1, med, q3 = quartiles(walls)
    failed = sum(1 for op in ops if op.problems)
    print(f"workload {name}  seed {seed}  operations {len(ops)}  set-ups {len(setup_times)}")
    print("env " + json.dumps(env_facts, sort_keys=True))
    print(f"  wall_s per operation: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {len(walls)}")
    for key, value in e2e.items():
        print(f"  {key:<26} {value:12.6f} {END_TO_END_UNITS[key]}")
    print(f"  {'error_rate':<26} {failed / len(ops):12.6f} ratio")
    if e2e["reduction_accuracy"]:
        abs_error = (1.0 - e2e["reduction_accuracy"]) * PLANTED_FRACTION
        print(f"  {'abs_reduction_error':<26} {abs_error:12.6f} fraction")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "normbase" / "cli.py").is_file():
        print(f"no normbase source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    env = program_env()
    work = WORK / args.workload
    try:
        setup_times, synth, ops = measure(wl, args.seed, args.seconds, bool(args.trace), work, env)
    except SetupError as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(setup_times, ops)
    print_summary(args.workload, args.seed, environment_facts(env), setup_times, ops, e2e)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(synth, ops).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    failed = sum(1 for op in ops if op.problems)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s", ".s_per_epoch", ".s_per_round")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name == "normalize.fit_overlap":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
