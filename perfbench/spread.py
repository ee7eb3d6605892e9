#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload hourly_full --seeds 1-10 --seconds 20

For every metric in the result lines it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median: the run-to-run spread the benchmark's bounds must
cover. Runs are sequential, so they do not load the machine together.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from derive import quartiles, relative_spread

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,7,11'")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v:.4g}" for k, v in line.items()))
        for key, value in line.items():
            values.setdefault(key, []).append(value)

    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for key, vals in values.items():
        q1, med, q3 = quartiles(vals)
        print(f"{key:<40} {med:12.6g} {q1:12.6g} {q3:12.6g} {relative_spread(vals):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
