#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric, by name with its unit.

    python3 perfbench/report.py [--seconds 20] [--seed 0]

For each workload, runs ``run.py`` untraced (end-to-end metrics) and
then traced (per-layer metrics), one process after the other, and
prints both tables with the line each run wrote about itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        check=True,
    )
    note, result = done.stdout.strip().splitlines()[-2:]
    return note, json.loads(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            note, result = run_once(workload, args.seed, args.seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind}")
            print(f"   {note}")
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:30s} {metric['value']:14.4f} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
