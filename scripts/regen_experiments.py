#!/usr/bin/env python3
"""Regenerate the raw data behind EXPERIMENTS.md.

Runs the core sweeps (Table-1 rows, the Theorem-1 frontier, the
Theorem-2 points) and writes JSON result files under ``results/``.
A later run can be compared against a stored baseline with
``--compare`` to spot behavioural drift.

Usage:
    python scripts/regen_experiments.py [--outdir results] [--compare]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.registry import get_algorithm
from repro.experiments.storage import compare_records, load_records, save_records
from repro.experiments.sweeps import algorithm_model, parallel_sweep
from repro.experiments.table1 import measure_table1
from repro.lowerbounds.theorem1 import run_prefix_tradeoff
from repro.lowerbounds.theorem2 import OneShotProbe, run_time_restricted

SIZES = [64, 128, 256, 512]

WORKLOAD = {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 13}

#: experiment -> registry name; each sweep runs in its algorithm's
#: declared model (async KT0 CONGEST for the advising schemes, async
#: KT1 LOCAL for Theorem 3).
SWEEPS = {
    "corollary1": "fip06-tree-advice",
    "theorem5a": "sqrt-threshold-advice",
    "theorem5b": "child-encoding",
    "corollary2": "log-spanner-advice",
    "theorem3": "dfs-rank",
}


def regen(outdir: Path, compare: bool) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    drift_report = []

    def emit(name: str, records, params):
        path = outdir / f"{name}.json"
        if compare and path.exists():
            old = load_records(path)
            new = {"records": [r if isinstance(r, dict) else r.__dict__ for r in records]}
            drift_report.extend(
                f"{name}: {line}"
                for line in compare_records(old, new, key="messages")
            )
        save_records(path, records, experiment=name, params=params)
        print(f"wrote {path} ({len(records)} records)")

    for name, algorithm in SWEEPS.items():
        knowledge, bandwidth, engine = algorithm_model(get_algorithm(algorithm))
        rows, _ = parallel_sweep(
            algorithm,
            WORKLOAD,
            sizes=SIZES,
            engine=engine,
            knowledge=knowledge,
            bandwidth=bandwidth,
            trials=3,
            seed=2,
        )
        emit(name, rows, {"sizes": SIZES, "workload": "er_single_wake(6.0)"})

    # Theorem-1 frontier
    points = run_prefix_tradeoff(n=48, betas=[0, 1, 2, 3, 4, 5], trials=2, seed=3)
    emit("theorem1_frontier", points, {"n": 48})

    # Theorem-2 matching upper bound
    points2 = [
        run_time_restricted(3, q, OneShotProbe(), seed=q) for q in (3, 4, 5, 7)
    ]
    emit("theorem2_oneshot", points2, {"k": 3, "qs": [3, 4, 5, 7]})

    # Table 1 snapshot
    t1 = measure_table1(n=200, seed=4)
    emit("table1", t1, {"n": 200, "seed": 4})

    if drift_report:
        print("\nDRIFT vs stored baseline:")
        for line in drift_report:
            print(" ", line)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument(
        "--compare", action="store_true",
        help="diff against existing files before overwriting",
    )
    args = parser.parse_args(argv)
    return regen(args.outdir, args.compare)


if __name__ == "__main__":
    sys.exit(main())
