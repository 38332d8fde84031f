"""Executor scaling benchmark: the worker pool against the inline path.

The executor runs cache-missed cells either inline (``workers=0``) or
on its work-stealing pool (``repro/experiments/backends.py``), which
hands out one cell per task, largest ``n`` first.  This bench measures
what the pool buys over the inline path, using *sleep-paced* cells:
each cell's cost is a calibrated ``time.sleep`` spin, so the
measurement is scheduling-bound, overlaps perfectly across worker
processes, and is meaningful even on a single-core CI box:

* ``uniform`` — 16 equal-cost cells.  Two workers should halve the
  wall time.
* ``skewed``  — 12 small cells plus one large-``n`` straggler *last*
  in input order.  Dispatching largest first starts the straggler at
  once and overlaps it with the small cells; input-order dispatch
  would run it after them, with one worker idle.  Acceptance: the
  pool is at least 1.7x faster than inline with 2 workers, in the full
  run and in ``--check``.

``pool_speedup = serial_s / pool_s`` is the guarded metric per
``(mix, workers)`` case, and the rows of both runs must be equal.

The payload also records a ``tiny`` section — 96 trivial cells, pool
against inline — showing the per-cell IPC cost of one task per cell on
cells too small to pay for a worker.  It is informational, not
ledger-gated.

Results land in ``BENCH_executor.json`` (repo root); the committed
copy is the baseline the unified perf ledger (``repro perf check
--candidate executor=...``) guards against regressions.  Run as a
script:

    PYTHONPATH=src python benchmarks/bench_executor_scaling.py
    PYTHONPATH=src python benchmarks/bench_executor_scaling.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.flooding import Flooding
from repro.experiments.parallel import CellSpec, ParallelSweepExecutor

# Envelope v2: the unified BENCH_*.json schema (schema, created,
# python, profile, cases); the profile names which PROFILES entry
# in repro.analysis.perf guards it.
SCHEMA = 2
PROFILE = "executor"

#: Every per-case record carries exactly these fields; the perf ledger
#: (repro.analysis.perf.PROFILES["executor"]) refuses files without
#: them.
CASE_FIELDS = (
    "mix",
    "workers",
    "cells",
    "serial_s",
    "pool_s",
    "pool_speedup",
)

#: Sleep budget of one small cell / the skewed mix's straggler.
SMALL_SLEEP_S = 0.08
LARGE_SLEEP_S = 1.0

DEFAULT_WORKERS = 2

#: Smallest skewed-mix ``pool_speedup`` the bench accepts.  Perfect
#: overlap reads ~1.96x; dispatching 4-cell batches in input order
#: reads ~1.45x, so a lower bound would not tell the two apart.
MIN_SKEWED_SPEEDUP = 1.7


class PacedFlooding(Flooding):
    """Flooding with a calibrated wall-clock cost.

    Spins in small sleeps before delegating to the real algorithm on
    a tiny graph, so a cell's cost is its ``pace`` parameter, not its
    compute.  The actual wake-up run keeps the rows real — the
    pool-versus-inline equality assertion below compares genuine sweep
    records.
    """

    name = "bench-paced-flooding"

    def __init__(self, pace: float = SMALL_SLEEP_S):
        super().__init__()
        self.pace = float(pace)

    def build_nodes(self, setup):
        deadline = time.monotonic() + self.pace
        while time.monotonic() < deadline:
            time.sleep(0.005)
        return super().build_nodes(setup)


#: Dotted path the worker processes resolve the paced algorithm by
#: (fork inherits this module in sys.modules, so the import resolves
#: whether the bench runs as a script or under pytest).
PACED = f"{__name__}:PacedFlooding"


def _cell(n: int, trial: int, pace: float) -> CellSpec:
    return CellSpec(
        algorithm=PACED,
        n=n,
        trial=trial,
        seed=7,
        engine="async",
        knowledge="KT0",
        bandwidth="CONGEST",
        workload={"kind": "er_single_wake", "avg_degree": 3.0, "seed": 7},
        algo_params={"pace": pace},
    )


def _mix_cells(mix: str, scale: float):
    if mix == "uniform":
        return [
            _cell(48, t, SMALL_SLEEP_S * scale) for t in range(16)
        ]
    if mix == "skewed":
        # The large-n straggler goes LAST: worst case for
        # input-order assignment, the case largest-first fixes.
        cells = [
            _cell(48, t, SMALL_SLEEP_S * scale) for t in range(12)
        ]
        cells.append(_cell(512, 0, LARGE_SLEEP_S * scale))
        return cells
    raise ValueError(f"unknown mix {mix!r}")


def _run(cells, workers: int):
    executor = ParallelSweepExecutor(workers=workers, use_cache=False)
    t0 = time.perf_counter()
    outcomes = executor.run(list(cells))
    wall = time.perf_counter() - t0
    bad = [o for o in outcomes if not o.ok]
    assert not bad, [o.error for o in bad]
    return wall, [o.record() for o in outcomes]


def run_case(mix: str, workers: int, scale: float) -> dict:
    cells = _mix_cells(mix, scale)
    serial_s, serial_rows = _run(cells, 0)
    pool_s, pool_rows = _run(cells, workers)
    # The pool may only move wall clock, never results.
    assert pool_rows == serial_rows, "the pool changed sweep rows"
    return {
        "mix": mix,
        "workers": workers,
        "cells": len(cells),
        "serial_s": serial_s,
        "pool_s": pool_s,
        "pool_speedup": serial_s / pool_s if pool_s > 0 else 0.0,
    }


def measure_tiny(workers: int, cells: int = 96) -> dict:
    """Pool against inline on trivial cells, where the per-cell IPC
    round trip is a visible share of each cell's cost."""
    specs = [_cell(32, t, 0.0) for t in range(cells)]
    serial_s, _ = _run(specs, 0)
    pool_s, _ = _run(specs, workers)
    return {
        "cells": cells,
        "workers": workers,
        "serial_s": serial_s,
        "pool_s": pool_s,
        "speedup": serial_s / pool_s if pool_s > 0 else 0.0,
    }


def run_bench(
    workers: int = DEFAULT_WORKERS,
    scale: float = 1.0,
    quiet: bool = False,
) -> dict:
    cases = []
    for mix in ("uniform", "skewed"):
        rec = run_case(mix, workers, scale)
        cases.append(rec)
        if not quiet:
            print(
                f"{mix:8s} workers={workers} cells={rec['cells']:3d}  "
                f"serial {rec['serial_s']:6.2f}s  "
                f"pool {rec['pool_s']:6.2f}s  "
                f"({rec['pool_speedup']:5.2f}x)"
            )
    tiny = measure_tiny(workers)
    if not quiet:
        print(
            f"tiny     workers={workers} cells={tiny['cells']:3d}  "
            f"serial {tiny['serial_s']:6.2f}s  "
            f"pool {tiny['pool_s']:6.2f}s  "
            f"({tiny['speedup']:5.2f}x)"
        )
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "profile": PROFILE,
        "cases": cases,
        "tiny": tiny,
    }


def validate(payload: dict) -> list:
    """Schema problems in a bench payload (empty list = valid)."""
    problems = []
    for key in ("schema", "created", "python", "profile", "cases"):
        if key not in payload:
            problems.append(f"missing top-level field {key!r}")
    for i, case in enumerate(payload.get("cases", [])):
        for f in CASE_FIELDS:
            if f not in case:
                problems.append(f"case #{i} missing field {f!r}")
    if not payload.get("cases"):
        problems.append("no cases recorded")
    return problems


# ----------------------------------------------------------------------
# pytest hook: a tiny smoke run so `pytest benchmarks/` covers the bench
# ----------------------------------------------------------------------
def test_executor_bench_smoke():
    payload = run_bench(workers=2, scale=0.25, quiet=True)
    assert validate(payload) == []
    for case in payload["cases"]:
        assert case["serial_s"] > 0
        assert case["pool_s"] > 0
        assert case["pool_speedup"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_executor.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="worker processes of the pooled runs (default: %(default)s)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplier on every cell's sleep budget "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: reduced sleeps, same checks, no baseline "
        "overwrite (writes to --out only if given explicitly)",
    )
    args = parser.parse_args(argv)

    payload = run_bench(
        workers=args.workers, scale=0.25 if args.check else args.scale
    )
    problems = validate(payload)
    if problems:
        for p in problems:
            print(f"BENCH SCHEMA ERROR: {p}", file=sys.stderr)
        return 1
    skewed = next(
        c for c in payload["cases"] if c["mix"] == "skewed"
    )
    if args.workers >= 2 and skewed["pool_speedup"] < MIN_SKEWED_SPEEDUP:
        print(
            "ACCEPTANCE FAIL: skewed-mix pool speedup "
            f"{skewed['pool_speedup']:.2f}x < {MIN_SKEWED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if not args.check or args.out != parser.get_default("out"):
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        print("bench check ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
