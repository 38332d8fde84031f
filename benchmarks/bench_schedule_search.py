"""Schedule-search throughput benchmark: schedules/sec through the
controlled engine loop.

The model checker's cost unit is one *controlled run* — a full engine
execution driven through the choice-point protocol, plus invariant
checks.  This bench pins down that throughput for the two modes CI
exercises:

* ``explore`` — exhaustive DFS with sleep-set POR + state dedup on
  flooding workloads (the ``check-smoke`` CI path);
* ``worstcase`` — greedy + beam search on the Theorem-1 class-G
  topology (each beam evaluation is one controlled run).

Results land in ``BENCH_check.json`` (repo root); the committed copy is
recorded as the ``check`` profile of ``PERF_LEDGER.jsonl``, which
``python -m repro perf check --candidate check=...`` guards against
>30% regressions.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_schedule_search.py
    PYTHONPATH=src python benchmarks/bench_schedule_search.py --check

``--check`` runs a reduced matrix (fast enough for CI) and validates
the output schema without touching the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.check.explorer import explore
from repro.check.worstcase import worstcase_search
from repro.core.registry import get_algorithm
from repro.graphs.generators import cycle_graph, star_graph
from repro.lowerbounds.graph_g import build_class_g
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule

# Envelope v2: the unified BENCH_*.json schema (schema, created,
# python, profile, cases); the profile names which PROFILES entry
# in repro.analysis.perf guards it.
SCHEMA = 2
PROFILE = "check"

#: (mode, algorithm, graph, n) — the benchmark matrix.
CASES = (
    ("explore", "flooding", "cycle", 4),
    ("explore", "flooding", "star", 5),
    ("explore", "echo-flooding", "cycle", 4),
    ("worstcase", "flooding", "class-g", 8),
)

#: Every per-case record carries exactly these fields; the ledger gate
#: (``python -m repro perf check``) refuses files without them.
CASE_FIELDS = (
    "mode",
    "algorithm",
    "n",
    "schedules",
    "wall_s",
    "schedules_per_sec",
)


def _world(algorithm: str, graph: str, n: int):
    algo = get_algorithm(algorithm)
    if graph == "class-g":
        cg = build_class_g(n)

        def world():
            setup = cg.make_setup(
                seed=1, bandwidth="LOCAL", knowledge=Knowledge.KT0
            )
            sched = WakeSchedule({v: 0.0 for v in cg.centers})
            return setup, algo, Adversary(sched, UnitDelay())

        return world
    g = {"cycle": cycle_graph, "star": star_graph}[graph](n)

    def world():
        setup = make_setup(
            g, knowledge=Knowledge.KT0, bandwidth="LOCAL", seed=1
        )
        return setup, algo, Adversary(WakeSchedule({0: 0.0}), UnitDelay())

    return world


def run_case(mode: str, algorithm: str, graph: str, n: int,
             repeats: int = 3) -> dict:
    world = _world(algorithm, graph, n)
    best_wall = float("inf")
    schedules = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        if mode == "explore":
            result = explore(world, max_schedules=5_000)
            assert result.stats.violations == 0, "bench workload violated"
            schedules = result.stats.schedules
        else:
            wc = worstcase_search(
                world, "time", beam_width=4, horizon=8, branch_cap=2
            )
            schedules = wc.evaluations
        best_wall = min(best_wall, time.perf_counter() - t0)
    return {
        "mode": mode,
        "algorithm": algorithm,
        "graph": graph,
        "n": n,
        "schedules": schedules,
        "wall_s": best_wall,
        "schedules_per_sec": (
            schedules / best_wall if best_wall > 0 else 0.0
        ),
    }


def run_bench(cases=CASES, repeats: int = 3, quiet: bool = False) -> dict:
    recs = []
    for mode, algorithm, graph, n in cases:
        rec = run_case(mode, algorithm, graph, n, repeats=repeats)
        recs.append(rec)
        if not quiet:
            print(
                f"{mode:9s} {algorithm:14s} {graph:8s} n={n:3d}  "
                f"{rec['schedules']:6d} schedules  "
                f"{rec['wall_s']*1e3:8.1f} ms  "
                f"{rec['schedules_per_sec']:10.1f} schedules/s"
            )
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "profile": PROFILE,
        "repeats": repeats,
        "cases": recs,
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
def test_schedule_search_bench_smoke():
    payload = run_bench(
        cases=(("explore", "flooding", "cycle", 3),
               ("worstcase", "flooding", "class-g", 4)),
        repeats=1,
        quiet=True,
    )
    assert validate(payload) == []
    for case in payload["cases"]:
        assert case["schedules"] > 0
        assert case["schedules_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_check.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per case; best-of wins (default: 3)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: reduced matrix, single repeat, schema "
        "validation, no baseline overwrite (writes to --out only if "
        "given explicitly)",
    )
    args = parser.parse_args(argv)

    if args.check:
        payload = run_bench(
            cases=(("explore", "flooding", "cycle", 3),
                   ("worstcase", "flooding", "class-g", 4)),
            repeats=1,
        )
        problems = validate(payload)
        if problems:
            for p in problems:
                print(f"BENCH SCHEMA ERROR: {p}", file=sys.stderr)
            return 1
        if args.out != parser.get_default("out"):
            Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.out}")
        print("bench check ok")
        return 0

    payload = run_bench(repeats=args.repeats)
    problems = validate(payload)
    if problems:
        for p in problems:
            print(f"BENCH SCHEMA ERROR: {p}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
