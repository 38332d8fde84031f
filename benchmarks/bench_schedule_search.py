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
import sys
import time

from repro.analysis.perf import bench_envelope, check_bench, emit_bench
from repro.check.explorer import explore
from repro.check.worstcase import worstcase_search
from repro.core.registry import get_algorithm
from repro.graphs.generators import cycle_graph, star_graph
from repro.lowerbounds.graph_g import build_class_g
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule

#: The repro.analysis.perf PROFILES entry that validates this
#: bench's envelope and cases.
PROFILE = "check"

#: (mode, algorithm, graph, n) — the benchmark matrix.
CASES = (
    ("explore", "flooding", "cycle", 4),
    ("explore", "flooding", "star", 5),
    ("explore", "echo-flooding", "cycle", 4),
    ("worstcase", "flooding", "class-g", 8),
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
    return bench_envelope(PROFILE, repeats=repeats, cases=recs)


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
    check_bench(payload)
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
        # --check writes only to an --out given explicitly
        out = None if args.out == parser.get_default("out") else args.out
        if emit_bench(payload, out):
            return 1
        print("bench check ok")
        return 0

    payload = run_bench(repeats=args.repeats)
    return emit_bench(payload, args.out)


if __name__ == "__main__":
    sys.exit(main())
