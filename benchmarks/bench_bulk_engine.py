"""Bulk frontier engine benchmark: sync lane vs vectorized lane.

The bulk engine's reason to exist is throughput at scales the
per-message engines cannot reach (n ~ 10^5-10^6, the regime where the
paper's asymptotic separations become visible).  This bench measures
both lanes on the identical workload — flooding on a connected ER graph
of average degree 8, a handful of adversary-woken nodes — at
n in {16384, 65536}, through the same compiled-topology path the sweep
executor uses (so neither lane is charged for graph construction).

"Events" is the same unit ``bench_engine_hotpath.py`` uses for the sync
engine — deliveries + wakes (= messages + awake count) — so
``events_per_sec`` is directly comparable across the two baseline
files.  Each bulk case records ``speedup_vs_sync`` against the sync
case at the same n; the acceptance target for the committed baseline is
>= 10x on flooding at n = 65536.

Results land in ``BENCH_bulk.json`` (repo root); the committed copy is
recorded as the ``bulk`` profile of ``PERF_LEDGER.jsonl``, which
``python -m repro perf check --candidate bulk=...`` guards against >30%
regressions.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_bulk_engine.py
    PYTHONPATH=src python benchmarks/bench_bulk_engine.py --check
"""

from __future__ import annotations

import argparse
import sys
import time

import pytest

from repro.analysis.perf import bench_envelope, check_bench, emit_bench
from repro.core.registry import get_algorithm
from repro.graphs.compile import clear_memory_cache, compiled_topology
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, WakeSchedule
from repro.sim.bulk import HAS_BULK
from repro.sim.runner import run_wakeup

#: The repro.analysis.perf PROFILES entry that validates this
#: bench's envelope and cases.
PROFILE = "bulk"

DEFAULT_SIZES = (16384, 65536)
AVG_DEGREE = 8.0
ENGINES = ("sync", "bulk")


def _build_world(n: int, seed: int = 7):
    """Setup + adversary via the compiled-topology path (one build per
    size, shared by both lanes — and handing the bulk engine its CSR
    arrays for free, exactly as executor-routed cells do)."""
    topo = compiled_topology(
        {"kind": "er_single_wake", "avg_degree": AVG_DEGREE, "seed": seed},
        n,
    )
    setup = make_setup(
        topo.graph(), knowledge=Knowledge.KT0, seed=seed + n, compiled=topo
    )
    verts = sorted(topo.graph().vertices(), key=setup.id_of)
    awake = verts[:: max(1, n // 4)][:4]
    adversary = Adversary(WakeSchedule.all_at_once(awake))
    return setup, adversary


def run_case(engine: str, n: int, repeats: int = 3) -> dict:
    setup, adversary = _build_world(n)
    best_wall = float("inf")
    result = None
    for _ in range(repeats):
        algo = get_algorithm("flooding")
        t0 = time.perf_counter()
        result = run_wakeup(setup, algo, adversary, engine=engine, seed=11)
        wall = time.perf_counter() - t0
        best_wall = min(best_wall, wall)
    assert result.engine == engine, (
        f"expected the {engine} lane, got {result.engine} "
        "(missing repro[bulk] extras?)"
    )
    m = result.metrics
    events = m.messages_total + m.awake_count()
    return {
        "algorithm": "flooding",
        "engine": engine,
        "n": n,
        "events": events,
        "messages": m.messages_total,
        "wall_s": best_wall,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
    }


def run_bench(sizes=DEFAULT_SIZES, repeats: int = 3, quiet: bool = False) -> dict:
    cases = []
    for n in sizes:
        sync_rate = None
        for engine in ENGINES:
            rec = run_case(engine, n, repeats=repeats)
            if engine == "sync":
                sync_rate = rec["events_per_sec"]
            elif sync_rate:
                rec["speedup_vs_sync"] = rec["events_per_sec"] / sync_rate
            cases.append(rec)
            if not quiet:
                extra = (
                    f"  {rec['speedup_vs_sync']:6.1f}x vs sync"
                    if "speedup_vs_sync" in rec
                    else ""
                )
                print(
                    f"flooding {engine:5s} n={n:6d}  "
                    f"{rec['events']:8d} events  "
                    f"{rec['wall_s']*1e3:8.1f} ms  "
                    f"{rec['events_per_sec']:12.0f} events/s{extra}"
                )
    return bench_envelope(
        PROFILE, repeats=repeats, avg_degree=AVG_DEGREE, cases=cases
    )


# ----------------------------------------------------------------------
# pytest hook: a tiny smoke run so `pytest benchmarks/` covers the bench
# ----------------------------------------------------------------------
@pytest.mark.bulk
def test_bulk_bench_smoke():
    clear_memory_cache()
    payload = run_bench(sizes=(256,), repeats=1, quiet=True)
    check_bench(payload)
    by_engine = {c["engine"]: c for c in payload["cases"]}
    assert set(by_engine) == set(ENGINES)
    # Identical metrics across lanes (the conformance contract, visible
    # in the bench output too).
    assert by_engine["sync"]["messages"] == by_engine["bulk"]["messages"]
    assert by_engine["sync"]["events"] == by_engine["bulk"]["events"]
    clear_memory_cache()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_bulk.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="network sizes to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per case; best-of wins (default: 3)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: tiny sizes, single repeat, schema validation, "
        "no baseline overwrite (writes to --out only if given "
        "explicitly)",
    )
    args = parser.parse_args(argv)

    if not HAS_BULK:
        print(
            "repro[bulk] extras (numpy + scipy) not installed; "
            "nothing to measure",
            file=sys.stderr,
        )
        return 1

    if args.check:
        payload = run_bench(sizes=(512,), repeats=1)
        # --check writes only to an --out given explicitly
        out = None if args.out == parser.get_default("out") else args.out
        if emit_bench(payload, out):
            return 1
        print("bench check ok")
        return 0

    payload = run_bench(sizes=tuple(args.sizes), repeats=args.repeats)
    return emit_bench(payload, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
