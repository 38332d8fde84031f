"""Engine hot-path microbenchmark: events/sec through the inner loops.

PR-2's phase profiling showed the implicit ``engine`` phase dominating
sweep cell time, almost all of it per-send Python overhead (port
lookups, payload measurement, branchy flush loops).  This bench pins
that number down so the perf trajectory is visible across PRs: it
measures end-to-end **events per second** for two representative
workloads —

* ``flooding`` — Theta(m) constant-size messages, the pure engine
  overhead stress (both engines);
* ``dfs-rank`` — Theorem 3's ranked DFS tokens with growing payloads,
  the bit-size-measurement stress (async only).

at n in {512, 2048} on a connected ER graph of average degree 8.

"Events" is the engine's own work unit: processed heap events (wakes +
deliveries) for the async engine, and deliveries + wakes for the sync
engine (whose ``events_processed`` counts rounds, not per-message
work).

Results land in ``BENCH_engine.json`` (repo root); the committed copy
is recorded as the ``engine`` profile of ``PERF_LEDGER.jsonl``, which
``python -m repro perf check --candidate engine=...`` guards against
>30% regressions.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --check

``--check`` runs tiny sizes (fast enough for CI) and validates the
output schema without touching the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.registry import get_algorithm
from repro.graphs.generators import connected_erdos_renyi
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UniformRandomDelay, WakeSchedule
from repro.sim.runner import run_wakeup

# Envelope v2: the unified BENCH_*.json schema — every bench carries
# the same top level (schema, created, python, profile, cases); the
# profile names which PROFILES entry in repro.analysis.perf guards it.
SCHEMA = 2
PROFILE = "engine"

#: (algorithm, engine, knowledge) cases; sizes come from the CLI.
CASES = (
    ("flooding", "async", Knowledge.KT0),
    ("flooding", "sync", Knowledge.KT0),
    ("dfs-rank", "async", Knowledge.KT1),
)

DEFAULT_SIZES = (512, 2048)
AVG_DEGREE = 8.0

#: Every per-case record carries exactly these fields; the ledger gate
#: (``python -m repro perf check``) refuses files without them.
CASE_FIELDS = (
    "algorithm",
    "engine",
    "n",
    "events",
    "messages",
    "wall_s",
    "events_per_sec",
)


def _build_world(n: int, knowledge: Knowledge, seed: int = 7):
    graph = connected_erdos_renyi(n, AVG_DEGREE / max(1, n - 1), seed=seed + n)
    setup = make_setup(graph, knowledge=knowledge, seed=seed + n)
    # A handful of adversary-woken nodes (not just one) so dfs-rank
    # exercises rank competition between concurrent tokens.
    verts = sorted(graph.vertices(), key=setup.id_of)
    awake = verts[:: max(1, n // 4)][:4]
    adversary = Adversary(
        WakeSchedule.all_at_once(awake), UniformRandomDelay(seed=seed)
    )
    return setup, adversary


def run_case(algorithm: str, engine: str, knowledge: Knowledge, n: int,
             repeats: int = 3) -> dict:
    setup, adversary = _build_world(n, knowledge)
    best_wall = float("inf")
    result = None
    for _ in range(repeats):
        algo = get_algorithm(algorithm)
        t0 = time.perf_counter()
        result = run_wakeup(setup, algo, adversary, engine=engine, seed=11)
        wall = time.perf_counter() - t0
        best_wall = min(best_wall, wall)
    m = result.metrics
    if engine == "async":
        events = m.events_processed
    else:
        events = m.messages_total + m.awake_count()
    return {
        "algorithm": algorithm,
        "engine": engine,
        "n": n,
        "events": events,
        "messages": m.messages_total,
        "wall_s": best_wall,
        "events_per_sec": events / best_wall if best_wall > 0 else 0.0,
    }


def run_bench(sizes=DEFAULT_SIZES, repeats: int = 3, quiet: bool = False) -> dict:
    cases = []
    for algorithm, engine, knowledge in CASES:
        for n in sizes:
            rec = run_case(algorithm, engine, knowledge, n, repeats=repeats)
            cases.append(rec)
            if not quiet:
                print(
                    f"{algorithm:12s} {engine:5s} n={n:5d}  "
                    f"{rec['events']:8d} events  {rec['wall_s']*1e3:8.1f} ms  "
                    f"{rec['events_per_sec']:12.0f} events/s"
                )
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "profile": PROFILE,
        "repeats": repeats,
        "avg_degree": AVG_DEGREE,
        "cases": cases,
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
def test_hotpath_bench_smoke():
    payload = run_bench(sizes=(48,), repeats=1, quiet=True)
    assert validate(payload) == []
    for case in payload["cases"]:
        assert case["events"] > 0
        assert case["events_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_engine.json",
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

    if args.check:
        payload = run_bench(sizes=(64,), repeats=1)
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

    payload = run_bench(sizes=tuple(args.sizes), repeats=args.repeats)
    problems = validate(payload)
    if problems:
        for p in problems:
            print(f"BENCH SCHEMA ERROR: {p}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
