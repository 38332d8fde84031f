"""Compiled-topology cache benchmark: build once vs rebuild per trial.

PR-3 made the engine inner loop fast enough that *cell setup* became a
dominant sweep cost: every trial rebuilt the workload graph and re-ran
the ``awake_distance`` traversal.  The compiled-topology layer
(``repro/graphs/compile.py``) replaces that with one build per
(workload, n) plus cheap cache fetches.  This bench pins the three
costs down per workload:

* ``legacy_s``   — T trials x (build workload + awake_distance), the
  pre-cache behavior of ``_execute_cell``;
* ``cold_s``     — one cold ``TopologyStore.fetch_or_build`` (build +
  artifact write) into an empty store;
* ``warm_s``     — T trials fetching through the store with a cold
  in-process LRU: one disk hit, then T-1 memory hits.

``warm_speedup = legacy_s / warm_s`` is the headline metric — the
per-cell setup speedup a multi-trial sweep cell sees with a warm
artifact store.  The acceptance bar is >= 5x on the D(k, q) case.

Workloads:

* ``dkq`` — the D(2, q) Lazebnik–Ustimenko family (GF(p^m) arithmetic
  plus q^(k+1) incidence solves), the paper's expensive lower-bound
  topology;
* ``er_spanner`` — connected ER plus the greedy 3-spanner the
  spanner-advice oracle needs: the legacy path rebuilds the spanner
  per trial, the compiled path memoizes it per topology via
  ``cached_spanner`` (persisted into the artifact's extras).

Results land in ``BENCH_topology.json`` (repo root); the committed
copy is recorded as the ``topology`` profile of ``PERF_LEDGER.jsonl``,
which ``python -m repro perf check --candidate topology=...`` guards
against >30% ``warm_speedup`` regressions.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_topology_compile.py
    PYTHONPATH=src python benchmarks/bench_topology_compile.py --check
"""

from __future__ import annotations

import argparse
import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis.perf import bench_envelope, check_bench, emit_bench
from repro.graphs.compile import (
    TopologyStore,
    cached_spanner,
    clear_memory_cache,
    compiled_topology,
)
from repro.graphs.spanner import greedy_spanner
from repro.graphs.traversal import awake_distance
from repro.graphs.workloads import build_workload

#: The repro.analysis.perf PROFILES entry that validates this
#: bench's envelope and cases.
PROFILE = "topology"

SPANNER_K = 3

#: (case name, workload spec) pairs; sizes come from the CLI.
CASES = (
    ("dkq", {"kind": "dkq_point_wake", "k": 2}),
    ("er_spanner", {"kind": "er_single_wake", "avg_degree": 8.0}),
)

DEFAULT_SIZES = (512,)
DEFAULT_TRIALS = 6


def _with_spanner(name: str) -> bool:
    return name == "er_spanner"


def _legacy_trial(spec: dict, n: int, with_spanner: bool) -> None:
    """One trial of the pre-cache setup path: rebuild everything."""
    graph, awake = build_workload(dict(spec))(n)
    awake_distance(graph, awake)
    if with_spanner:
        greedy_spanner(graph, SPANNER_K)


def _warm_trial(
    spec: dict, n: int, store: TopologyStore, with_spanner: bool,
    stats: dict,
) -> None:
    """One trial of the compiled path: fetch, plus the memoized spanner.
    ``stats`` counts the fetch's tier."""
    topo = compiled_topology(dict(spec), n, store=store, stats=stats)
    if with_spanner:
        cached_spanner(
            topo.graph(),
            "greedy",
            {"k": SPANNER_K},
            lambda g: greedy_spanner(g, SPANNER_K),
        )


def run_case(
    name: str, spec: dict, n: int, trials: int, store_root: Path
) -> dict:
    with_spanner = _with_spanner(name)
    store_dir = store_root / f"{name}-{n}"

    # Legacy: rebuild per trial (what _execute_cell did before the
    # compiled-topology layer).
    t0 = time.perf_counter()
    for _ in range(trials):
        _legacy_trial(spec, n, with_spanner)
    legacy_s = time.perf_counter() - t0

    # Cold: one fetch-or-build into an empty store (build + write).
    clear_memory_cache()
    store = TopologyStore(store_dir)
    stats: dict = {}
    t0 = time.perf_counter()
    _warm_trial(spec, n, store, with_spanner, stats)
    cold_s = time.perf_counter() - t0
    assert stats == {"build": 1}, stats

    # Warm: T fetches against the populated store with a cold LRU —
    # one disk hit, then T-1 in-process hits (the multi-trial cell
    # shape).
    clear_memory_cache()
    store = TopologyStore(store_dir)
    stats = {}
    t0 = time.perf_counter()
    for _ in range(trials):
        _warm_trial(spec, n, store, with_spanner, stats)
    warm_s = time.perf_counter() - t0
    assert stats.get("build", 0) == 0, stats
    assert stats["hit_disk"] == 1, stats

    return {
        "workload": name,
        "n": n,
        "trials": trials,
        "legacy_s": legacy_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": legacy_s / warm_s if warm_s > 0 else 0.0,
    }


def run_bench(
    sizes=DEFAULT_SIZES, trials: int = DEFAULT_TRIALS, quiet: bool = False
) -> dict:
    cases = []
    store_root = Path(tempfile.mkdtemp(prefix="repro-topo-bench-"))
    try:
        for name, spec in CASES:
            for n in sizes:
                rec = run_case(name, spec, n, trials, store_root)
                cases.append(rec)
                if not quiet:
                    print(
                        f"{name:12s} n={n:5d} trials={trials}  "
                        f"legacy {rec['legacy_s']*1e3:8.1f} ms  "
                        f"cold {rec['cold_s']*1e3:7.1f} ms  "
                        f"warm {rec['warm_s']*1e3:7.1f} ms  "
                        f"({rec['warm_speedup']:6.1f}x warm speedup)"
                    )
    finally:
        clear_memory_cache()
        shutil.rmtree(store_root, ignore_errors=True)
    return bench_envelope(PROFILE, trials=trials, cases=cases)


# ----------------------------------------------------------------------
# pytest hook: a tiny smoke run so `pytest benchmarks/` covers the bench
# ----------------------------------------------------------------------
def test_topology_bench_smoke():
    payload = run_bench(sizes=(64,), trials=2, quiet=True)
    check_bench(payload)
    for case in payload["cases"]:
        assert case["legacy_s"] > 0
        assert case["warm_s"] > 0
        assert case["warm_speedup"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_topology.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="network sizes to measure (default: %(default)s)",
    )
    parser.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS,
        help="trials per cell (the T in T-x-rebuild; default: 6)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: tiny sizes, schema validation, no baseline "
        "overwrite (writes to --out only if given explicitly)",
    )
    args = parser.parse_args(argv)

    if args.check:
        payload = run_bench(sizes=(64,), trials=2)
        # --check writes only to an --out given explicitly
        out = None if args.out == parser.get_default("out") else args.out
        if emit_bench(payload, out):
            return 1
        print("bench check ok")
        return 0

    payload = run_bench(sizes=tuple(args.sizes), trials=args.trials)
    return emit_bench(payload, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
