"""Table 1, row "Theorem 3" — async KT1 LOCAL ranked-DFS wake-up.

Paper claim: time and message complexity O(n log n) w.h.p.

Reproduction: sweep n on sparse connected workloads with adversarially
many staggered wake-ups; fit messages/log(n) and time/log(n) to a power
law in n and check the exponent is ~1 (i.e. n·log n overall), and that
DFS beats flooding on message count for dense graphs.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.analysis.fitting import fit_power_law_deloged
from repro.analysis.report import print_table
from repro.core.dfs_wakeup import DfsWakeUp
from repro.core.flooding import Flooding
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.generators import complete_graph
from repro.graphs.workloads import er_fraction_wake
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UniformRandomDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def dfs_sweep(bench_sizes):
    # Routed through the parallel executor; REPRO_BENCH_WORKERS>1 fans
    # the 12 cells across processes, the default runs them inline (the
    # two paths are conformant — tests/test_parallel_executor.py).
    rows, _ = parallel_sweep(
        "dfs-rank",
        {"kind": "er_fraction_wake", "avg_degree": 6.0, "fraction": 0.2,
         "seed": 11},
        sizes=bench_sizes,
        executor=ParallelSweepExecutor(
            workers=int(os.environ.get("REPRO_BENCH_WORKERS", "0")),
            use_cache=False,
        ),
        knowledge="KT1",
        bandwidth="LOCAL",
        trials=3,
        seed=7,
        delay={"kind": "uniform", "seed": 5},
    )
    return rows


def test_theorem3_message_shape(dfs_sweep):
    rows = [
        {
            **r.as_dict(),
            "n_log_n": r.n * math.log(r.n),
            "msg_per_nlogn": r.messages / (r.n * math.log(r.n)),
        }
        for r in dfs_sweep
    ]
    print_table(rows, title="Theorem 3: ranked-DFS wake-up (async KT1 LOCAL)")
    ns = [r.n for r in dfs_sweep]
    fit = fit_power_law_deloged(ns, [r.messages for r in dfs_sweep], 1.0)
    print(f"messages ~ n^{fit.exponent:.3f} * log n (r^2={fit.r_squared:.3f})")
    assert 0.75 <= fit.exponent <= 1.25


def test_theorem3_time_shape(dfs_sweep):
    ns = [r.n for r in dfs_sweep]
    fit = fit_power_law_deloged(ns, [max(1.0, r.time) for r in dfs_sweep], 1.0)
    print(f"time ~ n^{fit.exponent:.3f} * log n (r^2={fit.r_squared:.3f})")
    # DFS time is Theta(n)-ish (a token walks the graph): exponent ~1,
    # comfortably within the O(n log n) claim.
    assert fit.exponent <= 1.25


def test_theorem3_beats_flooding_on_dense_graphs():
    """Who-wins check: on K_n with many wake-ups, DFS << flooding."""
    n = 128
    g = complete_graph(n)
    setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
    schedule = WakeSchedule.random_subset(g, n // 4, seed=3)
    adversary = Adversary(schedule, UniformRandomDelay(seed=2))
    dfs = run_wakeup(setup, DfsWakeUp(), adversary, engine="async", seed=4)
    flood = run_wakeup(setup, Flooding(), adversary, engine="async", seed=4)
    print(
        f"\nK_{n}, {n // 4} adversarial wake-ups: "
        f"dfs={dfs.messages} msgs vs flooding={flood.messages} msgs "
        f"({flood.messages / dfs.messages:.1f}x)"
    )
    assert dfs.messages * 5 < flood.messages


def test_theorem3_representative_run(benchmark, profile_phases):
    g_factory = er_fraction_wake(avg_degree=6.0, fraction=0.2, seed=11)
    graph, awake = g_factory(256)
    setup = make_setup(graph, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
    adversary = Adversary(
        WakeSchedule.all_at_once(awake), UniformRandomDelay(seed=5)
    )

    def run():
        return run_wakeup(setup, DfsWakeUp(), adversary, engine="async", seed=9)

    result = benchmark(run)
    assert result.all_awake
    # Per-phase profile (repro.obs): where the run's time and messages
    # went, into the pytest-benchmark results JSON.
    profile = profile_phases(run)
    benchmark.extra_info["phases"] = profile
    print_table(
        list(profile.values()), title="Theorem 3 phase profile (n=256)"
    )
    for phase in DfsWakeUp.phases:
        assert phase in profile, f"missing declared phase {phase!r}"
    # Every DFS message is attributable to the token machinery.
    assert profile["dfs-token"]["messages"] == result.messages
