"""Table 1, row "Corollary 2" — the k = ceil(log n) instantiation of
Theorem 6: O(rho log^2 n) time, O(n log^2 n) messages, O(log^2 n)
advice.  All three measures optimal up to polylog factors.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.analysis.fitting import fit_power_law_deloged
from repro.analysis.report import print_table
from repro.core.spanner_advice import LogSpannerAdvice
from repro.experiments.parallel import ParallelSweepExecutor
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.workloads import er_single_wake
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def cor2_sweep(bench_sizes):
    # Executor-routed (see bench_theorem3.py for the knobs).
    rows, _ = parallel_sweep(
        "log-spanner-advice",
        {"kind": "er_single_wake", "avg_degree": 8.0, "seed": 29},
        sizes=bench_sizes,
        executor=ParallelSweepExecutor(
            workers=int(os.environ.get("REPRO_BENCH_WORKERS", "0")),
            use_cache=False,
        ),
        knowledge="KT0",
        bandwidth="CONGEST",
        trials=3,
        seed=8,
    )
    return rows


def test_corollary2_near_linear_messages(cor2_sweep):
    rows = [
        {
            **r.as_dict(),
            "nlog2": r.n * math.log2(r.n) ** 2,
            "ratio": r.messages / (r.n * math.log2(r.n) ** 2),
        }
        for r in cor2_sweep
    ]
    print_table(rows, title="Corollary 2: log-spanner advice")
    from repro.analysis.fitting import fit_power_law

    raw = fit_power_law(
        [r.n for r in cor2_sweep], [r.messages for r in cor2_sweep]
    )
    print(f"messages ~ n^{raw.exponent:.3f} raw (r^2={raw.r_squared:.3f})")
    # O(n log^2 n): the raw exponent sits just above 1 and decisively
    # below the flooding exponent on these dense inputs.
    assert 0.9 <= raw.exponent <= 1.4
    # and the n log^2 n normalization stays bounded across the sweep:
    ratios = [r.messages / (r.n * math.log2(r.n) ** 2) for r in cor2_sweep]
    assert max(ratios) <= 4 * min(ratios)


def test_corollary2_polylog_advice(cor2_sweep):
    for r in cor2_sweep:
        assert r.advice_avg_bits <= 4 * math.log2(r.n) ** 2


def test_corollary2_time_rho_polylog(cor2_sweep):
    for r in cor2_sweep:
        assert r.time_all_awake <= 4 * max(1, r.rho_awk) * math.log2(r.n) ** 2


def test_corollary2_dominates_table_row(cor2_sweep):
    """Corollary 2's selling point vs Corollary 1: polylog max advice
    (vs O(n)) at polylog multiplicative cost in time and messages."""
    from repro.core.fip06 import Fip06TreeAdvice

    n = 256
    factory = er_single_wake(avg_degree=8.0, seed=29)
    graph, awake = factory(n)
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    cor2 = run_wakeup(setup, LogSpannerAdvice(), adversary, engine="async", seed=2)
    cor1 = run_wakeup(setup, Fip06TreeAdvice(), adversary, engine="async", seed=2)
    print(
        f"\nn={n}: cor2 advice max {cor2.advice_max_bits}b, msgs {cor2.messages} | "
        f"cor1 advice max {cor1.advice_max_bits}b, msgs {cor1.messages}"
    )
    assert cor2.messages <= cor1.messages * math.log2(n) ** 2


def test_corollary2_representative_run(benchmark, profile_phases):
    factory = er_single_wake(avg_degree=8.0, seed=29)
    graph, awake = factory(256)
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())

    def run():
        return run_wakeup(
            setup, LogSpannerAdvice(), adversary, engine="async", seed=5
        )

    result = benchmark(run)
    assert result.all_awake
    # Per-phase profile (repro.obs): advice decoding vs the probe/next
    # wake-up traffic, into the pytest-benchmark results JSON.
    profile = profile_phases(run)
    benchmark.extra_info["phases"] = profile
    print_table(
        list(profile.values()), title="Corollary 2 phase profile (n=256)"
    )
    for phase in LogSpannerAdvice.phases:
        assert phase in profile, f"missing declared phase {phase!r}"
    # Decoding is pure computation; the wake wave carries the messages.
    assert profile["advice-decode"]["messages"] == 0
    assert profile["spanner-probe"]["messages"] == result.messages
