"""Table 1, row "Corollary 1" ([FIP06]) — BFS-tree advice, async KT0
CONGEST.

Paper claims: O(D) time, O(n) messages, max advice O(n), average advice
O(log n).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import print_table
from repro.core.fip06 import Fip06TreeAdvice
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.generators import grid_graph, star_graph
from repro.graphs.traversal import diameter
from repro.graphs.workloads import er_single_wake
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def cor1_sweep(bench_sizes):
    rows, _ = parallel_sweep(
        "fip06-tree-advice",
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 13},
        sizes=bench_sizes,
        knowledge="KT0",
        bandwidth="CONGEST",
        trials=3,
        seed=2,
    )
    return rows


def test_corollary1_linear_messages(cor1_sweep):
    rows = [
        {**r.as_dict(), "msgs_per_n": r.messages / r.n} for r in cor1_sweep
    ]
    print_table(rows, title="Corollary 1: FIP06 tree advice (async KT0 CONGEST)")
    fit = fit_power_law(
        [r.n for r in cor1_sweep], [r.messages for r in cor1_sweep]
    )
    print(f"messages ~ n^{fit.exponent:.3f} (r^2={fit.r_squared:.3f})")
    assert 0.9 <= fit.exponent <= 1.1
    for r in cor1_sweep:
        assert r.messages <= 2 * (r.n - 1)


def test_corollary1_advice_lengths(cor1_sweep):
    for r in cor1_sweep:
        assert r.advice_avg_bits <= 8 * math.log2(r.n)
        assert r.advice_max_bits <= r.n + 2


def test_corollary1_max_advice_hits_linear_on_stars():
    """The O(n) max-advice bound is tight on a star: the center's
    bitmap costs n-1 bits."""
    rows = []
    for n in (64, 128, 256):
        g = star_graph(n)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        advice = Fip06TreeAdvice().compute_advice(setup)
        rows.append(
            {"n": n, "adv_max": advice.max_bits, "adv_avg": advice.average_bits}
        )
        assert advice.max_bits >= n - 1
    print_table(rows, title="Corollary 1: star worst case (max advice ~ n)")


def test_corollary1_time_order_diameter():
    rows = []
    for side in (8, 12, 16):
        g = grid_graph(side, side)
        d = diameter(g)
        setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=3)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, Fip06TreeAdvice(), adversary, engine="async", seed=2)
        rows.append({"n": g.num_vertices, "D": d, "time": r.time_all_awake})
        assert r.time_all_awake <= 2 * d + 1
    print_table(rows, title="Corollary 1: time vs diameter")


def test_corollary1_representative_run(benchmark):
    factory = er_single_wake(avg_degree=6.0, seed=13)
    graph, awake = factory(256)
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())

    def run():
        return run_wakeup(
            setup, Fip06TreeAdvice(), adversary, engine="async", seed=5
        )

    result = benchmark(run)
    assert result.all_awake
