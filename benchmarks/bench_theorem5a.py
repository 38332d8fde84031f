"""Table 1, row "Theorem 5(A)" — sqrt-threshold advice, async KT0
CONGEST.

Paper claims: O(D) time, O(n^{3/2}) messages, max advice
O(sqrt(n) log n), average advice O(log n).
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.report import print_table
from repro.core.sqrt_advice import SqrtThresholdAdvice
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.generators import caterpillar_graph
from repro.graphs.workloads import er_single_wake
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def t5a_sweep(bench_sizes):
    rows, _ = parallel_sweep(
        "sqrt-threshold-advice",
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 17},
        sizes=bench_sizes,
        knowledge="KT0",
        bandwidth="CONGEST",
        trials=3,
        seed=4,
    )
    return rows


def test_theorem5a_bounds(t5a_sweep):
    rows = [
        {
            **r.as_dict(),
            "msg_bound": r.n**1.5,
            "adv_bound": math.isqrt(r.n) * math.log2(r.n),
        }
        for r in t5a_sweep
    ]
    print_table(rows, title="Theorem 5A: sqrt-threshold advice")
    for r in t5a_sweep:
        assert r.messages <= 2 * r.n**1.5
        assert r.advice_max_bits <= 4 * math.isqrt(r.n) * math.log2(r.n) + 16
        assert r.advice_avg_bits <= 8 * math.log2(r.n)
        assert r.time_all_awake <= 3 * r.rho_awk + 3


def test_theorem5a_max_advice_capped_below_cor1():
    """On high-tree-degree workloads 5A's max advice is polynomially
    below Corollary 1's (that is its whole point)."""
    from repro.core.fip06 import Fip06TreeAdvice

    g = caterpillar_graph(4, 100)  # spine degrees ~100
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
    a_5a = SqrtThresholdAdvice().compute_advice(setup)
    a_c1 = Fip06TreeAdvice().compute_advice(setup)
    print(
        f"\ncaterpillar n={g.num_vertices}: 5A max advice {a_5a.max_bits}b "
        f"vs Cor1 {a_c1.max_bits}b"
    )
    assert a_5a.max_bits < a_c1.max_bits


def test_theorem5a_message_blowup_bounded_by_high_degree_count():
    """Messages exceed 2(n-1) only by the high-degree broadcasts."""
    g = caterpillar_graph(6, 30)
    n = g.num_vertices
    setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
    r = run_wakeup(
        setup, SqrtThresholdAdvice(), adversary, engine="async", seed=2
    )
    # <= 6 spine nodes broadcast (threshold sqrt(186) ~ 13 < 31).
    assert r.messages <= 2 * n + 6 * g.max_degree()


def test_theorem5a_representative_run(benchmark):
    factory = er_single_wake(avg_degree=6.0, seed=17)
    graph, awake = factory(256)
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())

    def run():
        return run_wakeup(
            setup, SqrtThresholdAdvice(), adversary, engine="async", seed=5
        )

    result = benchmark(run)
    assert result.all_awake
