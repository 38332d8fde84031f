"""Table 1, row "Theorem 5(B)" — the child-encoding scheme, async KT0
CONGEST.

Paper claims: O(D log n) time, O(n) messages, max advice O(log n).
This is the paper's sweet spot: optimal messages and near-optimal time
with logarithmic advice.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import print_table
from repro.core.child_encoding import ChildEncodingAdvice
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.generators import star_graph
from repro.graphs.workloads import er_single_wake
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def t5b_sweep(bench_sizes):
    rows, _ = parallel_sweep(
        "child-encoding",
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 19},
        sizes=bench_sizes,
        knowledge="KT0",
        bandwidth="CONGEST",
        trials=3,
        seed=6,
    )
    return rows


def test_theorem5b_linear_messages(t5b_sweep):
    rows = [
        {
            **r.as_dict(),
            "msgs_per_n": r.messages / r.n,
            "log2n": math.log2(r.n),
        }
        for r in t5b_sweep
    ]
    print_table(rows, title="Theorem 5B: child-encoding scheme (CEN)")
    fit = fit_power_law(
        [r.n for r in t5b_sweep], [r.messages for r in t5b_sweep]
    )
    print(f"messages ~ n^{fit.exponent:.3f} (r^2={fit.r_squared:.3f})")
    assert 0.9 <= fit.exponent <= 1.1
    for r in t5b_sweep:
        assert r.messages <= 3 * (r.n - 1)


def test_theorem5b_logarithmic_advice(t5b_sweep):
    """Max advice stays O(log n) across the sweep — compare slopes."""
    for r in t5b_sweep:
        assert r.advice_max_bits <= 8 * math.log2(r.n) + 16
    # Advice grows sub-polynomially: quadrupling n adds only O(1) bits.
    first, last = t5b_sweep[0], t5b_sweep[-1]
    assert last.advice_max_bits - first.advice_max_bits <= 24


def test_theorem5b_time_pays_log_factor():
    """On a star, CEN discovery costs Theta(log n) rounds where Cor 1
    answers in O(1) — the scheme's time/advice trade."""
    from repro.core.fip06 import Fip06TreeAdvice

    rows = []
    for n in (65, 257, 1025):  # 2^k + 1 leaves
        g = star_graph(n)
        setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        cen = run_wakeup(
            setup, ChildEncodingAdvice(), adversary, engine="async", seed=2
        )
        fip = run_wakeup(
            setup, Fip06TreeAdvice(), adversary, engine="async", seed=2
        )
        rows.append(
            {
                "n": n,
                "cen_time": cen.time_all_awake,
                "fip06_time": fip.time_all_awake,
                "cen_adv_max": cen.advice_max_bits,
                "fip06_adv_max": fip.advice_max_bits,
            }
        )
        assert cen.time_all_awake <= 4 * math.log2(n)
        assert fip.time_all_awake <= 2
        assert cen.advice_max_bits < fip.advice_max_bits
    print_table(
        rows,
        title="Theorem 5B vs Corollary 1 on stars: log-time for log-advice",
    )


def test_theorem5b_representative_run(benchmark):
    factory = er_single_wake(avg_degree=6.0, seed=19)
    graph, awake = factory(256)
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())

    def run():
        return run_wakeup(
            setup, ChildEncodingAdvice(), adversary, engine="async", seed=5
        )

    result = benchmark(run)
    assert result.all_awake
