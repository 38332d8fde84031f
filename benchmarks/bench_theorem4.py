"""Table 1, row "Theorem 4" — sync KT1 LOCAL FastWakeUp.

Paper claims: 10 * rho_awk rounds; O(n^{3/2} sqrt(log n)) messages
w.h.p.

Reproduction: (a) message sweep with everyone awake (the message-heavy
regime the n^{3/2} bound targets), fitting the exponent after stripping
sqrt(log n); (b) round-count check against 10 * rho_awk across
single-source workloads of growing awake distance.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import fit_power_law_deloged
from repro.analysis.report import print_table
from repro.core.fast_wakeup import FastWakeUp
from repro.experiments.sweeps import parallel_sweep
from repro.graphs.generators import grid_graph
from repro.graphs.traversal import awake_distance
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


@pytest.fixture(scope="module")
def message_sweep(small_bench_sizes):
    sizes = [n * 2 for n in small_bench_sizes]  # 64..256
    rows, _ = parallel_sweep(
        "fast-wakeup",
        {"kind": "dense_er_all_awake", "p": 0.5, "seed": 3},
        sizes=sizes,
        engine="sync",
        knowledge="KT1",
        bandwidth="LOCAL",
        trials=3,
        seed=5,
    )
    return rows


def test_theorem4_message_shape(message_sweep):
    rows = [
        {
            **r.as_dict(),
            "bound": r.n**1.5 * math.sqrt(math.log(r.n)),
            "ratio": r.messages / (r.n**1.5 * math.sqrt(math.log(r.n))),
        }
        for r in message_sweep
    ]
    print_table(rows, title="Theorem 4: FastWakeUp messages (all awake, dense)")
    ns = [r.n for r in message_sweep]
    fit = fit_power_law_deloged(
        ns, [r.messages for r in message_sweep], 0.5
    )
    print(f"messages ~ n^{fit.exponent:.3f} * sqrt(log n) (r^2={fit.r_squared:.3f})")
    # The n^{3/2} regime: well below the naive n^2 broadcast, at or
    # under 3/2 (sparser-than-worst-case inputs may fit lower).
    assert 1.0 <= fit.exponent <= 1.7


def test_theorem4_round_bound():
    rows = []
    for side in (6, 10, 14):
        g = grid_graph(side, side)
        rho = awake_distance(g, [0])
        setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=2)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, FastWakeUp(), adversary, engine="sync", seed=3)
        rows.append(
            {
                "n": g.num_vertices,
                "rho": rho,
                "rounds": r.time_all_awake,
                "10rho": 10 * rho,
                "ratio": r.time_all_awake / rho,
            }
        )
        assert r.all_awake
        assert r.time_all_awake <= 10 * rho + 10
    print_table(rows, title="Theorem 4: rounds vs 10 * rho_awk (grid, corner wake)")


def test_theorem4_beats_naive_broadcast_on_dense():
    """All-awake K-dense graph: FastWakeUp's capture mechanism beats
    everyone-broadcasts."""
    from repro.graphs.generators import complete_graph

    n = 150
    g = complete_graph(n)
    setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
    adversary = Adversary(
        WakeSchedule.all_at_once(list(g.vertices())), UnitDelay()
    )
    r = run_wakeup(setup, FastWakeUp(), adversary, engine="sync", seed=7)
    naive = n * (n - 1)
    print(f"\nK_{n} all awake: fast-wakeup={r.messages} vs naive={naive}")
    assert r.messages < naive


def test_theorem4_representative_run(benchmark):
    g = grid_graph(12, 12)
    setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
    adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())

    def run():
        return run_wakeup(setup, FastWakeUp(), adversary, engine="sync", seed=5)

    result = benchmark(run)
    assert result.all_awake
