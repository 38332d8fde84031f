"""Tests for the post-hoc execution validator and the disconnected-graph
wake-up semantics it encodes."""

import pytest

from repro.analysis.validate import validate_result
from repro.core.dfs_wakeup import DfsWakeUp
from repro.core.flooding import Flooding
from repro.errors import WakeUpFailure
from repro.graphs.generators import (
    connected_erdos_renyi,
    cycle_graph,
    path_graph,
)
from repro.graphs.graph import Graph
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.runner import run_wakeup


def two_components():
    """Two disjoint 4-cycles: {0..3} and {10..13}."""
    g = Graph()
    for base in (0, 10):
        for i in range(4):
            g.add_edge(base + i, base + (i + 1) % 4)
    return g


class TestValidatorOnHonestRuns:
    def test_clean_flooding_run(self):
        g = connected_erdos_renyi(30, 0.15, seed=1)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.random_subset(g, 3, seed=2)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async",
        )
        assert validate_result(r, setup, schedule.times(), min_delay=1.0) == []

    def test_clean_dfs_run_random_delays(self):
        g = connected_erdos_renyi(30, 0.15, seed=3)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        schedule = WakeSchedule.random_subset(g, 4, seed=5)
        r = run_wakeup(
            setup, DfsWakeUp(),
            Adversary(schedule, UniformRandomDelay(seed=7, lo=0.3)),
            engine="async",
        )
        # delays are at least 0.3 per hop
        assert validate_result(r, setup, schedule.times(), min_delay=0.3) == []

    def test_sync_run(self):
        g = cycle_graph(10)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="sync",
        )
        assert validate_result(r, setup, schedule.times(), min_delay=1.0) == []


class TestValidatorCatchesViolations:
    def _run(self):
        g = path_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async",
        )
        return g, setup, schedule, r

    def test_causal_violation_detected(self):
        g, setup, schedule, r = self._run()
        r.wake_time[5] = 0.5  # impossible: 5 hops away
        violations = validate_result(
            r, setup, schedule.times(), min_delay=1.0
        )
        assert any("causal bound" in v for v in violations)

    def test_message_count_mismatch_detected(self):
        g, setup, schedule, r = self._run()
        r.messages = r.messages + 5  # forge the headline count
        violations = validate_result(r, setup, schedule.times())
        assert any("metrics total" in v for v in violations)

    def test_delivery_of_unsent_seq_detected(self):
        g = path_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async", record_trace=True,
        )
        assert validate_result(r, setup, schedule.times()) == []
        msg = r.trace.deliveries()[-1]
        r.trace.deliver(msg.sent_at + 1.0, msg._replace(seq=10_000))
        violations = validate_result(r, setup, schedule.times())
        assert "delivered message seq 10000 was never sent" in violations

    def test_missing_nodes_detected(self):
        g, setup, schedule, r = self._run()
        del r.wake_time[5]
        violations = validate_result(r, setup, schedule.times())
        assert any("never woke" in v for v in violations)

    def test_ghost_wake_detected(self):
        g = two_components()
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async", require_all_awake=False,
        )
        r.wake_time[10] = 3.0  # forged: other component
        violations = validate_result(
            r, setup, schedule.times(), expect_all=False
        )
        assert any("unreachable" in v for v in violations)

    def test_unknown_scheduled_vertex_reported(self):
        g, setup, schedule, r = self._run()
        violations = validate_result(r, setup, {99: 0.0}, expect_all=False)
        assert any("unknown vertex" in v for v in violations)


class TestDisconnectedSemantics:
    """Wake-up on a disconnected graph reaches exactly the components
    the adversary touches (footnote 6 of the paper allows disconnected
    lower-bound graphs for the same reason)."""

    def test_untouched_component_stays_asleep(self):
        g = two_components()
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        with pytest.raises(WakeUpFailure) as exc:
            run_wakeup(
                setup, Flooding(), Adversary(schedule, UnitDelay()),
                engine="async",
            )
        assert exc.value.asleep == frozenset({10, 11, 12, 13})

    def test_per_component_wakes_validate_clean(self):
        g = two_components()
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.singleton(0)
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async", require_all_awake=False,
        )
        assert set(r.wake_time) == {0, 1, 2, 3}
        assert validate_result(
            r, setup, schedule.times(), expect_all=True, min_delay=1.0
        ) == []  # "all" means all *reachable*

    def test_waking_both_components(self):
        g = two_components()
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        schedule = WakeSchedule.all_at_once([0, 10])
        r = run_wakeup(
            setup, Flooding(), Adversary(schedule, UnitDelay()),
            engine="async",
        )
        assert r.all_awake
