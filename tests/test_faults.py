"""Fault-injection tests: how the Table-1 algorithms degrade when the
paper's error-free-channel assumption is violated."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.child_encoding import ChildEncodingAdvice
from repro.core.flooding import Flooding
from repro.errors import SimulationError
from repro.graphs.generators import complete_graph, connected_erdos_renyi, path_graph
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.faults import (
    BernoulliDrops,
    FaultyAdversary,
    NoDrops,
    TargetedDrops,
)
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace


def run_faulty(
    graph, algo, awake, drops, seed=0, knowledge=Knowledge.KT0,
    engine="async",
):
    setup = make_setup(graph, knowledge=knowledge, bandwidth="CONGEST", seed=seed)
    adversary = FaultyAdversary(
        schedule=WakeSchedule.all_at_once(awake),
        delays=UnitDelay(),
        drops=drops,
    )
    return run_wakeup(
        setup, algo, adversary, engine=engine, seed=seed + 1,
        require_all_awake=False,
    )


class TestDropStrategies:
    def test_no_drops_is_default(self):
        adversary = FaultyAdversary(schedule=WakeSchedule.singleton(0))
        assert isinstance(adversary.drops, NoDrops)
        assert not adversary.drops.drops(0, 1, 0)

    def test_bernoulli_rate(self):
        d = BernoulliDrops(0.3, seed=1)
        hits = sum(d.drops(0, 1, i) for i in range(4000))
        assert 0.25 < hits / 4000 < 0.35

    def test_bernoulli_deterministic(self):
        d1 = BernoulliDrops(0.5, seed=2)
        d2 = BernoulliDrops(0.5, seed=2)
        assert [d1.drops(0, 1, i) for i in range(50)] == [
            d2.drops(0, 1, i) for i in range(50)
        ]

    def test_bernoulli_replays_across_processes(self):
        """The drop pattern is a function of (seed, edge, seq) alone:
        Python's per-process string-hash salt must not leak into it."""
        code = (
            "from repro.sim.faults import BernoulliDrops\n"
            "d = BernoulliDrops(0.5, seed=2)\n"
            "print(''.join('x' if d.drops('a', (1, 'b'), i) else '.'"
            " for i in range(40)))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        patterns = set()
        for hashseed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, timeout=60, check=True,
            )
            patterns.add(out.stdout.strip())
        assert len(patterns) == 1
        (pattern,) = patterns
        assert "x" in pattern and "." in pattern

    def test_bernoulli_invalid_p(self):
        with pytest.raises(SimulationError):
            BernoulliDrops(1.0)
        with pytest.raises(SimulationError):
            BernoulliDrops(-0.1)

    def test_targeted(self):
        d = TargetedDrops([(0, 1)])
        assert d.drops(0, 1, 7)
        assert not d.drops(1, 0, 7)


class TestRobustnessContrast:
    def test_flooding_survives_moderate_loss_on_dense_graphs(self):
        """Redundancy pays: on K_n, each node has n-1 wake chances."""
        g = complete_graph(30)
        r = run_faulty(
            g, Flooding(), [0], BernoulliDrops(0.3, seed=3), seed=1
        )
        assert r.all_awake

    def test_cen_is_single_path_fragile(self):
        """One lost probe strands a subtree: the price of message-
        optimality."""
        g = path_graph(12)
        # Drop the tree edge between 5 and 6 in both directions.
        r = run_faulty(
            g,
            ChildEncodingAdvice(),
            [0],
            TargetedDrops([(5, 6), (6, 5)]),
            seed=1,
        )
        assert not r.all_awake
        assert all(v in r.wake_time for v in range(6))
        assert all(v not in r.wake_time for v in range(6, 12))

    def test_flooding_survives_a_targeted_edge_on_redundant_graphs(self):
        g = connected_erdos_renyi(30, 0.3, seed=5)
        edges = list(g.edges())
        r = run_faulty(
            g, Flooding(), [0],
            TargetedDrops([edges[0], tuple(reversed(edges[0]))]),
            seed=2,
        )
        assert r.all_awake

    def test_lost_messages_still_counted_as_sent(self):
        """Message complexity charges the sender (the radio transmitted
        whether or not the packet arrived)."""
        g = path_graph(4)
        lossless = run_faulty(g, Flooding(), [0], NoDrops(), seed=3)
        # Drop everything out of node 1 towards 2: wave stops there.
        lossy = run_faulty(
            g, Flooding(), [0], TargetedDrops([(1, 2)]), seed=3
        )
        assert not lossy.all_awake
        # sends happened for the dropped edge too
        assert lossy.metrics.sent_by[1] == 2

    def test_high_loss_defeats_even_flooding_on_a_path(self):
        g = path_graph(25)
        r = run_faulty(
            g, Flooding(), [0], BernoulliDrops(0.6, seed=9), seed=4
        )
        # A path has zero redundancy: some prefix survives, the rest
        # stays asleep with overwhelming probability.
        assert not r.all_awake


class TestSyncEngineDrops:
    """The synchronous engine must honour drop strategies too
    (regression: it used to ignore ``adversary.drops`` entirely, so
    every fault-injection result silently differed between engines)."""

    def test_targeted_cut_stops_the_wave(self):
        g = path_graph(12)
        r = run_faulty(
            g, Flooding(), [0], TargetedDrops([(5, 6)]), seed=1,
            engine="sync",
        )
        assert not r.all_awake
        assert all(v in r.wake_time for v in range(6))
        assert all(v not in r.wake_time for v in range(6, 12))

    def test_dropped_messages_charged_to_sender(self):
        g = path_graph(4)
        r = run_faulty(
            g, Flooding(), [0], TargetedDrops([(1, 2)]), seed=3,
            engine="sync",
        )
        assert not r.all_awake
        # Node 1 transmitted on both its ports even though the 1->2
        # packet was lost: message complexity charges the sender.
        assert r.metrics.sent_by[1] == 2
        # ...but the loss is real: node 2 never received anything.
        assert r.metrics.received_by[2] == 0

    def test_bernoulli_loss_observable_on_sync_engine(self):
        g = path_graph(25)
        r = run_faulty(
            g, Flooding(), [0], BernoulliDrops(0.6, seed=9), seed=4,
            engine="sync",
        )
        assert not r.all_awake


class TestCrossEngineNoDropConformance:
    """Structural no-drop configurations, and a traced run, must be
    indistinguishable from a plain untraced
    :class:`~repro.sim.adversary.Adversary` run — on both engines, to
    the last bit of every metric.  Every run takes the one send path
    (``Engine._emit``); this pins that its drop and trace hooks change
    nothing a drop-free run counts."""

    @pytest.mark.parametrize("engine", ["async", "sync"])
    @pytest.mark.parametrize(
        "drops", [None, NoDrops(), BernoulliDrops(0.0, seed=5), "traced"]
    )
    def test_metrics_bit_identical(self, engine, drops):
        g = connected_erdos_renyi(24, 0.25, seed=7)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=7)
        schedule = WakeSchedule.all_at_once([0, 5])
        trace = Trace() if drops == "traced" else None
        if drops is None or trace is not None:
            adversary = Adversary(schedule=schedule, delays=UnitDelay())
        else:
            adversary = FaultyAdversary(
                schedule=schedule, delays=UnitDelay(), drops=drops
            )
        r = run_wakeup(
            setup, Flooding(), adversary, engine=engine, seed=11,
            trace=trace,
        )
        if trace is not None:
            assert len(trace.sends()) == r.messages
            assert len(trace.deliveries()) == r.messages
        baseline = run_wakeup(
            setup,
            Flooding(),
            Adversary(schedule=schedule, delays=UnitDelay()),
            engine=engine,
            seed=11,
        )
        a, b = r.metrics, baseline.metrics
        assert a.messages_total == b.messages_total
        assert a.bits_total == b.bits_total
        assert a.max_message_bits == b.max_message_bits
        assert a.sent_by == b.sent_by
        assert a.received_by == b.received_by
        assert a.edge_messages == b.edge_messages
        assert a.wake_time == b.wake_time
        assert a.wake_cause == b.wake_cause
        assert a.first_wake == b.first_wake
        assert a.last_activity == b.last_activity
