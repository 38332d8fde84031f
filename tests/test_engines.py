"""Tests for the asynchronous and synchronous engines: the execution
semantics of Sec 1.1/3.2 (wake-on-message, FIFO channels, delay
normalization, local clocks, determinism)."""

import gc
import weakref

import pytest

from repro.errors import ModelViolation, SimulationError, WakeUpFailure
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    DelayStrategy,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.async_engine import AsyncEngine
from repro.sim.node import NodeAlgorithm, NodeContext
from repro.sim.runner import run_wakeup
from repro.sim.sync_engine import SyncEngine
from repro.sim.trace import Trace
from repro.core.flooding import Flooding


class Recorder(NodeAlgorithm):
    """Records every callback with its context snapshot."""

    def __init__(self):
        self.events = []

    def on_wake(self, ctx):
        self.events.append(("wake", ctx.wake_cause))

    def on_message(self, ctx, port, payload):
        self.events.append(("msg", port, payload))


class ChattyOnWake(NodeAlgorithm):
    """Broadcasts a numbered burst on wake — used for FIFO tests."""

    def __init__(self, count=5):
        self.count = count

    def on_wake(self, ctx):
        for i in range(self.count):
            for p in ctx.ports:
                ctx.send(p, ("burst", i))


def _nodes(graph, factory):
    return {v: factory() for v in graph.vertices()}


class TestAsyncSemantics:
    def test_wake_on_message_calls_on_wake_first(self):
        g = path_graph(2)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        nodes = _nodes(g, ChattyOnWake)
        recorder = Recorder()
        nodes[1] = recorder
        eng = AsyncEngine(
            setup, nodes, Adversary(WakeSchedule.singleton(0), UnitDelay())
        )
        eng.run()
        assert recorder.events[0] == ("wake", "message")
        assert recorder.events[1][0] == "msg"

    def test_adversary_wake_cause(self):
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        nodes = {0: Recorder(), 1: Recorder()}
        eng = AsyncEngine(
            setup, nodes,
            Adversary(WakeSchedule.all_at_once([0, 1]), UnitDelay()),
        )
        eng.run()
        assert nodes[0].events == [("wake", "adversary")]

    def test_waking_is_permanent_and_single(self):
        g = star_graph(4)
        setup = make_setup(g, seed=1)
        nodes = _nodes(g, ChattyOnWake)
        rec = Recorder()
        nodes[0] = rec  # center receives from all leaves
        eng = AsyncEngine(
            setup, nodes,
            Adversary(WakeSchedule.all_at_once([1, 2, 3]), UnitDelay()),
        )
        eng.run()
        wake_events = [e for e in rec.events if e[0] == "wake"]
        assert len(wake_events) == 1

    def test_fifo_per_channel(self):
        """Bursts must arrive in send order even under jittery delays."""

        class Jitter(DelayStrategy):
            def delay(self, src, dst, sent_at, seq):
                # deliberately non-monotone in seq
                return 1.0 - 0.9 * ((seq * 7919) % 10) / 10.0

        g = path_graph(2)
        setup = make_setup(g, seed=1)
        rec = Recorder()
        nodes = {0: ChattyOnWake(count=10), 1: rec}
        eng = AsyncEngine(
            setup, nodes, Adversary(WakeSchedule.singleton(0), Jitter())
        )
        eng.run()
        received = [e[2][1] for e in rec.events if e[0] == "msg"]
        assert received == sorted(received)

    def test_delay_out_of_range_rejected(self):
        class BadDelay(DelayStrategy):
            def delay(self, src, dst, sent_at, seq):
                return 2.0

        g = path_graph(2)
        setup = make_setup(g, seed=1)
        eng = AsyncEngine(
            setup,
            _nodes(g, ChattyOnWake),
            Adversary(WakeSchedule.singleton(0), BadDelay()),
        )
        with pytest.raises(SimulationError):
            eng.run()

    def test_event_budget(self):
        class PingPong(NodeAlgorithm):
            def on_wake(self, ctx):
                ctx.send(1, ("ping",))

            def on_message(self, ctx, port, payload):
                ctx.send(port, ("ping",))

        g = path_graph(2)
        setup = make_setup(g, seed=1)
        eng = AsyncEngine(
            setup,
            _nodes(g, PingPong),
            Adversary(WakeSchedule.singleton(0), UnitDelay()),
            max_events=100,
        )
        with pytest.raises(SimulationError):
            eng.run()

    def test_missing_node_instance(self):
        g = path_graph(3)
        setup = make_setup(g, seed=1)
        with pytest.raises(SimulationError):
            AsyncEngine(
                setup,
                {0: Recorder()},
                Adversary(WakeSchedule.singleton(0), UnitDelay()),
            )

    def test_unknown_scheduled_vertex(self):
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        with pytest.raises(SimulationError):
            AsyncEngine(
                setup,
                _nodes(g, Recorder),
                Adversary(WakeSchedule.singleton(99), UnitDelay()),
            )

    def test_congest_violation_surfaces(self):
        class BigTalker(NodeAlgorithm):
            def on_wake(self, ctx):
                ctx.send(1, tuple(range(10_000)))

        g = path_graph(2)
        setup = make_setup(g, bandwidth="CONGEST", seed=1)
        eng = AsyncEngine(
            setup,
            _nodes(g, BigTalker),
            Adversary(WakeSchedule.singleton(0), UnitDelay()),
        )
        with pytest.raises(ModelViolation):
            eng.run()

    def test_kt0_blocks_neighbor_ids(self):
        class Cheater(NodeAlgorithm):
            def on_wake(self, ctx):
                ctx.neighbor_ids()

        g = path_graph(2)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        eng = AsyncEngine(
            setup,
            _nodes(g, Cheater),
            Adversary(WakeSchedule.singleton(0), UnitDelay()),
        )
        with pytest.raises(ModelViolation):
            eng.run()

    def test_deterministic_replay(self):
        g = cycle_graph(8)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=3)
        results = []
        for _ in range(2):
            trace = Trace()
            eng = AsyncEngine(
                setup,
                _nodes(g, ChattyOnWake),
                Adversary(
                    WakeSchedule.all_at_once([0, 4]),
                    UniformRandomDelay(seed=9),
                ),
                seed=5,
                trace=trace,
            )
            eng.run()
            results.append(
                [(e.time, e.kind, repr(e.vertex)) for e in trace.events]
            )
        assert results[0] == results[1]

    def test_time_normalization(self):
        """With unit delays, a path of length L wakes its far end at
        exactly time L."""
        g = path_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        result = run_wakeup(setup, Flooding(), adversary, engine="async")
        assert result.wake_time[5] == pytest.approx(5.0)


class TestSyncSemantics:
    def test_message_delivered_next_round(self):
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        rec = Recorder()
        nodes = {0: ChattyOnWake(count=1), 1: rec}
        eng = SyncEngine(
            setup, nodes, Adversary(WakeSchedule.singleton(0), UnitDelay())
        )
        metrics = eng.run()
        assert metrics.wake_time[1] == 1.0  # woken in round 1

    def test_fractional_wake_time_rounds_up(self):
        """A wake scheduled at t = 2.7 must land in round 3, never
        round 2 (regression: the schedule used to be floored with
        ``int(t)``, waking nodes before the adversary asked to)."""
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        nodes = {0: ChattyOnWake(count=1), 1: Recorder()}
        eng = SyncEngine(
            setup,
            nodes,
            Adversary(
                WakeSchedule({0: 2.7}), UnitDelay()
            ),
        )
        metrics = eng.run()
        assert metrics.wake_time[0] == 3.0

    def test_integer_valued_float_wake_time_unchanged(self):
        """ceil is exact for integer-valued floats: t = 2.0 stays in
        round 2."""
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        nodes = {0: ChattyOnWake(count=1), 1: Recorder()}
        eng = SyncEngine(
            setup,
            nodes,
            Adversary(WakeSchedule({0: 2.0}), UnitDelay()),
        )
        metrics = eng.run()
        assert metrics.wake_time[0] == 2.0

    def test_local_round_counts_from_own_wake(self):
        class RoundLogger(NodeAlgorithm):
            def __init__(self):
                self.rounds = []
                self._active = True

            def on_wake(self, ctx):
                pass

            def on_round(self, ctx):
                self.rounds.append(ctx.local_round)
                if len(self.rounds) >= 3:
                    self._active = False

            def wants_round(self):
                return self._active

        g = Graph([0, 1])
        g.add_edge(0, 1)
        setup = make_setup(g, seed=1)
        nodes = {0: RoundLogger(), 1: RoundLogger()}
        eng = SyncEngine(
            setup,
            nodes,
            Adversary(
                WakeSchedule.staggered([(0.0, [0]), (4.0, [1])]), UnitDelay()
            ),
        )
        eng.run()
        # Both observe local rounds 0,1,2 despite waking 4 rounds apart:
        # no global clock (footnote 4).
        assert nodes[0].rounds == [0, 1, 2]
        assert nodes[1].rounds == [0, 1, 2]

    def test_round_budget(self):
        class Forever(NodeAlgorithm):
            def wants_round(self):
                return True

        g = path_graph(2)
        setup = make_setup(g, seed=1)
        eng = SyncEngine(
            setup,
            _nodes(g, Forever),
            Adversary(WakeSchedule.singleton(0), UnitDelay()),
            max_rounds=50,
        )
        with pytest.raises(SimulationError):
            eng.run()

    def test_round_complexity_matches_flooding_depth(self):
        g = path_graph(5)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        result = run_wakeup(setup, Flooding(), adversary, engine="sync")
        assert result.time_all_awake == 4

    def test_deterministic_order(self):
        g = star_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=2)
        traces = []
        for _ in range(2):
            r = run_wakeup(
                setup,
                Flooding(),
                Adversary(WakeSchedule.all_at_once([1, 2, 3]), UnitDelay()),
                engine="sync",
                record_trace=True,
            )
            traces.append(
                [(e.time, e.kind, repr(e.vertex)) for e in r.trace.events]
            )
        assert traces[0] == traces[1]


class TestRunner:
    def test_wakeup_failure_raised(self):
        class Mute(NodeAlgorithm):
            pass

        class MuteAlgo(Flooding):
            name = "mute"

            def make_node(self, vertex, setup):
                return Mute()

        g = path_graph(3)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        with pytest.raises(WakeUpFailure) as exc:
            run_wakeup(setup, MuteAlgo(), adversary, engine="async")
        assert len(exc.value.asleep) == 2

    def test_failure_tolerated_when_requested(self):
        class Mute(NodeAlgorithm):
            pass

        class MuteAlgo(Flooding):
            name = "mute"

            def make_node(self, vertex, setup):
                return Mute()

        g = path_graph(3)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(
            setup, MuteAlgo(), adversary, engine="async",
            require_all_awake=False,
        )
        assert not r.all_awake
        assert len(r.asleep) == 2

    def test_unknown_engine(self):
        g = path_graph(2)
        setup = make_setup(g, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        with pytest.raises(SimulationError):
            run_wakeup(setup, Flooding(), adversary, engine="quantum")

    def test_model_requirements_enforced(self):
        from repro.core.dfs_wakeup import DfsWakeUp

        g = path_graph(4)
        kt0 = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        with pytest.raises(SimulationError):
            run_wakeup(kt0, DfsWakeUp(), adversary, engine="async")

    def test_congest_declaration_enforced(self):
        from repro.core.dfs_wakeup import DfsWakeUp

        g = path_graph(4)
        setup = make_setup(g, knowledge=Knowledge.KT1, bandwidth="CONGEST", seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        with pytest.raises(SimulationError):
            run_wakeup(setup, DfsWakeUp(), adversary, engine="async")

    def test_sync_algorithm_rejected_on_async_engine(self):
        from repro.core.fast_wakeup import FastWakeUp

        g = path_graph(4)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        with pytest.raises(SimulationError):
            run_wakeup(setup, FastWakeUp(), adversary, engine="async")

    @pytest.mark.parametrize("engine_cls", [AsyncEngine, SyncEngine])
    def test_finished_engine_freed_by_refcount(self, engine_cls):
        """No reference cycle runs through an engine: once the caller
        drops it, its n contexts, nodes and queues go at once, not at
        the next cyclic GC pass."""
        g = cycle_graph(16)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        gc.disable()
        try:
            eng = engine_cls(
                setup, Flooding().build_nodes(setup), adversary,
                trace=Trace(),
            )
            eng.run()
            ref = weakref.ref(eng)
            del eng
            assert ref() is None
        finally:
            gc.enable()

    def test_result_summary_keys(self):
        g = path_graph(4)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, Flooding(), adversary, engine="async")
        s = r.summary()
        assert {"n", "messages", "bits", "time"} <= set(s)


class TestAwakeTime:
    def test_total_awake_time_flooding_path(self):
        """On a unit-delay path flooded from one end, node i is awake
        for (T - i) where T is the end of activity."""
        from repro.core.flooding import Flooding
        from repro.graphs.generators import path_graph
        from repro.models.knowledge import Knowledge, make_setup
        from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
        from repro.sim.runner import run_wakeup

        g = path_graph(5)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, Flooding(), adversary, engine="async")
        total = r.metrics.total_awake_time()
        end = r.metrics.last_activity
        expected = sum(end - i for i in range(5))
        assert total == pytest.approx(expected)

    def test_zero_when_nothing_happened(self):
        from repro.sim.metrics import Metrics

        assert Metrics().total_awake_time() == 0.0


class TestLeanMetrics:
    """A lean result's metrics hold scalars, not per-vertex maps: the
    awake count, wake span and per-cause counts stay exact at any n,
    and the one measure that needs the maps raises."""

    AWAKE = 10**6

    def _lean_dict(self):
        return {
            "algorithm": "flooding", "engine": "async", "n": self.AWAKE,
            "messages": 3 * self.AWAKE, "bits": 7 * self.AWAKE,
            "max_message_bits": 7, "time": 21.5, "time_all_awake": 0.2,
            "all_awake": True, "asleep": [], "advice_max_bits": 0,
            "advice_avg_bits": 0.0, "advice_total_bits": 0,
            "metrics": {
                "first_wake": 0.1, "last_activity": 21.6,
                "events_processed": 4 * self.AWAKE,
                "awake_count": self.AWAKE,
                "wake_causes": {"message": self.AWAKE - 3, "adversary": 3},
            },
        }

    def _assert_exact(self, metrics):
        assert metrics.wake_time == {} and metrics.wake_cause == {}
        assert metrics.awake_count() == self.AWAKE
        # (0.1 + 0.2) - 0.1 != 0.2: the span is kept, not rebuilt
        # from the first and last wake times.
        assert metrics.time_all_awake == 0.2
        assert metrics.wake_cause_counts() == {
            "adversary": 3, "message": self.AWAKE - 3,
        }
        assert metrics.events_processed == 4 * self.AWAKE
        with pytest.raises(SimulationError):
            metrics.total_awake_time()

    def test_from_lean_dict_keeps_scalars(self):
        from repro.sim.runner import WakeUpResult

        back = WakeUpResult.from_lean_dict(self._lean_dict())
        self._assert_exact(back.metrics)
        assert back.time_all_awake == 0.2
        assert back.to_lean_dict() == self._lean_dict()

    def test_from_lean_dict_constructs_no_counter(self, monkeypatch):
        import collections

        from repro.sim.runner import WakeUpResult

        made = []
        original = collections.Counter.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(collections.Counter, "__init__", counting_init)
        back = WakeUpResult.from_lean_dict(self._lean_dict())
        assert made == []
        self._assert_exact(back.metrics)

    def test_pickled_lean_copy_keeps_scalars(self):
        import pickle

        from repro.sim.runner import WakeUpResult

        back = WakeUpResult.from_lean_dict(self._lean_dict())
        again = pickle.loads(pickle.dumps(back.lean()))
        self._assert_exact(again.metrics)
        assert again.summary() == back.summary()

    def test_lean_copy_of_live_run(self):
        import pickle

        g = path_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(
            WakeSchedule({0: 0.25, 5: 0.5}), UniformRandomDelay(seed=3)
        )
        live = run_wakeup(setup, Flooding(), adversary, engine="async")
        lean = pickle.loads(pickle.dumps(live.lean()))
        assert lean.metrics.wake_time == {} and lean.trace is None
        assert lean.metrics.awake_count() == live.metrics.awake_count()
        assert lean.metrics.time_all_awake == live.metrics.time_all_awake
        assert lean.metrics.wake_cause_counts() == {
            "adversary": 2, "message": 4,
        }
        assert live.metrics.total_awake_time() > 0
        with pytest.raises(SimulationError):
            lean.metrics.total_awake_time()
