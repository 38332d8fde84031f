"""Tests for the Trace event log."""

import pytest

from repro.core.flooding import Flooding
from repro.graphs.generators import cycle_graph, path_graph
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.messages import Message
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace


def _msg(src, dst, seq=0):
    return Message(
        src=src, dst=dst, dst_port=1, src_port=1, payload=("x",),
        bits=8, sent_at=0.0, seq=seq,
    )


class TestManualRecording:
    def test_event_ordering_preserved(self):
        t = Trace()
        t.wake(0.0, "a", "adversary")
        t.send(0.0, _msg("a", "b"))
        t.deliver(1.0, _msg("a", "b"))
        kinds = [e.kind for e in t.events]
        assert kinds == ["wake", "send", "deliver"]
        assert len(t) == 3

    def test_accessors(self):
        t = Trace()
        t.send(0.0, _msg("a", "b", seq=0))
        t.send(0.5, _msg("b", "a", seq=1))
        t.deliver(1.0, _msg("a", "b", seq=0))
        t.wake(1.0, "b", "message")
        assert len(t.sends()) == 2
        assert len(t.deliveries()) == 1
        assert t.wakes() == [(1.0, "b", "message")]

    def test_edges_used(self):
        t = Trace()
        t.send(0.0, _msg("a", "b"))
        t.send(0.0, _msg("a", "b", seq=1))
        assert t.edges_used() == {("a", "b")}

    def test_messages_between_counts_both_directions(self):
        t = Trace()
        t.send(0.0, _msg("a", "b"))
        t.send(0.0, _msg("b", "a", seq=1))
        t.send(0.0, _msg("a", "c", seq=2))
        assert t.messages_between("a", "b") == 2
        assert t.messages_between("b", "a") == 2
        assert t.messages_between("a", "c") == 1
        assert t.messages_between("b", "c") == 0


class TestRingBuffer:
    def test_maxlen_bounds_retained_events(self):
        t = Trace(maxlen=3)
        for i in range(10):
            t.send(float(i), _msg("a", "b", seq=i))
        assert len(t) == 3
        assert t.dropped == 7
        assert [m.seq for m in t.sends()] == [7, 8, 9]

    def test_unbounded_trace_never_drops(self):
        t = Trace()
        for i in range(100):
            t.send(float(i), _msg("a", "b", seq=i))
        assert len(t) == 100
        assert t.dropped == 0

    def test_invalid_maxlen_rejected(self):
        with pytest.raises(ValueError):
            Trace(maxlen=0)
        with pytest.raises(ValueError):
            Trace(maxlen=-4)

    def test_tail_marks_evicted_history(self):
        t = Trace(maxlen=2)
        t.wake(0.0, "a", "adversary")
        t.send(1.0, _msg("a", "b"))
        t.deliver(2.0, _msg("a", "b"))
        tail = t.tail()
        assert tail[0] == "... (1 earlier events not retained)"
        assert len(tail) == 3  # marker + 2 retained lines
        assert "=>" in tail[-1]  # delivery rendering

    def test_tail_count_limits_further(self):
        t = Trace()
        for i in range(5):
            t.send(float(i), _msg("a", "b", seq=i))
        tail = t.tail(2)
        assert tail[0] == "... (3 earlier events not retained)"
        assert len(tail) == 3

    def test_tail_without_eviction_has_no_marker(self):
        t = Trace(maxlen=10)
        t.wake(0.0, "a", "adversary")
        assert t.tail() == ["t=0 wake 'a' by adversary"]

    def test_engine_fills_ring_buffer(self):
        g = cycle_graph(12)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        flight = Trace(maxlen=5)
        r = run_wakeup(
            setup, Flooding(), adversary, engine="async", trace=flight
        )
        assert r.trace is flight
        assert len(flight) == 5
        assert flight.dropped > 0
        # query helpers describe the retained window only
        assert len(flight.sends()) + len(flight.deliveries()) + len(
            flight.wakes()
        ) == 5


class TestEngineIntegration:
    def test_sends_equal_deliveries_at_quiescence(self):
        g = cycle_graph(8)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(
            setup, Flooding(), adversary, engine="async", record_trace=True
        )
        assert len(r.trace.sends()) == len(r.trace.deliveries())
        assert len(r.trace.sends()) == r.messages

    def test_wake_events_match_metrics(self):
        g = path_graph(6)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(
            setup, Flooding(), adversary, engine="async", record_trace=True
        )
        trace_wakes = {v: t for t, v, _c in r.trace.wakes()}
        assert trace_wakes == r.wake_time

    def test_trace_disabled_by_default(self):
        g = path_graph(3)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(setup, Flooding(), adversary, engine="async")
        assert r.trace is None

    @pytest.mark.parametrize("engine", ["async", "sync"])
    def test_engine_messages_are_exact_message_tuples(self, engine):
        """The engine builds each message with one ``tuple.__new__``
        call; what it hands on must still be a plain Message, equal to
        one built field by field and surviving a pickle round trip."""
        import pickle

        g = cycle_graph(8)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
        r = run_wakeup(
            setup, Flooding(), adversary, engine=engine, record_trace=True
        )
        msgs = r.trace.sends() + r.trace.deliveries()
        assert msgs and all(type(m) is Message for m in msgs)
        for m in msgs:
            assert m == Message(**m._asdict())
            assert pickle.loads(pickle.dumps(m)) == m
