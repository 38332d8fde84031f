"""Engine fuzzing: random protocols vs engine invariants.

Hypothesis generates arbitrary little protocols (random fan-out, random
payload sizes, bounded TTL so executions terminate) and random
adversaries; the tests then check the invariants the engines must
uphold regardless of the protocol:

* conservation — every sent message is delivered exactly once;
* FIFO — per directed channel, delivery order equals send order;
* causality — a delivery never precedes its send, and never lags it by
  more than the normalized delay bound τ = 1 (plus FIFO queueing);
* wake-once — each node's on_wake fires exactly once, before any of
  its on_message callbacks;
* determinism — identical seeds give identical traces.
"""

from __future__ import annotations

import pickle
import random
from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import CellSpec, cell_key
from repro.graphs.generators import complete_graph, connected_erdos_renyi
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    DelayStrategy,
    PerEdgeDelay,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.async_engine import AsyncEngine
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm
from repro.sim.runner import WakeUpResult
from repro.sim.sync_engine import SyncEngine
from repro.sim.trace import Trace

FUZZ_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class FuzzNode(NodeAlgorithm):
    """Random protocol: on wake/message, send to a random subset of
    ports with a TTL that strictly decreases, guaranteeing quiescence."""

    def __init__(self, fanout: int, ttl: int):
        self._fanout = fanout
        self._ttl = ttl
        self.wakes = 0
        self.deliveries = 0
        self.woke_before_messages = True

    def on_wake(self, ctx):
        self.wakes += 1
        if self.deliveries > 0:
            self.woke_before_messages = False
        self._emit(ctx, self._ttl)

    def on_message(self, ctx, port, payload):
        self.deliveries += 1
        if self.wakes == 0:
            self.woke_before_messages = False
        _, ttl = payload
        if ttl > 0:
            self._emit(ctx, ttl - 1)

    def _emit(self, ctx, ttl):
        if ctx.degree == 0:
            return
        count = min(self._fanout, ctx.degree)
        ports = ctx.rng.sample(range(1, ctx.degree + 1), count)
        for p in ports:
            ctx.send(p, ("fuzz", ttl))


def build_world(seed: int, n: int, fanout: int, ttl: int, wake_count: int):
    graph = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    setup = make_setup(graph, knowledge=Knowledge.KT0, seed=seed)
    nodes = {v: FuzzNode(fanout, ttl) for v in graph.vertices()}
    rng = random.Random(seed + 1)
    awake = rng.sample(list(graph.vertices()), min(wake_count, n))
    adversary = Adversary(
        WakeSchedule.all_at_once(awake), UniformRandomDelay(seed=seed)
    )
    return setup, nodes, adversary


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 20),
    fanout=st.integers(1, 3),
    ttl=st.integers(0, 3),
    wake_count=st.integers(1, 3),
)
@settings(**FUZZ_SETTINGS)
def test_conservation_and_fifo(seed, n, fanout, ttl, wake_count):
    setup, nodes, adversary = build_world(seed, n, fanout, ttl, wake_count)
    trace = Trace()
    AsyncEngine(setup, nodes, adversary, seed=seed, trace=trace).run()

    sends = trace.sends()
    deliveries = trace.deliveries()
    # conservation: every send delivered exactly once
    assert sorted(m.seq for m in sends) == sorted(m.seq for m in deliveries)

    # FIFO per directed channel
    per_channel_sent = defaultdict(list)
    per_channel_recv = defaultdict(list)
    for ev in trace.events:
        if ev.kind == "send":
            per_channel_sent[(repr(ev.detail.src), repr(ev.detail.dst))].append(
                ev.detail.seq
            )
        elif ev.kind == "deliver":
            per_channel_recv[(repr(ev.detail.src), repr(ev.detail.dst))].append(
                ev.detail.seq
            )
    for chan, sent in per_channel_sent.items():
        assert per_channel_recv[chan] == sent


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 18),
    fanout=st.integers(1, 3),
    ttl=st.integers(0, 2),
)
@settings(**FUZZ_SETTINGS)
def test_causality_bounds(seed, n, fanout, ttl):
    setup, nodes, adversary = build_world(seed, n, fanout, ttl, 2)
    trace = Trace()
    AsyncEngine(setup, nodes, adversary, seed=seed, trace=trace).run()
    send_time = {}
    for ev in trace.events:
        if ev.kind == "send":
            send_time[ev.detail.seq] = ev.time
        elif ev.kind == "deliver":
            sent = send_time[ev.detail.seq]
            assert ev.time > sent  # strictly positive delay
            # delay <= tau (=1), *exactly*: FIFO queueing may tie a
            # delivery with the bound but never push past it
            # (regression: the eps bump used to overshoot sent + 1).
            assert ev.time <= sent + 1.0


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 18),
    fanout=st.integers(1, 3),
    ttl=st.integers(1, 3),
)
@settings(**FUZZ_SETTINGS)
def test_wake_exactly_once_and_first(seed, n, fanout, ttl):
    setup, nodes, adversary = build_world(seed, n, fanout, ttl, 2)
    AsyncEngine(setup, nodes, adversary, seed=seed).run()
    for node in nodes.values():
        assert node.wakes <= 1
        assert node.woke_before_messages


@given(seed=st.integers(0, 5_000))
@settings(**FUZZ_SETTINGS)
def test_async_trace_determinism(seed):
    traces = []
    for _ in range(2):
        setup, nodes, adversary = build_world(seed, 12, 2, 2, 2)
        trace = Trace()
        AsyncEngine(setup, nodes, adversary, seed=seed, trace=trace).run()
        traces.append(
            [
                (round(e.time, 9), e.kind, repr(e.vertex))
                for e in trace.events
            ]
        )
    assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# FIFO tie-breaking under adversary-equal raw delays (regression net for
# the _FIFO_EPS bump in AsyncEngine.run / AsyncEngine._fifo_slot)
# ----------------------------------------------------------------------
class _DoubleSender(NodeAlgorithm):
    """On wake, fires two back-to-back messages down port 1."""

    def on_wake(self, ctx):
        ctx.send(1, ("first", 0))
        ctx.send(1, ("second", 1))

    def on_message(self, ctx, port, payload):
        pass


class _ConvergingDelay(DelayStrategy):
    """Later sends get smaller delays, so *raw* delivery times of
    successive messages on one channel coincide exactly — the hardest
    tie for FIFO enforcement."""

    def delay(self, src, dst, sent_at, seq):
        return max(0.05, 0.9 - 0.1 * seq)


@given(seed=st.integers(0, 2_000))
@settings(**FUZZ_SETTINGS)
def test_fifo_equal_raw_delays_deliver_in_send_order(seed):
    """Two messages on the same directed channel whose adversary delays
    are equal (here: PerEdgeDelay, a pure function of the edge) must be
    delivered in send order, at strictly increasing times."""
    g = complete_graph(2)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=seed)
    nodes = {0: _DoubleSender(), 1: FuzzNode(0, 0)}
    adversary = Adversary(
        WakeSchedule.singleton(0), PerEdgeDelay(seed=seed)
    )
    trace = Trace()
    AsyncEngine(setup, nodes, adversary, seed=seed, trace=trace).run()
    deliveries = trace.deliveries()
    assert [m.payload[0] for m in deliveries] == ["first", "second"]
    times = [e.time for e in trace.events if e.kind == "deliver"]
    assert times[0] < times[1]  # the eps bump separates the tie


def test_fifo_saturated_channel_stays_within_tau():
    """A burst of same-channel sends under UnitDelay saturates the
    channel at the tau = 1 bound: every raw delivery lands exactly at
    sent + 1, so the FIFO bump has no room.  Deliveries must then tie
    at the bound (send order kept by the seq tie-break) instead of
    creeping past it — the pre-clamp engine overshot to sent + 1 + eps
    and inflated time_complexity.
    """
    g = complete_graph(2)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=5)

    class _Burst(NodeAlgorithm):
        def on_wake(self, ctx):
            for i in range(5):
                ctx.send(1, ("b", i))

        def on_message(self, ctx, port, payload):
            pass

    nodes = {0: _Burst(), 1: FuzzNode(0, 0)}
    adversary = Adversary(WakeSchedule.singleton(0), UnitDelay())
    trace = Trace()
    AsyncEngine(setup, nodes, adversary, seed=5, trace=trace).run()
    send_time = {
        e.detail.seq: e.time for e in trace.events if e.kind == "send"
    }
    deliveries = [e for e in trace.events if e.kind == "deliver"]
    assert len(deliveries) == 5
    for ev in deliveries:
        assert ev.time <= send_time[ev.detail.seq] + 1.0
    # FIFO order survives the all-tied delivery times.
    assert [e.detail.payload[1] for e in deliveries] == list(range(5))


def test_fifo_raw_delay_inversion_still_delivers_in_send_order():
    """Even when the adversary's raw delays would *reorder* the channel
    (second message assigned the shorter delay), the engine's per-channel
    high-water mark must keep send order."""
    g = complete_graph(2)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=3)
    nodes = {0: _DoubleSender(), 1: FuzzNode(0, 0)}
    adversary = Adversary(WakeSchedule.singleton(0), _ConvergingDelay())
    trace = Trace()
    AsyncEngine(setup, nodes, adversary, seed=3, trace=trace).run()
    deliveries = trace.deliveries()
    assert [m.payload[0] for m in deliveries] == ["first", "second"]
    times = [e.time for e in trace.events if e.kind == "deliver"]
    assert times == sorted(times) and times[0] < times[1]


# ----------------------------------------------------------------------
# Lean-serialization properties (parallel executor transport + cache)
# ----------------------------------------------------------------------
@given(
    n=st.integers(1, 10_000),
    messages=st.integers(0, 10**9),
    bits=st.integers(0, 10**12),
    max_bits=st.integers(0, 10**6),
    time=st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
    t_awake=st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
    adv_max=st.integers(0, 10**6),
    adv_avg=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
    awake_count=st.integers(0, 50),
    events=st.integers(0, 10**9),
)
@settings(**FUZZ_SETTINGS)
def test_lean_serialization_roundtrips_summary(
    n, messages, bits, max_bits, time, t_awake, adv_max, adv_avg,
    awake_count, events,
):
    metrics = Metrics(
        messages_total=messages,
        bits_total=bits,
        max_message_bits=max_bits,
        events_processed=events,
        first_wake=0.0 if awake_count else None,
        last_activity=time,
    )
    metrics.wake_time = {v: t_awake for v in range(awake_count)}
    result = WakeUpResult(
        algorithm="prop",
        engine="async",
        n=n,
        messages=messages,
        bits=bits,
        max_message_bits=max_bits,
        time=time,
        time_all_awake=t_awake,
        all_awake=awake_count > 0,
        asleep=frozenset(),
        wake_time=dict(metrics.wake_time),
        advice_max_bits=adv_max,
        advice_avg_bits=adv_avg,
        advice_total_bits=adv_max,
        metrics=metrics,
        trace=None,
    )
    # pickling through the lean path (what crosses the process boundary)
    lean = pickle.loads(pickle.dumps(result.lean()))
    assert lean.summary() == result.summary()
    assert lean.time_all_awake == result.time_all_awake
    assert lean.metrics.awake_count() == awake_count
    assert lean.trace is None and lean.wake_time == {}
    # JSON dict round trip (what lands in the on-disk cache)
    rebuilt = WakeUpResult.from_lean_dict(result.to_lean_dict())
    assert rebuilt.summary() == result.summary()
    assert rebuilt.time_all_awake == result.time_all_awake
    assert rebuilt.all_awake == result.all_awake
    assert rebuilt.metrics.events_processed == events


_SPEC_INPUTS = st.tuples(
    st.sampled_from(["flooding", "dfs-rank", "child-encoding"]),
    st.integers(8, 512),       # n
    st.integers(0, 5),         # trial
    st.integers(0, 1000),      # seed
    st.integers(0, 1000),      # delay seed
    st.integers(2, 8),         # workload avg_degree
    st.integers(0, 4),         # algo param k
)


def _spec_from(inputs) -> CellSpec:
    name, n, trial, seed, dseed, deg, k = inputs
    return CellSpec(
        algorithm=name,
        n=n,
        trial=trial,
        seed=seed,
        workload={"kind": "er_single_wake", "avg_degree": float(deg),
                  "seed": seed},
        delay={"kind": "uniform", "seed": dseed},
        algo_params={"k": k} if k else {},
    )


@given(a=_SPEC_INPUTS, b=_SPEC_INPUTS)
@settings(**FUZZ_SETTINGS)
def test_cache_keys_separate_all_inputs(a, b):
    """Cache keys collide exactly when every input matches: any differing
    seed, size, trial, adversary knob, or algorithm parameter must land
    in a different cache slot."""
    ka, kb = cell_key(_spec_from(a)), cell_key(_spec_from(b))
    assert (ka == kb) == (a == b)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 16),
    fanout=st.integers(1, 3),
    ttl=st.integers(0, 2),
)
@settings(**FUZZ_SETTINGS)
def test_sync_engine_same_invariants(seed, n, fanout, ttl):
    setup, _, _ = build_world(seed, n, fanout, ttl, 2)
    nodes = {v: FuzzNode(fanout, ttl) for v in setup.graph.vertices()}
    rng = random.Random(seed + 1)
    awake = rng.sample(list(setup.graph.vertices()), 2)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    trace = Trace()
    SyncEngine(setup, nodes, adversary, seed=seed, trace=trace).run()
    sends = trace.sends()
    deliveries = trace.deliveries()
    assert sorted(m.seq for m in sends) == sorted(m.seq for m in deliveries)
    for ev in trace.events:
        if ev.kind == "deliver":
            assert ev.time == ev.detail.sent_at + 1  # next round exactly
    for node in nodes.values():
        assert node.wakes <= 1
        assert node.woke_before_messages
