"""Cross-engine metric-equivalence conformance suite.

The bulk frontier engine (:mod:`repro.sim.bulk`) is only trusted
because of this file: for every supported algorithm, the sync engine
and the bulk engine must agree **exactly** — not approximately — on
every aggregate the repo reports:

* completion time (``time`` = round complexity, ``time_all_awake``),
* total messages, total bits, ``max_message_bits``,
* the per-round message histogram,
* per-vertex wake times and causes, ``first_wake`` / ``last_activity``,
* ``events_processed`` (the number of executed rounds),
* success (``all_awake``) and the exact ``asleep`` set on failures.

The matrix covers the three frontier algorithms x n in {16, 256, 4096}
x at least three adversarial wake patterns (simultaneous, singleton,
staggered waves with fractional times, fractional spread), plus
hypothesis property tests over random connected graphs and random
schedules.

**Contract boundary (deliberate, documented):** the bulk lane produces
no per-message trace and no per-node / per-edge message Counters —
those are exactly the collections :meth:`Metrics.compact` drops at
process boundaries, so nothing the sweep/cache/report stack consumes is
lost.  Requesting a trace or arming a drop strategy silently routes the
run to the per-message sync engine instead; the tests at the bottom pin
that fallback behaviour down.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import EchoFlooding, Flooding
from repro.core.gossip import PushGossipWakeUp
from repro.core.star_broadcast import StarBroadcast
from repro.graphs.generators import connected_erdos_renyi, star_graph
from repro.graphs.graph import Graph
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, WakeSchedule
from repro.sim.bulk import HAS_BULK, BulkUnavailable, require_bulk
from repro.sim.faults import BernoulliDrops, FaultyAdversary
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace

pytestmark = pytest.mark.bulk

# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

SIZES = (16, 256, 4096)

ALGORITHMS = {
    # Small gossip budget: conformance wants every code path, not the
    # w.h.p. completion the default 8 * n_hat budget buys.
    "flooding": Flooding,
    "push-gossip": lambda: PushGossipWakeUp(active_rounds=10),
    "star-broadcast": StarBroadcast,
}


def _wake_patterns(verts):
    """Named adversarial wake patterns over a vertex list (>= 3, per
    the acceptance criteria; fractional times exercise the ceil'd
    sync-round semantics)."""
    k = max(1, len(verts) // 4)
    return {
        "singleton": WakeSchedule.singleton(verts[0]),
        "simultaneous": WakeSchedule.all_at_once(verts),
        "staggered-fractional": WakeSchedule.staggered(
            [
                (0.0, verts[:2]),
                (1.5, verts[2 : 2 + k]),
                (3.25, verts[2 + k : 2 + 2 * k]),
            ]
        ),
        "fractional-spread": WakeSchedule(
            {v: 0.7 * i for i, v in enumerate(verts[::4])}
        ),
    }


_GRAPHS = {}


def _graph(n):
    if n not in _GRAPHS:
        _GRAPHS[n] = connected_erdos_renyi(
            n, 6.0 / max(1, n - 1), seed=97 + n
        )
    return _GRAPHS[n]


def run_both(algo_factory, graph, schedule, seed=3, require=False):
    """One sync run (with a trace, for the histogram) and one bulk run
    on identical inputs; returns (sync_result, bulk_result, histograms).
    """
    setup = make_setup(graph, knowledge=Knowledge.KT1, seed=seed)
    adv = Adversary(schedule)
    trace = Trace()
    rs = run_wakeup(
        setup, algo_factory(), adv, engine="sync", seed=seed,
        require_all_awake=require, trace=trace,
    )
    rb = run_wakeup(
        setup, algo_factory(), adv, engine="bulk", seed=seed,
        require_all_awake=require,
    )
    sync_hist = Counter()
    for ev in trace.events:
        if ev.kind == "send":
            sync_hist[int(ev.time)] += 1
    bulk_hist = {
        r: c for r, c in enumerate(rb.metrics.round_messages) if c
    }
    return rs, rb, (dict(sync_hist), bulk_hist)


def assert_equivalent(rs, rb, hists):
    sync_hist, bulk_hist = hists
    assert rb.engine == "bulk"  # no silent fallback in the matrix
    assert rb.messages == rs.messages
    assert rb.bits == rs.bits
    assert rb.max_message_bits == rs.max_message_bits
    assert rb.time == rs.time
    assert rb.time_all_awake == rs.time_all_awake
    assert rb.all_awake == rs.all_awake
    assert rb.asleep == rs.asleep
    assert rb.wake_time == rs.wake_time
    assert rb.metrics.first_wake == rs.metrics.first_wake
    assert rb.metrics.last_activity == rs.metrics.last_activity
    assert rb.metrics.events_processed == rs.metrics.events_processed
    assert (
        rb.metrics.wake_cause_counts() == rs.metrics.wake_cause_counts()
    )
    assert rb.metrics.wake_cause == rs.metrics.wake_cause
    assert bulk_hist == sync_hist


@pytest.mark.parametrize("pattern", ["singleton", "simultaneous",
                                     "staggered-fractional",
                                     "fractional-spread"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("n", SIZES)
def test_matrix_sync_bulk_agree(algo, n, pattern):
    graph = _graph(n)
    verts = list(graph.vertices())
    schedule = _wake_patterns(verts)[pattern]
    rs, rb, hists = run_both(ALGORITHMS[algo], graph, schedule)
    assert_equivalent(rs, rb, hists)


def test_star_silent_failure_mode_agrees():
    """The Sec-1.3 failure mode: wake only the high-degree hub of a
    star with degree_threshold 0 — a non-star hub stays silent and the
    run fails identically (same asleep set) on both engines."""
    graph = star_graph(64)
    # p=0 and threshold 1: leaves (degree 1) may talk, the hub
    # (degree 63) is deterministically a silent non-star.
    factory = lambda: StarBroadcast(
        star_probability=0.0, degree_threshold=1.0
    )
    rs, rb, hists = run_both(
        factory, graph, WakeSchedule.singleton(0), require=False
    )
    assert not rs.all_awake and rs.messages == 0
    assert_equivalent(rs, rb, hists)
    # ...and waking a leaf lifts the silence: the hub broadcasts on
    # receipt, the coin is never consulted for message wakes.
    rs2, rb2, hists2 = run_both(
        factory, graph, WakeSchedule.singleton(1), require=False
    )
    assert rs2.all_awake
    assert_equivalent(rs2, rb2, hists2)


def test_star_coin_parity_mixed_wakes():
    """Random star coins must replay the per-node RNG streams exactly,
    including rounds where adversary wake-ups and message arrivals
    interleave."""
    graph = _graph(256)
    verts = list(graph.vertices())
    factory = lambda: StarBroadcast(star_probability=0.3)
    sched = WakeSchedule.staggered(
        [(0.0, verts[:1]), (1.0, verts[10:40]), (2.5, verts[40:80])]
    )
    for seed in (0, 1, 2, 3):
        rs, rb, hists = run_both(factory, graph, sched, seed=seed)
        assert_equivalent(rs, rb, hists)


def test_gossip_default_budget_small_n():
    """The derived 8 * n_hat budget (active_rounds=0) must be computed
    identically by node construction and kernel construction."""
    graph = _graph(16)
    rs, rb, hists = run_both(
        PushGossipWakeUp, graph, WakeSchedule.singleton(0), require=False
    )
    assert_equivalent(rs, rb, hists)


def test_bulk_deterministic_across_runs():
    graph = _graph(256)
    schedule = WakeSchedule.singleton(next(iter(graph.vertices())))
    setup = make_setup(graph, knowledge=Knowledge.KT1, seed=5)
    results = [
        run_wakeup(
            setup, PushGossipWakeUp(active_rounds=9), Adversary(schedule),
            engine="bulk", seed=11,
        )
        for _ in range(2)
    ]
    a, b = results
    assert a.messages == b.messages
    assert a.wake_time == b.wake_time
    assert a.metrics.round_messages == b.metrics.round_messages


# ----------------------------------------------------------------------
# Property tests: random graphs, random schedules
# ----------------------------------------------------------------------

@st.composite
def graph_and_schedule(draw):
    """A random connected graph (tree + extra edges) plus a random
    fractional wake schedule over a random vertex subset."""
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    g = Graph(range(n))
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v))  # random tree: connected
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    k = draw(st.integers(min_value=1, max_value=n))
    woken = rng.sample(range(n), k)
    times = {
        v: draw(
            st.floats(
                min_value=0.0, max_value=6.0, allow_nan=False,
                allow_infinity=False,
            )
        )
        for v in woken
    }
    return g, WakeSchedule(times), seed


@settings(max_examples=30, deadline=None)
@given(case=graph_and_schedule(), algo=st.sampled_from(sorted(ALGORITHMS)))
def test_property_random_graphs_and_schedules(case, algo):
    graph, schedule, seed = case
    rs, rb, hists = run_both(
        ALGORITHMS[algo], graph, schedule, seed=seed % 1000
    )
    assert_equivalent(rs, rb, hists)


@settings(max_examples=15, deadline=None)
@given(
    case=graph_and_schedule(),
    p=st.floats(min_value=0.0, max_value=1.0),
    thresh=st.floats(min_value=0.0, max_value=8.0),
)
def test_property_star_parameter_space(case, p, thresh):
    """Star broadcast across its (p, threshold) parameter space —
    including configurations that legitimately fail to wake everyone;
    the failure must be byte-identical on both lanes."""
    graph, schedule, seed = case
    factory = lambda: StarBroadcast(
        star_probability=p, degree_threshold=thresh
    )
    rs, rb, hists = run_both(factory, graph, schedule, seed=seed % 1000)
    assert_equivalent(rs, rb, hists)


# ----------------------------------------------------------------------
# Contract boundary: fallbacks and gating
# ----------------------------------------------------------------------

def _tiny():
    graph = _graph(16)
    setup = make_setup(graph, knowledge=Knowledge.KT1, seed=1)
    adv = Adversary(WakeSchedule.singleton(next(iter(graph.vertices()))))
    return setup, adv


def test_fallback_no_kernel():
    """Algorithms without a frontier kernel run on the sync engine —
    transparently, with the result recording the lane that ran."""
    setup, adv = _tiny()
    r = run_wakeup(setup, EchoFlooding(), adv, engine="bulk", seed=1)
    assert r.engine == "sync"
    assert r.all_awake


def test_fallback_trace_requested():
    """Per-message traces are out of the bulk contract: requesting one
    falls back to sync and the trace is fully populated."""
    setup, adv = _tiny()
    r = run_wakeup(
        setup, Flooding(), adv, engine="bulk", seed=1, record_trace=True
    )
    assert r.engine == "sync"
    assert r.trace is not None
    assert any(ev.kind == "send" for ev in r.trace.events)


def test_fallback_drop_strategy():
    setup, adv0 = _tiny()
    adv = FaultyAdversary(
        schedule=adv0.schedule, drops=BernoulliDrops(0.5, seed=3)
    )
    r = run_wakeup(
        setup, Flooding(), adv, engine="bulk", seed=1,
        require_all_awake=False,
    )
    assert r.engine == "sync"


def test_bulk_lane_skips_per_message_collections():
    """What the bulk lane deliberately does not fill: the per-message
    trace."""
    setup, adv = _tiny()
    r = run_wakeup(setup, Flooding(), adv, engine="bulk", seed=1)
    assert r.engine == "bulk"
    assert r.trace is None
    # ...while the compact (IPC/cache) projection is indistinguishable
    # from a sync run's.
    lean = r.lean()
    assert lean.messages == r.messages
    assert lean.metrics.awake_count() == r.metrics.awake_count()


def test_unavailable_raises_clean_importerror(monkeypatch):
    import repro.sim.bulk as bulk_mod

    monkeypatch.setattr(bulk_mod, "HAS_BULK", False)
    with pytest.raises(BulkUnavailable) as exc:
        require_bulk()
    assert "repro[bulk]" in str(exc.value)
    assert isinstance(exc.value, ImportError)
    # An explicit engine="bulk" request for a kernel-capable algorithm
    # must surface the missing extras, not silently degrade.
    setup, adv = _tiny()
    with pytest.raises(BulkUnavailable):
        run_wakeup(setup, Flooding(), adv, engine="bulk", seed=1)


def test_has_bulk_reflects_environment():
    # The suite only runs when the extras are present (conftest skips
    # otherwise), so the flag must be truthful here.
    assert HAS_BULK
    require_bulk()
