"""Hypothesis property tests on system-wide invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.child_encoding import ChildEncodingAdvice
from repro.core.dfs_wakeup import DfsWakeUp
from repro.core.fip06 import Fip06TreeAdvice
from repro.core.flooding import Flooding
from repro.graphs.generators import connected_erdos_renyi, random_tree
from repro.graphs.traversal import multi_source_bfs
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.runner import run_wakeup

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 35),
    wake_count=st.integers(1, 4),
)
@settings(**COMMON_SETTINGS)
def test_flooding_always_solves_wakeup(seed, n, wake_count):
    """Flooding solves wake-up on every connected graph and awake set."""
    g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    rng = random.Random(seed)
    awake = rng.sample(list(g.vertices()), min(wake_count, n))
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=seed)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    r = run_wakeup(setup, Flooding(), adversary, engine="async", seed=seed)
    assert r.all_awake


@given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
@settings(**COMMON_SETTINGS)
def test_wake_times_lower_bounded_by_distance(seed, n):
    """Invariant: no node wakes before its hop distance (delays <= 1)."""
    g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    awake = [next(iter(g.vertices()))]
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=seed)
    adversary = Adversary(
        WakeSchedule.all_at_once(awake), UniformRandomDelay(seed=seed)
    )
    r = run_wakeup(setup, Flooding(), adversary, engine="async", seed=seed)
    dist = multi_source_bfs(g, awake)
    for v in g.vertices():
        assert r.wake_time[v] >= 0
        # each hop takes at most 1 but at least lo > 0; distance bounds
        # from above under unit and from below under any <=1 delays:
        assert r.wake_time[v] <= dist[v] + 1e-9


@given(seed=st.integers(0, 10_000), n=st.integers(5, 28))
@settings(**COMMON_SETTINGS)
def test_dfs_always_solves_wakeup(seed, n):
    g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    rng = random.Random(seed + 1)
    awake = rng.sample(list(g.vertices()), min(3, n))
    setup = make_setup(g, knowledge=Knowledge.KT1, seed=seed)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    r = run_wakeup(setup, DfsWakeUp(), adversary, engine="async", seed=seed)
    assert r.all_awake


@given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
@settings(**COMMON_SETTINGS)
def test_fip06_messages_never_exceed_two_per_tree_edge(seed, n):
    g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=seed)
    adversary = Adversary(
        WakeSchedule.singleton(next(iter(g.vertices()))), UnitDelay()
    )
    r = run_wakeup(setup, Fip06TreeAdvice(), adversary, engine="async", seed=seed)
    assert r.all_awake
    assert r.messages <= 2 * (n - 1)


@given(seed=st.integers(0, 10_000), n=st.integers(5, 30))
@settings(**COMMON_SETTINGS)
def test_cen_messages_never_exceed_three_per_tree_edge(seed, n):
    g = random_tree(n, seed=seed)
    rng = random.Random(seed + 2)
    awake = rng.sample(list(g.vertices()), min(2, n))
    setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=seed)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    r = run_wakeup(
        setup, ChildEncodingAdvice(), adversary, engine="async", seed=seed
    )
    assert r.all_awake
    assert r.messages <= 3 * (n - 1)


@given(seed=st.integers(0, 5_000))
@settings(**COMMON_SETTINGS)
def test_message_conservation(seed):
    """Every sent message is eventually received: as many traced
    deliveries as traced sends at quiescence, and as many of each as
    the run charges."""
    g = connected_erdos_renyi(20, 0.2, seed=seed)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=seed)
    adversary = Adversary(
        WakeSchedule.singleton(next(iter(g.vertices()))),
        UniformRandomDelay(seed=seed),
    )
    r = run_wakeup(
        setup, Flooding(), adversary, engine="async", seed=seed,
        record_trace=True,
    )
    assert len(r.trace.sends()) == len(r.trace.deliveries()) == r.messages


@given(seed=st.integers(0, 5_000))
@settings(**COMMON_SETTINGS)
def test_same_seed_same_execution(seed):
    """Full-system determinism: identical seeds give identical metrics."""
    g = connected_erdos_renyi(18, 0.2, seed=seed)
    setup = make_setup(g, knowledge=Knowledge.KT1, seed=seed)
    adversary = Adversary(
        WakeSchedule.random_subset(g, 3, seed=seed),
        UniformRandomDelay(seed=seed),
    )
    runs = [
        run_wakeup(setup, DfsWakeUp(), adversary, engine="async", seed=seed)
        for _ in range(2)
    ]
    assert runs[0].messages == runs[1].messages
    assert runs[0].bits == runs[1].bits
    assert runs[0].wake_time == runs[1].wake_time


@given(seed=st.integers(0, 5_000), n=st.integers(6, 24))
@settings(**COMMON_SETTINGS)
def test_advice_decoding_never_underflows(seed, n):
    """Oracle output always decodes cleanly at every node (the schemes
    and codecs agree on the wire format)."""
    from repro.advice.bits import BitReader
    from repro.core.child_encoding import decode_cen
    from repro.core.fip06 import decode_tree_ports

    g = connected_erdos_renyi(n, 3.0 / n, seed=seed)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=seed)
    fip = Fip06TreeAdvice().compute_advice(setup)
    cen = ChildEncodingAdvice().compute_advice(setup)
    for v in g.vertices():
        ports = decode_tree_ports(fip[v], g.degree(v))
        assert all(1 <= p <= g.degree(v) for p in ports)
        parent, fc, nxt = decode_cen(cen[v])
        if parent is not None:
            assert 1 <= parent <= g.degree(v)
