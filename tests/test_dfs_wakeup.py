"""Tests for the Theorem-3 ranked-DFS wake-up algorithm."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.controller import _canon
from repro.core.dfs_wakeup import DfsWakeUp, TOKEN, VisitedIds
from repro.core.flooding import Flooding
from repro.graphs.generators import (
    complete_graph,
    connected_erdos_renyi,
    cycle_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import (
    Adversary,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.messages import bit_size
from repro.sim.runner import run_wakeup


def run_dfs(graph, schedule, seed=0, delays=None, engine="async", trace=False):
    setup = make_setup(graph, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=seed)
    adversary = Adversary(schedule, delays or UnitDelay())
    return run_wakeup(
        setup, DfsWakeUp(), adversary, engine=engine, seed=seed + 1,
        record_trace=trace,
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(15),
            lambda: cycle_graph(12),
            lambda: star_graph(10),
            lambda: complete_graph(12),
            lambda: random_tree(25, seed=3),
            lambda: connected_erdos_renyi(40, 0.1, seed=4),
        ],
    )
    def test_wakes_everyone_single_start(self, graph_factory):
        g = graph_factory()
        r = run_dfs(g, WakeSchedule.singleton(next(iter(g.vertices()))))
        assert r.all_awake

    @pytest.mark.parametrize("seed", range(5))
    def test_wakes_everyone_many_starts(self, seed):
        g = connected_erdos_renyi(35, 0.12, seed=seed)
        r = run_dfs(
            g, WakeSchedule.random_subset(g, 8, seed=seed), seed=seed
        )
        assert r.all_awake

    def test_wakes_everyone_under_random_delays(self):
        g = connected_erdos_renyi(30, 0.15, seed=7)
        r = run_dfs(
            g,
            WakeSchedule.random_subset(g, 5, seed=1),
            delays=UniformRandomDelay(seed=2),
        )
        assert r.all_awake

    def test_staggered_adversarial_wakeups(self):
        """The anti-rank pattern from the Thm-3 analysis still yields a
        complete wake-up (Las Vegas: correctness is certain)."""
        g = connected_erdos_renyi(60, 0.08, seed=9)
        sched = WakeSchedule.anti_rank_staggered(g, waves=5, gap=10.0, seed=3)
        r = run_dfs(g, sched, seed=2)
        assert r.all_awake

    def test_sync_engine_also_works(self):
        g = connected_erdos_renyi(25, 0.15, seed=11)
        r = run_dfs(g, WakeSchedule.random_subset(g, 4, seed=0), engine="sync")
        assert r.all_awake


class TestClaim1:
    """Claim 1: each token's path is a tree traversal — every edge at
    most twice per token, O(n) forwards per token."""

    def test_token_edge_usage(self):
        g = connected_erdos_renyi(30, 0.15, seed=5)
        r = run_dfs(g, WakeSchedule.singleton(0), trace=True)
        per_token_edges = {}
        for msg in r.trace.sends():
            if msg.payload[0] != TOKEN:
                continue
            key = (msg.payload[1], msg.payload[2])
            edge = frozenset((repr(msg.src), repr(msg.dst)))
            per_token_edges.setdefault(key, []).append(edge)
        assert per_token_edges  # at least the origin's token
        for key, edges in per_token_edges.items():
            from collections import Counter

            usage = Counter(edges)
            assert all(c <= 2 for c in usage.values())
            # forwards <= 2(n-1)
            assert len(edges) <= 2 * (g.num_vertices - 1)

    def test_single_token_message_count_linear(self):
        for n in (20, 40, 80):
            g = random_tree(n, seed=n)
            r = run_dfs(g, WakeSchedule.singleton(0))
            assert r.messages <= 2 * (n - 1)


class TestComplexity:
    def test_messages_beat_flooding_on_dense_graphs(self):
        g = complete_graph(40)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        schedule = WakeSchedule.random_subset(g, 10, seed=2)
        adversary = Adversary(schedule, UnitDelay())
        dfs = run_wakeup(setup, DfsWakeUp(), adversary, engine="async", seed=3)
        flood = run_wakeup(setup, Flooding(), adversary, engine="async", seed=3)
        assert dfs.messages < flood.messages / 3

    def test_nlogn_message_shape(self):
        """Across sizes, messages stay within a small multiple of
        n log n even with adversarially many wake-ups."""
        for n in (50, 100, 200):
            g = connected_erdos_renyi(n, 5.0 / n, seed=n)
            r = run_dfs(
                g, WakeSchedule.random_subset(g, n // 4, seed=1), seed=2
            )
            assert r.messages <= 10 * n * math.log(n)

    def test_message_woken_nodes_do_not_start_tokens(self):
        g = path_graph(12)
        r = run_dfs(g, WakeSchedule.singleton(0), trace=True)
        origins = {
            m.payload[2] for m in r.trace.sends() if m.payload[0] == TOKEN
        }
        assert len(origins) == 1  # only the adversary-woken node


class TestRankSemantics:
    def test_highest_rank_token_completes(self):
        """The surviving token visits every vertex (the correctness
        core of Theorem 3's proof)."""
        g = connected_erdos_renyi(25, 0.2, seed=13)
        r = run_dfs(g, WakeSchedule.random_subset(g, 6, seed=5), trace=True)
        # The token whose (rank, id) is lexicographically largest must
        # reach every vertex.
        best = None
        for m in r.trace.sends():
            if m.payload[0] != TOKEN:
                continue
            key = (m.payload[1], m.payload[2])
            if best is None or key > best:
                best = key
        visited = set()
        for m in r.trace.sends():
            if m.payload[0] == TOKEN and (m.payload[1], m.payload[2]) == best:
                visited.add(repr(m.src))
                visited.add(repr(m.dst))
        assert len(visited) == g.num_vertices

    def test_deterministic_given_seeds(self):
        g = connected_erdos_renyi(20, 0.2, seed=3)
        r1 = run_dfs(g, WakeSchedule.random_subset(g, 4, seed=7), seed=9)
        r2 = run_dfs(g, WakeSchedule.random_subset(g, 4, seed=7), seed=9)
        assert r1.messages == r2.messages
        assert r1.time == r2.time


class TestClaim4:
    """Claim 4: each node forwards O(log n) distinct tokens w.h.p —
    measured via the per-node tokens_forwarded sets the nodes keep."""

    def test_per_node_token_counts_logarithmic(self):
        import math

        from repro.core.dfs_wakeup import DfsWakeUpNode
        from repro.sim.async_engine import AsyncEngine
        from repro.sim.adversary import Adversary, UnitDelay

        n = 200
        g = connected_erdos_renyi(n, 5.0 / n, seed=17)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        nodes = {v: DfsWakeUpNode() for v in g.vertices()}
        # adversarially many origins: half the network
        schedule = WakeSchedule.random_subset(g, n // 2, seed=2)
        eng = AsyncEngine(setup, nodes, Adversary(schedule, UnitDelay()), seed=3)
        eng.run()
        worst = max(len(node.tokens_forwarded) for node in nodes.values())
        assert worst <= 6 * math.log(n)

    def test_token_counts_grow_sublinearly_in_origins(self):
        """Doubling the origin count must not double the worst-case
        per-node token load (least-element-list behaviour)."""
        from repro.core.dfs_wakeup import DfsWakeUpNode
        from repro.sim.async_engine import AsyncEngine
        from repro.sim.adversary import Adversary, UnitDelay

        n = 160
        g = connected_erdos_renyi(n, 5.0 / n, seed=23)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        worsts = []
        for count in (20, 80):
            nodes = {v: DfsWakeUpNode() for v in g.vertices()}
            schedule = WakeSchedule.random_subset(g, count, seed=5)
            AsyncEngine(
                setup, nodes, Adversary(schedule, UnitDelay()), seed=7
            ).run()
            worsts.append(max(len(nd.tokens_forwarded) for nd in nodes.values()))
        assert worsts[1] < 4 * worsts[0]


class TestVisitedIds:
    """The token's shared-prefix visited list stands in for the tuple of
    its IDs everywhere outside the algorithm: wire size, model-checker
    normal form, repr, equality and membership."""

    @given(
        ids=st.lists(
            st.one_of(st.just(0), st.integers(0, 2**70)),
            min_size=1,
            max_size=18,
        ),
        branch_at=st.integers(0, 18),
        extra=st.integers(0, 2**20),
        rank=st.integers(0, 2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_tuple_it_replaces(self, ids, branch_at, extra, rank):
        versions = [VisitedIds(ids[:1])]
        for x in ids[1:]:
            versions.append(versions[-1].plus(x))
        for k, v in enumerate(versions, start=1):
            t = tuple(ids[:k])
            assert bit_size((TOKEN, rank, ids[0], v)) == bit_size(
                (TOKEN, rank, ids[0], t)
            )
            assert _canon(v) == _canon(t)
            assert _canon((TOKEN, rank, v)) == _canon((TOKEN, rank, t))
            assert repr(v) == repr(t)
            assert v == t and hash(v) == hash(t) and len(v) == len(t)
            for x in set(ids) | {extra, -1}:
                assert (x in v) == (x in t)

        # Extending an older version copies; no version changes.
        old = versions[min(branch_at, len(versions) - 1)]
        old_ids = tuple(old)
        branch = old.plus(extra)
        assert branch == old_ids + (extra,)
        assert old == old_ids
        assert versions[-1] == tuple(ids)
        assert (extra in versions[-1]) == (extra in ids)
        assert bit_size(branch) == bit_size(old_ids + (extra,))
        assert branch.plus(extra + 1) == old_ids + (extra, extra + 1)
        assert versions[-1].plus(extra) == tuple(ids) + (extra,)
        # Extending the newest version in place leaves it unchanged too.
        assert branch == old_ids + (extra,)
