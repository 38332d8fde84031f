"""Compiled-topology artifact layer tests (`repro.graphs.compile`).

The contract under test:

* **fidelity** — a topology rematerialized from its artifact (or from
  a disk round-trip) has the builder's exact vertex/neighbor insertion
  order, the same ``rho_awk``, and consumes a seeded rng identically
  to the legacy per-trial rebuild (``random_ports`` vs
  ``PortAssignment.random``);
* **store correctness** — corrupted, truncated, or wrong-salt/-version
  artifacts are silent misses that trigger rebuild + rewrite; writes
  are atomic (no torn temp files); N concurrent workers racing on one
  key perform exactly one build;
* **cache discipline** — the in-process LRU bounds memory and evicts
  its graph-id side table; ``cached_spanner`` builds each spanner once
  per topology and replays it from persisted extras;
* **one traversal per (workload, n)** — a multi-trial batch through
  the executor compiles each distinct topology exactly once (the
  regression that motivated the layer: ``awake_distance`` used to run
  per trial).
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

import repro.graphs.compile as compile_mod
from repro.analysis.telemetry import topology_fetches
from repro.artifacts import purge_store, runtime_stores, store_report
from repro.experiments.parallel import CellSpec, ParallelSweepExecutor
from repro.experiments.sweeps import sweep_cells
from repro.graphs.compile import (
    STORE_VERSION,
    CompiledTopology,
    TopologyStore,
    build_topology,
    cached_spanner,
    clear_memory_cache,
    compiled_topology,
    topology_key,
)
from repro.graphs.graph import Graph
from repro.graphs.spanner import greedy_spanner
from repro.graphs.traversal import awake_distance
from repro.graphs.workloads import build_workload
from repro.models.ports import PortAssignment
from repro.obs.metrics import MetricsRegistry, set_global_registry

WORKLOAD = {"kind": "er_single_wake", "avg_degree": 4.0, "seed": 5}
N = 40


@pytest.fixture(autouse=True)
def _fresh_memory_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def _edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


class TestTopologyKey:
    def test_stable(self):
        assert topology_key(WORKLOAD, N) == topology_key(dict(WORKLOAD), N)

    @pytest.mark.parametrize(
        "workload, n",
        [
            ({**WORKLOAD, "seed": 6}, N),
            ({**WORKLOAD, "avg_degree": 6.0}, N),
            ({**WORKLOAD, "kind": "er_all_awake"}, N),
            (WORKLOAD, N + 1),
        ],
    )
    def test_any_changed_input_changes_key(self, workload, n):
        assert topology_key(workload, n) != topology_key(WORKLOAD, N)

    def test_salt_bump_changes_key(self):
        assert topology_key(WORKLOAD, N, salt="a") != topology_key(
            WORKLOAD, N, salt="b"
        )


class TestArtifactFidelity:
    @pytest.fixture(scope="class")
    def built(self):
        graph, awake = build_workload(dict(WORKLOAD))(N)
        topo = CompiledTopology.compile(graph, awake, key="k")
        # The disk representation, round-tripped: a worker would see
        # exactly this object.
        clone = CompiledTopology.from_payload(
            pickle.loads(pickle.dumps(topo.to_payload()))
        )
        return graph, awake, topo, clone

    def test_insertion_order_is_preserved(self, built):
        graph, _, _, clone = built
        g2 = clone.graph()
        assert list(g2.vertices()) == list(graph.vertices())
        for v in graph.vertices():
            assert list(g2.neighbors(v)) == list(graph.neighbors(v))

    def test_rho_awk_matches_fresh_traversal(self, built):
        graph, awake, topo, clone = built
        rho = float(awake_distance(graph, list(awake)))
        assert topo.rho_awk == rho
        assert clone.rho_awk == rho

    def test_awake_vertices_round_trip(self, built):
        _, awake, _, clone = built
        assert clone.awake_vertices() == list(awake)

    def test_num_edges(self, built):
        graph, _, _, clone = built
        assert clone.num_edges() == len(list(graph.edges()))

    def test_random_ports_bit_compatible_with_legacy(self, built):
        graph, _, _, clone = built
        legacy = PortAssignment.random(graph, random.Random(13))
        compiled = clone.random_ports(random.Random(13))
        for v in graph.vertices():
            assert compiled.table(v) == legacy.table(v)

    def test_prevalidated_matches_validated_constructor(self, built):
        graph, _, _, _ = built
        order = {
            v: list(random.Random(99).sample(
                list(graph.neighbors(v)), graph.degree(v)
            ))
            for v in graph.vertices()
        }
        validated = PortAssignment(graph, {v: list(o) for v, o in
                                           order.items()})
        fast = PortAssignment.prevalidated(graph, {v: list(o) for v, o in
                                                   order.items()})
        for v in graph.vertices():
            assert fast.table(v) == validated.table(v)
            assert list(fast.ports(v)) == list(validated.ports(v))


def _topology_store(root):
    """The topologies row of the runtime store table, at ``root``."""
    return runtime_stores(root, root, root)[1]


class TestStore:
    def test_cold_build_writes_one_artifact(self, tmp_path):
        store = TopologyStore(tmp_path)
        stats = {}
        topo = store.fetch_or_build(WORKLOAD, N, stats=stats)
        assert stats == {"build": 1}
        report = store_report(_topology_store(tmp_path))
        assert report["entries"] == 1
        assert store.path(topo.key).is_file()
        assert report["bytes"] > 0

    def test_disk_then_memory_hits(self, tmp_path):
        TopologyStore(tmp_path).fetch_or_build(WORKLOAD, N)
        clear_memory_cache()
        store = TopologyStore(tmp_path)
        stats = {}
        store.fetch_or_build(WORKLOAD, N, stats=stats)
        store.fetch_or_build(WORKLOAD, N, stats=stats)
        assert stats == {"hit_disk": 1, "hit_mem": 1}

    def test_disk_round_trip_is_faithful(self, tmp_path):
        store = TopologyStore(tmp_path)
        fresh = store.fetch_or_build(WORKLOAD, N)
        rows = [
            (v, tuple(fresh.graph().neighbors(v)))
            for v in fresh.graph().vertices()
        ]
        clear_memory_cache()
        loaded = TopologyStore(tmp_path).fetch_or_build(WORKLOAD, N)
        assert loaded.rho_awk == fresh.rho_awk
        assert [
            (v, tuple(loaded.graph().neighbors(v)))
            for v in loaded.graph().vertices()
        ] == rows

    @pytest.mark.parametrize(
        "corruption",
        ["garbage", "truncate", "empty"],
        ids=["garbage-bytes", "truncated", "zero-length"],
    )
    def test_corrupted_artifact_rebuilds_and_rewrites(
        self, tmp_path, corruption
    ):
        store = TopologyStore(tmp_path)
        topo = store.fetch_or_build(WORKLOAD, N)
        path = store.path(topo.key)
        raw = path.read_bytes()
        if corruption == "garbage":
            path.write_bytes(b"not a pickle at all")
        elif corruption == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        else:
            path.write_bytes(b"")

        clear_memory_cache()
        store = TopologyStore(tmp_path)
        stats = {}
        rebuilt = store.fetch_or_build(WORKLOAD, N, stats=stats)
        assert stats == {"build": 1}
        assert rebuilt.rho_awk == topo.rho_awk
        # ... and the rewrite is valid again: a third store disk-hits.
        clear_memory_cache()
        stats = {}
        TopologyStore(tmp_path).fetch_or_build(WORKLOAD, N, stats=stats)
        assert stats == {"hit_disk": 1}

    def test_salt_mismatch_is_a_miss(self, tmp_path):
        store_a = TopologyStore(tmp_path, salt="salt-a")
        topo = store_a.fetch_or_build(WORKLOAD, N)
        # The envelope guard: even pointed at salt-a's artifact file, a
        # salt-b store refuses to load it.
        store_b = TopologyStore(tmp_path, salt="salt-b")
        assert store_b._load(topo.key) is None
        # And through the normal path a salt bump re-keys entirely:
        # fresh build, old artifact orphaned, both on disk.
        clear_memory_cache()
        stats = {}
        store_b.fetch_or_build(WORKLOAD, N, stats=stats)
        assert stats == {"build": 1}
        assert store_report(_topology_store(tmp_path))["entries"] == 2

    def test_wrong_store_version_is_a_miss(self, tmp_path):
        store = TopologyStore(tmp_path)
        topo = store.fetch_or_build(WORKLOAD, N)
        path = store.path(topo.key)
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = STORE_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store._load(topo.key) is None

    def test_body_digest_mismatch_is_a_miss(self, tmp_path):
        store = TopologyStore(tmp_path)
        topo = store.fetch_or_build(WORKLOAD, N)
        path = store.path(topo.key)
        envelope = pickle.loads(path.read_bytes())
        envelope["body"] = envelope["body"][:-1] + b"\x00"
        path.write_bytes(pickle.dumps(envelope))
        assert store._load(topo.key) is None

    def test_writes_leave_no_temp_files(self, tmp_path):
        store = TopologyStore(tmp_path)
        store.fetch_or_build(WORKLOAD, N)
        store.fetch_or_build({**WORKLOAD, "seed": 6}, N)
        leftovers = [
            p for p in tmp_path.rglob("*") if ".tmp." in p.name
        ]
        assert leftovers == []

    def test_purge_removes_artifacts_and_locks(self, tmp_path):
        store = TopologyStore(tmp_path)
        store.fetch_or_build(WORKLOAD, N)
        store.fetch_or_build({**WORKLOAD, "seed": 6}, N)
        assert purge_store(_topology_store(tmp_path)) == 2
        assert store_report(_topology_store(tmp_path))["entries"] == 0
        assert list(tmp_path.rglob("*.lock")) == []

    def test_concurrent_workers_build_exactly_once(self, tmp_path):
        procs = 4
        with multiprocessing.Pool(procs) as pool:
            results = pool.map(
                _concurrent_fetch, [(str(tmp_path), WORKLOAD, N)] * procs
            )
        stats_list = [s for s, _ in results]
        rhos = {rho for _, rho in results}
        assert sum(s.get("build", 0) for s in stats_list) == 1
        assert len(rhos) == 1
        assert store_report(_topology_store(tmp_path))["entries"] == 1


def _concurrent_fetch(args):
    """Pool worker: one cold fetch against a shared store root."""
    root, workload, n = args
    clear_memory_cache()  # forked children inherit the parent's LRU
    stats = {}
    topo = TopologyStore(root).fetch_or_build(workload, n, stats=stats)
    return stats, topo.rho_awk


class TestMemoryLRU:
    def test_lru_bounds_entries_and_graph_index(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "MEMORY_CACHE_SIZE", 2)
        for n in (16, 20, 24):
            compiled_topology(WORKLOAD, n)
        assert len(compile_mod._MEM_CACHE) == 2
        assert len(compile_mod._TOPO_BY_GRAPH) == 2
        assert topology_key(WORKLOAD, 16) not in compile_mod._MEM_CACHE

    def test_evicted_topology_rebuilds(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "MEMORY_CACHE_SIZE", 1)
        stats = {}
        compiled_topology(WORKLOAD, 16, stats=stats)
        compiled_topology(WORKLOAD, 20, stats=stats)  # evicts n=16
        compiled_topology(WORKLOAD, 16, stats=stats)
        assert stats == {"build": 3}

    def test_repeated_fetches_hit_memory(self):
        stats = {}
        first = compiled_topology(WORKLOAD, N, stats=stats)
        second = compiled_topology(WORKLOAD, N, stats=stats)
        assert first is second
        assert stats == {"build": 1, "hit_mem": 1}


class TestCachedSpanner:
    K = 3

    def _builder(self, calls):
        def build(g):
            calls.append(1)
            return greedy_spanner(g, self.K)

        return build

    def test_built_once_per_topology(self):
        topo = compiled_topology(WORKLOAD, N)
        calls = []
        first = cached_spanner(
            topo.graph(), "greedy", {"k": self.K}, self._builder(calls)
        )
        second = cached_spanner(
            topo.graph(), "greedy", {"k": self.K}, self._builder(calls)
        )
        assert first is second
        assert len(calls) == 1

    def test_distinct_params_are_distinct_memos(self):
        topo = compiled_topology(WORKLOAD, N)
        s3 = cached_spanner(
            topo.graph(), "greedy", {"k": 3}, lambda g: greedy_spanner(g, 3)
        )
        s5 = cached_spanner(
            topo.graph(), "greedy", {"k": 5}, lambda g: greedy_spanner(g, 5)
        )
        assert s3 is not s5

    def test_plain_graph_falls_through_to_builder(self):
        graph, _ = build_workload(dict(WORKLOAD))(N)
        calls = []
        cached_spanner(graph, "greedy", {"k": self.K}, self._builder(calls))
        cached_spanner(graph, "greedy", {"k": self.K}, self._builder(calls))
        assert len(calls) == 2

    def test_persisted_extras_replay_without_builder(self, tmp_path):
        store = TopologyStore(tmp_path)
        topo = store.fetch_or_build(WORKLOAD, N)
        expected = cached_spanner(
            topo.graph(), "greedy", {"k": self.K},
            lambda g: greedy_spanner(g, self.K),
        )
        # A fresh process (simulated: cold LRU, new store) must rebuild
        # the spanner from the artifact's extras, not the builder.
        clear_memory_cache()
        stats = {}
        reloaded = TopologyStore(tmp_path).fetch_or_build(
            WORKLOAD, N, stats=stats
        )
        assert stats == {"hit_disk": 1}
        replayed = cached_spanner(
            reloaded.graph(), "greedy", {"k": self.K},
            lambda g: pytest.fail("builder must not run: extras persisted"),
        )
        assert _edge_set(replayed) == _edge_set(expected)
        assert list(replayed.vertices()) == list(reloaded.graph().vertices())


class TestOneTraversalPerTopology:
    """Satellite regression: `_execute_cell` used to rebuild the graph
    and re-run `awake_distance` for every trial; the compiled layer
    must do both exactly once per distinct (workload, n)."""

    SIZES = [16, 24]
    TRIALS = 3

    def _cells(self):
        return sweep_cells(
            "flooding",
            dict(WORKLOAD),
            sizes=self.SIZES,
            engine="async",
            knowledge="KT0",
            bandwidth="CONGEST",
            trials=self.TRIALS,
            seed=0,
            delay={"kind": "uniform", "seed": 0},
        )

    def test_multi_trial_batch_compiles_each_topology_once(
        self, monkeypatch, live_registry
    ):
        calls = []

        def counting_awake_distance(graph, awake):
            calls.append(1)
            return awake_distance(graph, awake)

        monkeypatch.setattr(
            compile_mod, "awake_distance", counting_awake_distance
        )
        cells = self._cells()
        assert len(cells) == len(self.SIZES) * self.TRIALS
        executor = ParallelSweepExecutor(workers=0, use_cache=False)
        outcomes = executor.run(cells)
        assert all(o.ok for o in outcomes)
        assert len(calls) == len(self.SIZES)
        assert topology_fetches(live_registry.snapshot()) == {
            "build": len(self.SIZES),
            "hit_mem": len(cells) - len(self.SIZES),
            "hit_disk": 0,
        }

    def test_warm_store_batch_builds_nothing(self, tmp_path, live_registry):
        # Fresh cell caches over one topology store, as CI's
        # warm-store smoke runs it.
        cells = self._cells()
        ParallelSweepExecutor(
            workers=0, cache_dir=tmp_path / "cold", topology_dir=tmp_path,
        ).run(cells)
        assert topology_fetches(live_registry.snapshot())["build"] == len(
            self.SIZES
        )
        clear_memory_cache()
        warm = MetricsRegistry()
        set_global_registry(warm)
        ParallelSweepExecutor(
            workers=0, cache_dir=tmp_path / "warm", topology_dir=tmp_path,
        ).run(cells)
        fetches = topology_fetches(warm.snapshot())
        assert fetches["build"] == 0
        assert fetches["hit_disk"] == len(self.SIZES)
