"""CompiledTopology CSR invariants.

PR 4 tested artifact *fidelity* (store round-trips, digest checks);
this suite tests the CSR arrays themselves — the exact structures the
bulk engine consumes as its adjacency:

* ``indptr``/``indices`` round-trip against the dict adjacency,
  preserving the builder's insertion order exactly;
* symmetric-edge consistency (row i contains j iff row j contains i);
* awake-set and vertex-order stability across store save/load and
  payload round-trips.

These tests are dependency-light on purpose (plain Python lists); the
numpy/scipy view tests at the bottom carry the ``bulk`` marker and are
skipped without the extras.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.compile import (
    CompiledTopology,
    TopologyStore,
    clear_memory_cache,
    compiled_for_graph,
    compiled_topology,
)
from repro.graphs.generators import (
    connected_erdos_renyi,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph


def _zoo():
    return {
        "path10": path_graph(10),
        "cycle8": cycle_graph(8),
        "star12": star_graph(12),
        "grid4x4": grid_graph(4, 4),
        "tree20": random_tree(20, seed=7),
        "er40": connected_erdos_renyi(40, 0.12, seed=11),
    }


def _assert_csr_matches(topo: CompiledTopology, graph: Graph) -> None:
    verts = topo.verts
    index = {v: i for i, v in enumerate(verts)}
    assert verts == list(graph.vertices())  # insertion order preserved
    assert topo.indptr[0] == 0
    assert topo.indptr[-1] == len(topo.indices)
    assert len(topo.indptr) == len(verts) + 1
    # Monotone row pointers.
    assert all(
        a <= b for a, b in zip(topo.indptr, topo.indptr[1:])
    )
    for i, v in enumerate(verts):
        row = topo.indices[topo.indptr[i] : topo.indptr[i + 1]]
        # Exact neighbor order, not just the set.
        assert [verts[j] for j in row] == graph.neighbors(v)
    # Each undirected edge appears exactly twice.
    assert len(topo.indices) == 2 * sum(1 for _ in graph.edges())


def _assert_symmetric(topo: CompiledTopology) -> None:
    rows = [
        set(topo.indices[topo.indptr[i] : topo.indptr[i + 1]])
        for i in range(topo.n)
    ]
    for i, row in enumerate(rows):
        assert i not in row  # no self-loops
        for j in row:
            assert i in rows[j], f"edge ({i},{j}) has no reverse entry"


class TestCsrRoundTrip:
    @pytest.mark.parametrize("name", sorted(_zoo()))
    def test_against_dict_adjacency(self, name):
        graph = _zoo()[name]
        topo = CompiledTopology.compile(
            graph, [next(iter(graph.vertices()))]
        )
        _assert_csr_matches(topo, graph)
        _assert_symmetric(topo)

    @pytest.mark.parametrize("name", sorted(_zoo()))
    def test_materialized_graph_round_trips(self, name):
        """Compile -> payload -> materialize must reproduce adjacency
        and vertex order exactly (the bit-identical-rows contract)."""
        graph = _zoo()[name]
        topo = CompiledTopology.compile(
            graph, [next(iter(graph.vertices()))]
        )
        rebuilt = CompiledTopology.from_payload(topo.to_payload())
        g2 = rebuilt.graph()
        assert list(g2.vertices()) == list(graph.vertices())
        for v in graph.vertices():
            assert g2.neighbors(v) == graph.neighbors(v)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
        extra=st.integers(min_value=0, max_value=60),
    )
    def test_property_random_graphs(self, n, seed, extra):
        rng = random.Random(seed)
        g = Graph(range(n))
        for v in range(1, n):
            g.add_edge(v, rng.randrange(v))
        for _ in range(extra):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b)
        topo = CompiledTopology.compile(g, [0])
        _assert_csr_matches(topo, g)
        _assert_symmetric(topo)
        rebuilt = CompiledTopology.from_payload(topo.to_payload())
        assert rebuilt.verts == topo.verts
        assert rebuilt.indptr == topo.indptr
        assert rebuilt.indices == topo.indices
        assert rebuilt.awake == topo.awake


class TestStoreStability:
    def test_save_load_preserves_arrays_and_awake(self, tmp_path):
        clear_memory_cache()
        store = TopologyStore(tmp_path)
        spec = {"kind": "er_fraction_wake", "fraction": 0.2, "seed": 3}
        topo = compiled_topology(spec, 32, store=store)
        clear_memory_cache()  # force the disk path
        stats = {}
        again = compiled_topology(spec, 32, store=store, stats=stats)
        assert stats == {"hit_disk": 1}
        assert again.verts == topo.verts
        assert again.indptr == topo.indptr
        assert again.indices == topo.indices
        assert again.awake == topo.awake
        assert again.rho_awk == topo.rho_awk
        assert again.awake_vertices() == topo.awake_vertices()
        clear_memory_cache()

    def test_compiled_for_graph_lookup(self):
        clear_memory_cache()
        spec = {"kind": "er_single_wake", "seed": 5}
        topo = compiled_topology(spec, 24)
        graph = topo.graph()
        assert compiled_for_graph(graph) is topo
        # An unrelated graph (even an identical copy) never matches.
        other = cycle_graph(24)
        assert compiled_for_graph(other) is None
        clear_memory_cache()
        assert compiled_for_graph(graph) is None
        clear_memory_cache()


@pytest.mark.bulk
class TestBulkViews:
    def test_csr_views_match_topology(self):
        import numpy as np

        from repro.sim.bulk import _csr_views
        from repro.models.knowledge import Knowledge, make_setup

        clear_memory_cache()
        spec = {"kind": "er_single_wake", "seed": 9}
        topo = compiled_topology(spec, 40)
        setup = make_setup(
            topo.graph(), knowledge=Knowledge.KT1, seed=1, compiled=topo
        )
        verts, indptr, indices, A = _csr_views(setup)
        assert verts is topo.verts  # reused, not copied
        assert indptr.tolist() == list(topo.indptr)
        assert indices.tolist() == list(topo.indices)
        # Memoized on the artifact: same arrays next time.
        _, indptr2, _, A2 = _csr_views(setup)
        assert indptr2 is indptr and A2 is A
        assert "bulk_csr" in topo._runtime
        # The matrix is the symmetric 0/1 adjacency.
        assert (A != A.T).nnz == 0
        assert A.sum() == len(topo.indices)
        degrees = np.diff(indptr)
        g = topo.graph()
        assert degrees.tolist() == [g.degree(v) for v in verts]
        clear_memory_cache()

    def test_csr_views_plain_graph_fallback(self):
        from repro.sim.bulk import _csr_views
        from repro.models.knowledge import Knowledge, make_setup

        clear_memory_cache()
        g = grid_graph(5, 5)
        setup = make_setup(g, knowledge=Knowledge.KT1, seed=1)
        verts, indptr, indices, A = _csr_views(setup)
        assert verts == list(g.vertices())
        index = {v: i for i, v in enumerate(verts)}
        for i, v in enumerate(verts):
            row = indices[indptr[i] : indptr[i + 1]].tolist()
            assert row == [index[u] for u in g.neighbors(v)]
        assert (A != A.T).nnz == 0
