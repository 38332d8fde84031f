"""Tests for graph generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import (
    attach_pendants,
    barbell_graph,
    binary_tree,
    caterpillar_graph,
    complete_bipartite,
    complete_graph,
    connected_erdos_renyi,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    lollipop_graph,
    path_graph,
    random_bipartite_regular,
    random_regular,
    random_tree,
    star_graph,
    tree_from_prufer,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    diameter,
    is_bipartite,
    is_connected,
    is_tree,
)


class TestDeterministicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 4
        assert diameter(g) == 4

    def test_path_trivial(self):
        assert path_graph(0).num_vertices == 0
        assert path_graph(1).num_edges == 0
        with pytest.raises(GraphError):
            path_graph(-1)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(8)
        assert g.degree(0) == 7
        assert all(g.degree(v) == 1 for v in range(1, 8))
        with pytest.raises(GraphError):
            star_graph(0)

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert all(g.degree(v) == 5 for v in g.vertices())

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.num_vertices == 7
        assert g.num_edges == 12
        assert is_bipartite(g)
        assert all(g.degree(v) == 4 for v in range(3))
        assert all(g.degree(v) == 3 for v in range(3, 7))

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert diameter(g) == 2 + 3
        with pytest.raises(GraphError):
            grid_graph(0, 3)

    def test_binary_tree(self):
        g = binary_tree(3)
        assert g.num_vertices == 15
        assert is_tree(g)
        assert g.degree(0) == 2

    def test_binary_tree_invalid(self):
        with pytest.raises(GraphError):
            binary_tree(-1)

    def test_barbell(self):
        g = barbell_graph(5, 3)
        assert g.num_vertices == 13
        assert is_connected(g)
        # Two K5s -> at least 2 * C(5,2) + bridge edges
        assert g.num_edges == 2 * 10 + 4

    def test_barbell_zero_bridge(self):
        g = barbell_graph(3, 0)
        assert is_connected(g)
        assert g.num_vertices == 6

    def test_lollipop(self):
        g = lollipop_graph(6, 4)
        assert g.num_vertices == 10
        assert is_connected(g)
        # footnote-3 shape: tail endpoint has degree 1
        assert g.degree(9) == 1

    def test_caterpillar(self):
        g = caterpillar_graph(4, 3)
        assert g.num_vertices == 4 + 12
        assert is_tree(g)


class TestRandomTrees:
    def test_prufer_roundtrip_known(self):
        # Prüfer sequence (3, 3, 3) is the star centered at 3 on 5 nodes.
        g = tree_from_prufer([3, 3, 3])
        assert g.degree(3) == 4

    def test_prufer_out_of_range(self):
        with pytest.raises(GraphError):
            tree_from_prufer([9])

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_random_tree_is_tree(self, seed, n):
        assert is_tree(random_tree(n, seed=seed))

    def test_random_tree_invalid(self):
        with pytest.raises(GraphError):
            random_tree(0)

    def test_random_tree_deterministic(self):
        a = random_tree(20, seed=42)
        b = random_tree(20, seed=42)
        assert a == b


class TestErdosRenyi:
    def test_p_extremes(self):
        assert erdos_renyi(10, 0.0, seed=1).num_edges == 0
        assert erdos_renyi(10, 1.0, seed=1).num_edges == 45

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 1.5)

    def test_require_connected(self):
        g = erdos_renyi(20, 0.3, seed=3, require_connected=True)
        assert is_connected(g)

    def test_require_connected_impossible(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, 0.0, seed=1, require_connected=True, max_attempts=3)

    def test_connected_variant_always_connected(self):
        for seed in range(5):
            g = connected_erdos_renyi(30, 0.01, seed=seed)
            assert is_connected(g)
            assert g.num_edges >= 29

    def test_deterministic(self):
        assert erdos_renyi(15, 0.3, seed=7) == erdos_renyi(15, 0.3, seed=7)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 200, 512])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_connected_variant_matches_reference_loop(self, n, seed):
        # Callers pass avg_degree / (n - 1), which exceeds 1 for n <= 7.
        for p in (0.0, 0.05, 6.0 / max(1, n - 1), 1.0, 2.0):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = connected_erdos_renyi(n, p, seed=rng)
            want = _reference_connected_erdos_renyi(n, p, ref_rng)
            # Same adjacency in insertion order (which sets ports) ...
            assert _adjacency(got) == _adjacency(want)
            # ... and the same number of draws from a shared generator.
            assert rng.random() == ref_rng.random()
            assert _adjacency(connected_erdos_renyi(n, p, seed=seed)) == (
                _adjacency(_reference_connected_erdos_renyi(n, p, seed))
            )


def _reference_connected_erdos_renyi(n, p, seed):
    """The has_edge/add_edge double loop connected_erdos_renyi replaced."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    g = random_tree(n, rng) if n >= 1 else Graph()
    for i in range(n):
        for j in range(i + 1, n):
            if not g.has_edge(i, j) and rng.random() < p:
                g.add_edge(i, j)
    return g


def _adjacency(g):
    return [(v, g.neighbors(v)) for v in g.vertices()]


class TestRegular:
    @given(
        n=st.integers(4, 30),
        d=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_regular_degrees(self, n, d):
        if d >= n or (n * d) % 2 == 1:
            with pytest.raises(GraphError):
                random_regular(n, d, seed=0)
            return
        g = random_regular(n, d, seed=0)
        assert all(g.degree(v) == d for v in g.vertices())

    def test_zero_regular(self):
        g = random_regular(5, 0, seed=0)
        assert g.num_edges == 0

    def test_bipartite_regular(self):
        g = random_bipartite_regular(10, 3, seed=4)
        assert g.num_vertices == 20
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert is_bipartite(g)

    def test_bipartite_regular_degree_too_big(self):
        with pytest.raises(GraphError):
            random_bipartite_regular(3, 4)


class TestAttachPendants:
    def test_basic(self):
        g = complete_graph(4)
        g2, matching = attach_pendants(g, [0, 2])
        assert g2.num_vertices == 6
        assert len(matching) == 2
        for host, pendant in matching:
            assert g2.degree(pendant) == 1
            assert g2.has_edge(host, pendant)

    def test_original_untouched(self):
        g = complete_graph(3)
        attach_pendants(g, [0])
        assert g.num_vertices == 3

    def test_unknown_host(self):
        with pytest.raises(GraphError):
            attach_pendants(complete_graph(3), [99])

    def test_custom_labels(self):
        g = path_graph(3)
        g2, matching = attach_pendants(g, [1], start_label=100)
        assert matching == [(1, 100)]


class TestHypercubeAndTorus:
    def test_hypercube_structure(self):
        from repro.graphs.generators import hypercube_graph
        from repro.graphs.traversal import diameter, is_bipartite

        g = hypercube_graph(4)
        assert g.num_vertices == 16
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.num_edges == 16 * 4 // 2
        assert diameter(g) == 4
        assert is_bipartite(g)

    def test_hypercube_trivial(self):
        from repro.graphs.generators import hypercube_graph

        assert hypercube_graph(0).num_vertices == 1
        with pytest.raises(GraphError):
            hypercube_graph(-1)

    def test_torus_structure(self):
        from repro.graphs.generators import torus_graph
        from repro.graphs.traversal import diameter

        g = torus_graph(4, 6)
        assert g.num_vertices == 24
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.num_edges == 2 * 24
        assert diameter(g) == 4 // 2 + 6 // 2

    def test_torus_minimum_size(self):
        from repro.graphs.generators import torus_graph

        with pytest.raises(GraphError):
            torus_graph(2, 5)

    def test_hypercube_neighbors_differ_by_one_bit(self):
        from repro.graphs.generators import hypercube_graph

        g = hypercube_graph(5)
        for v in g.vertices():
            for u in g.neighbors(v):
                assert bin(u ^ v).count("1") == 1


class TestRandomGeometric:
    def test_connected_by_default(self):
        from repro.graphs.generators import random_geometric

        g = random_geometric(60, radius=0.35, seed=1)
        assert g.num_vertices == 60
        assert is_connected(g)

    def test_radius_monotone_in_edges(self):
        from repro.graphs.generators import random_geometric

        sparse = random_geometric(
            50, radius=0.2, seed=5, require_connected=False
        )
        dense = random_geometric(
            50, radius=0.5, seed=5, require_connected=False
        )
        assert dense.num_edges > sparse.num_edges

    def test_radius_one_is_complete(self):
        from repro.graphs.generators import random_geometric

        g = random_geometric(20, radius=1.5, seed=2)
        assert g.num_edges == 20 * 19 // 2

    def test_tiny_radius_fails_connectivity(self):
        from repro.graphs.generators import random_geometric

        with pytest.raises(GraphError):
            random_geometric(40, radius=0.01, seed=3, max_attempts=3)

    def test_invalid_params(self):
        from repro.graphs.generators import random_geometric

        with pytest.raises(GraphError):
            random_geometric(0, 0.5)
        with pytest.raises(GraphError):
            random_geometric(5, 0.0)

    def test_deterministic(self):
        from repro.graphs.generators import random_geometric

        a = random_geometric(30, 0.4, seed=9)
        b = random_geometric(30, 0.4, seed=9)
        assert a == b

    def test_wakeup_on_geometric_workload(self):
        """The WoWLAN motivation end to end: CEN advice on a radio
        topology."""
        from repro.core.child_encoding import ChildEncodingAdvice
        from repro.graphs.generators import random_geometric
        from repro.models.knowledge import Knowledge, make_setup
        from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
        from repro.sim.runner import run_wakeup

        g = random_geometric(80, radius=0.3, seed=11)
        setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=1)
        r = run_wakeup(
            setup, ChildEncodingAdvice(),
            Adversary(WakeSchedule.singleton(0), UnitDelay()),
            engine="async",
        )
        assert r.all_awake
        assert r.messages <= 3 * 79
