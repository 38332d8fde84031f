"""Tests for graph traversals, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.generators import (
    complete_graph,
    connected_erdos_renyi,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.traversal import (
    awake_distance,
    bfs_children,
    bfs_distances,
    bfs_tree,
    connected_components,
    dfs_preorder,
    diameter,
    eccentricity,
    girth,
    is_bipartite,
    is_connected,
    is_tree,
    multi_source_bfs,
    shortest_path,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


class TestBfs:
    def test_distances_path(self):
        g = path_graph(6)
        d = bfs_distances(g, 0)
        assert d == {i: i for i in range(6)}

    def test_distances_unknown_source(self):
        with pytest.raises(GraphError):
            bfs_distances(Graph(), 0)

    def test_distances_match_networkx(self):
        g = connected_erdos_renyi(40, 0.1, seed=3)
        ours = bfs_distances(g, 0)
        theirs = nx.single_source_shortest_path_length(to_nx(g), 0)
        assert ours == dict(theirs)

    def test_multi_source(self):
        g = path_graph(10)
        d = multi_source_bfs(g, [0, 9])
        assert d[5] == 4
        assert d[0] == 0 and d[9] == 0

    def test_multi_source_empty_raises(self):
        with pytest.raises(GraphError):
            multi_source_bfs(path_graph(3), [])

    def test_bfs_tree_parents(self):
        g = cycle_graph(5)
        parent, depth = bfs_tree(g, 0)
        assert parent[0] is None
        assert depth[0] == 0
        for v, p in parent.items():
            if p is not None:
                assert depth[v] == depth[p] + 1
                assert g.has_edge(v, p)

    def test_bfs_children_inverts_parent(self):
        g = grid_graph(3, 3)
        parent, _ = bfs_tree(g, 0)
        children = bfs_children(parent)
        for p, kids in children.items():
            for c in kids:
                assert parent[c] == p
        # every non-root appears exactly once as a child
        all_children = [c for kids in children.values() for c in kids]
        assert sorted(map(str, all_children)) == sorted(
            str(v) for v in g.vertices() if parent[v] is not None
        )


class TestAwakeDistance:
    def test_single_source_equals_eccentricity(self):
        g = grid_graph(4, 5)
        assert awake_distance(g, [0]) == eccentricity(g, 0)

    def test_all_awake_is_zero(self):
        g = path_graph(7)
        assert awake_distance(g, list(g.vertices())) == 0

    def test_dominating_set_is_one(self):
        g = star_graph(10)
        assert awake_distance(g, [0]) == 1

    def test_unreachable_raises(self):
        g = Graph([0, 1])
        with pytest.raises(GraphError):
            awake_distance(g, [0])

    def test_never_exceeds_diameter(self):
        g = connected_erdos_renyi(35, 0.12, seed=9)
        d = diameter(g)
        for v in list(g.vertices())[:5]:
            assert awake_distance(g, [v]) <= d


class TestComponentsAndShape:
    def test_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], vertices=[4])
        comps = connected_components(g)
        assert sorted(sorted(map(str, c)) for c in comps) == [
            ["0", "1"],
            ["2", "3"],
            ["4"],
        ]

    def test_is_connected(self):
        assert is_connected(path_graph(5))
        assert not is_connected(Graph([0, 1]))
        assert is_connected(Graph())

    def test_is_tree(self):
        assert is_tree(random_tree(15, seed=1))
        assert is_tree(path_graph(4))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(Graph([0, 1]))  # forest but disconnected
        assert is_tree(Graph())

    def test_is_bipartite(self):
        assert is_bipartite(grid_graph(3, 4))
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))
        assert not is_bipartite(complete_graph(3))

    def test_dfs_preorder_visits_all(self):
        g = connected_erdos_renyi(25, 0.15, seed=2)
        order = dfs_preorder(g, 0)
        assert sorted(order) == sorted(g.vertices())
        assert order[0] == 0

    def test_dfs_preorder_unknown_root(self):
        with pytest.raises(GraphError):
            dfs_preorder(Graph(), 1)


class TestDiameterGirth:
    def test_diameter_known_values(self):
        assert diameter(path_graph(6)) == 5
        assert diameter(cycle_graph(8)) == 4
        assert diameter(complete_graph(5)) == 1
        assert diameter(star_graph(9)) == 2
        assert diameter(Graph()) == 0

    def test_diameter_matches_networkx(self):
        g = connected_erdos_renyi(30, 0.12, seed=17)
        assert diameter(g) == nx.diameter(to_nx(g))

    def test_eccentricity_disconnected_raises(self):
        with pytest.raises(GraphError):
            eccentricity(Graph([0, 1]), 0)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(
            ["er", "tree", "path", "cycle", "star", "grid", "complete",
             "disconnected"]
        ),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    def test_diameter_matches_all_sources_bfs(self, kind, n, seed):
        if kind == "er":
            g = connected_erdos_renyi(n, 3.0 / max(n - 1, 1), seed=seed)
        elif kind == "tree":
            g = random_tree(n, seed=seed)
        elif kind == "path":
            g = path_graph(n)
        elif kind == "cycle":
            g = cycle_graph(max(n, 3))
        elif kind == "star":
            g = star_graph(n)
        elif kind == "grid":
            g = grid_graph(1 + seed % 6, 1 + n % 7)
        elif kind == "complete":
            g = complete_graph(n)
        else:
            g = random_tree(n, seed=seed)
            g.add_vertex("isolated")
        vertices = list(g.vertices())
        reach = [bfs_distances(g, v) for v in vertices]
        if any(len(dist) != len(vertices) for dist in reach):
            with pytest.raises(GraphError):
                diameter(g)
            return
        assert diameter(g) == max(max(dist.values()) for dist in reach)

    def test_girth_known_values(self):
        assert girth(cycle_graph(7)) == 7
        assert girth(complete_graph(4)) == 3
        assert girth(path_graph(5)) == float("inf")
        assert girth(grid_graph(3, 3)) == 4

    def test_girth_matches_networkx(self):
        for seed in range(5):
            g = connected_erdos_renyi(20, 0.2, seed=seed)
            expected = nx.girth(to_nx(g))
            assert girth(g) == expected


class TestShortestPath:
    def test_path_endpoints_and_length(self):
        g = grid_graph(4, 4)
        p = shortest_path(g, 0, 15)
        assert p[0] == 0 and p[-1] == 15
        assert len(p) - 1 == bfs_distances(g, 0)[15]
        for u, v in zip(p, p[1:]):
            assert g.has_edge(u, v)

    def test_unreachable_is_none(self):
        g = Graph([0, 1])
        assert shortest_path(g, 0, 1) is None

    def test_unknown_target_raises(self):
        with pytest.raises(GraphError):
            shortest_path(path_graph(3), 0, 99)


@given(seed=st.integers(0, 1000), n=st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_tree_has_infinite_girth_and_n_minus_1_edges(seed, n):
    g = random_tree(n, seed=seed)
    assert g.num_edges == n - 1
    assert girth(g) == float("inf")
    assert is_connected(g)


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_awake_distance_monotone_in_awake_set(seed):
    """Adding awake nodes can only shrink the awake distance."""
    import random

    g = connected_erdos_renyi(25, 0.15, seed=seed)
    rng = random.Random(seed)
    verts = list(g.vertices())
    a = rng.sample(verts, 3)
    bigger = a + rng.sample([v for v in verts if v not in a], 3)
    assert awake_distance(g, bigger) <= awake_distance(g, a)
