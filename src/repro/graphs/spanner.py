"""Graph spanners.

Theorem 6 of the paper encodes "the edges of a suitable graph spanner"
as advice: a subgraph H of G such that dist_H(u, v) <= t * dist_G(u, v)
for all u, v (a *t-spanner*).  Flooding over a (2k-1)-spanner with
O(k * n^(1+1/k)) edges wakes every node within a (2k-1) * rho_awk hop
radius, which yields the paper's time/message trade-off.

We implement:

* :func:`baswana_sen_spanner` — the classic randomized clustering
  algorithm of Baswana & Sen producing a (2k-1)-spanner with
  O(k * n^(1+1/k)) edges in expectation;
* :func:`bfs_tree_spanner` — the degenerate "spanning tree" spanner used
  by the BFS-advice schemes;
* :func:`verify_spanner` — exact stretch verification (all-pairs BFS),
  used by tests and the Theorem-6 bench.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex
from repro.graphs.traversal import bfs_distances, bfs_tree, connected_components

RandomLike = random.Random


def bfs_tree_spanner(graph: Graph, root: Optional[Vertex] = None) -> Graph:
    """Spanning forest of BFS trees (one per component).

    For a connected graph this is a D-additive-ish spanner with at most
    2D multiplicative stretch and exactly n - 1 edges.
    """
    spanner = Graph(graph.vertices())
    for comp in connected_components(graph):
        r = root if (root is not None and root in comp) else comp[0]
        parent, _ = bfs_tree(graph, r)
        for v, p in parent.items():
            if p is not None:
                spanner.add_edge_safe(v, p)
    return spanner


def baswana_sen_spanner(
    graph: Graph, k: int, seed: random.Random | int | None = None
) -> Graph:
    """Randomized (2k-1)-spanner of Baswana & Sen (2007).

    Phase 1 runs k - 1 rounds of cluster sampling (each cluster center
    survives with probability n^(-1/k)); unsampled vertices either join
    the nearest sampled neighboring cluster (adding one edge) or add one
    edge to *every* neighboring cluster.  Phase 2 joins each vertex to
    every cluster remaining in its neighborhood.

    Expected size O(k * n^(1+1/k)); stretch exactly 2k - 1.
    """
    if k < 1:
        raise GraphError("spanner parameter k must be >= 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = graph.num_vertices
    if n == 0:
        return Graph()
    if k == 1:
        return graph.copy()

    sample_p = n ** (-1.0 / k)
    spanner = Graph(graph.vertices())

    # cluster[v] = center of v's current cluster (or None if discarded).
    cluster: Dict[Vertex, Optional[Vertex]] = {v: v for v in graph.vertices()}
    # Edges still under consideration, as adjacency sets.
    alive: Dict[Vertex, Set[Vertex]] = {
        v: set(graph.neighbors(v)) for v in graph.vertices()
    }

    def discard_edge(u: Vertex, v: Vertex) -> None:
        alive[u].discard(v)
        alive[v].discard(u)

    for _ in range(k - 1):
        # --- sample cluster centers for the next level -----------------
        centers = {c for c in set(cluster.values()) if c is not None}
        sampled = {c for c in centers if rng.random() < sample_p}
        new_cluster: Dict[Vertex, Optional[Vertex]] = {}
        for v in graph.vertices():
            c = cluster[v]
            if c is not None and c in sampled:
                new_cluster[v] = c

        # --- handle vertices not adjacent to any sampled cluster -------
        for v in graph.vertices():
            if v in new_cluster:
                continue
            if cluster[v] is None:
                new_cluster[v] = None
                continue
            # Group v's alive neighbors by their (old) cluster.
            by_cluster: Dict[Vertex, List[Vertex]] = {}
            for u in list(alive[v]):
                cu = cluster.get(u)
                if cu is not None:
                    by_cluster.setdefault(cu, []).append(u)
            sampled_adjacent = [c for c in by_cluster if c in sampled]
            if sampled_adjacent:
                # Join one sampled neighboring cluster via one edge...
                c = min(sampled_adjacent, key=_stable_key)
                u = min(by_cluster[c], key=_stable_key)
                spanner.add_edge_safe(v, u)
                new_cluster[v] = c
                # ...and drop edges into clusters "closer or equal":
                # standard BS drops edges to clusters with smaller weight;
                # in the unweighted case drop edges into every
                # non-sampled neighboring cluster after adding one edge
                # into each (see else-branch behaviour below).
                for c2, nbrs in by_cluster.items():
                    if c2 == c:
                        for u2 in nbrs:
                            discard_edge(v, u2)
            else:
                # No sampled neighboring cluster: add one edge per
                # neighboring cluster, then retire v from clustering.
                for c2, nbrs in by_cluster.items():
                    u = min(nbrs, key=_stable_key)
                    spanner.add_edge_safe(v, u)
                    for u2 in nbrs:
                        discard_edge(v, u2)
                new_cluster[v] = None
        cluster = new_cluster

        # --- remove intra-cluster alive edges ---------------------------
        for v in graph.vertices():
            cv = cluster[v]
            if cv is None:
                continue
            for u in list(alive[v]):
                if cluster.get(u) == cv:
                    discard_edge(v, u)

    # Phase 2: vertex--cluster joining.
    for v in graph.vertices():
        by_cluster: Dict[Vertex, List[Vertex]] = {}
        for u in alive[v]:
            cu = cluster.get(u)
            if cu is not None:
                by_cluster.setdefault(cu, []).append(u)
        for c, nbrs in by_cluster.items():
            u = min(nbrs, key=_stable_key)
            spanner.add_edge_safe(v, u)
            for u2 in nbrs:
                alive[u2].discard(v)
        alive[v] = set()

    return spanner


def _stable_key(v: Vertex) -> Tuple[str, str]:
    """Deterministic tiebreak key for arbitrary hashable vertices."""
    return (type(v).__name__, repr(v))


def greedy_spanner(graph: Graph, k: int) -> Graph:
    """Deterministic greedy (2k-1)-spanner (Althöfer et al. 1993).

    Process edges in a canonical order; keep edge (u, v) iff the
    spanner built so far has dist(u, v) > 2k - 1.  The result has girth
    > 2k, hence at most n^{1+1/k} + n edges, and stretch exactly 2k - 1
    — with no randomness, matching the determinism of the paper's
    Theorem-6 advising scheme.

    Cost is O(m * (n + m)) from the per-edge BFS; fine at bench scale.
    """
    if k < 1:
        raise GraphError("spanner parameter k must be >= 1")
    spanner = Graph(graph.vertices())
    limit = 2 * k - 1
    for u, v in sorted(graph.edges(), key=lambda e: (_stable_key(e[0]), _stable_key(e[1]))):
        if _bounded_distance_exceeds(spanner, u, v, limit):
            spanner.add_edge(u, v)
    return spanner


def _bounded_distance_exceeds(
    graph: Graph, source: Vertex, target: Vertex, limit: int
) -> bool:
    """True iff dist_graph(source, target) > limit (depth-capped BFS)."""
    if source == target:
        return False
    from collections import deque

    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        d = dist[x]
        if d >= limit:
            continue
        for y in graph.neighbors(x):
            if y == target:
                return False
            if y not in dist:
                dist[y] = d + 1
                queue.append(y)
    return True


def verify_spanner(graph: Graph, spanner: Graph, stretch: float) -> bool:
    """Exact check that ``spanner`` is a subgraph t-spanner of ``graph``.

    It suffices to check stretch on the *edges* of G: if every edge
    (u, v) of G satisfies dist_H(u, v) <= t, then every path (and hence
    every distance) is stretched by at most t.
    """
    for u, v in spanner.edges():
        if not graph.has_edge(u, v):
            return False
    # Group edge checks by source to reuse BFS runs.
    for u in graph.vertices():
        nbrs = graph.neighbors(u)
        if not nbrs:
            continue
        dist = bfs_distances(spanner, u)
        for v in nbrs:
            if dist.get(v, float("inf")) > stretch:
                return False
    return True
