"""Graph traversal and distance algorithms.

These routines back both the centralized oracles (which are allowed to see
the whole graph, per the advising-scheme model of Sec 1.1) and the test
suite.  They include the paper's *awake distance* (Eq. 1 in Sec 1.2):

    rho_awk(G, A0) = max_u dist_G(A0, u)

which equals the time complexity of plain flooding and lower-bounds the
time complexity of any wake-up algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.errors import GraphError
from repro.graphs.graph import Graph, Vertex

INF = float("inf")


def bfs_distances(graph: Graph, source: Vertex) -> Dict[Vertex, int]:
    """Hop distances from ``source`` to every reachable vertex."""
    if not graph.has_vertex(source):
        raise GraphError(f"source {source!r} not in graph")
    dist: Dict[Vertex, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def multi_source_bfs(
    graph: Graph, sources: Iterable[Vertex]
) -> Dict[Vertex, int]:
    """Hop distance from the *set* ``sources`` to every reachable vertex.

    This is the quantity dist_G(A0, u) used in the awake-distance
    definition (Eq. 1).
    """
    dist: Dict[Vertex, int] = {}
    queue: deque = deque()
    for s in sources:
        if not graph.has_vertex(s):
            raise GraphError(f"source {s!r} not in graph")
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    if not dist:
        raise GraphError("multi_source_bfs requires at least one source")
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist


def awake_distance(graph: Graph, awake: Iterable[Vertex]) -> int:
    """The paper's awake distance rho_awk(G, A0) (Sec 1.2, Eq. 1).

    Raises :class:`GraphError` if some vertex is unreachable from the
    awake set (the wake-up problem is then unsolvable).
    """
    dist = multi_source_bfs(graph, awake)
    if len(dist) != graph.num_vertices:
        unreachable = set(graph.vertices()) - set(dist)
        raise GraphError(
            f"{len(unreachable)} vertices unreachable from awake set"
        )
    return max(dist.values(), default=0)


def bfs_tree(
    graph: Graph, root: Vertex
) -> Tuple[Dict[Vertex, Optional[Vertex]], Dict[Vertex, int]]:
    """BFS tree from ``root``.

    Returns ``(parent, depth)`` where ``parent[root] is None``.  Children
    are explored in adjacency (insertion) order so the tree is
    deterministic for a deterministically built graph.
    """
    if not graph.has_vertex(root):
        raise GraphError(f"root {root!r} not in graph")
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    depth: Dict[Vertex, int] = {root: 0}
    queue: deque = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                queue.append(v)
    return parent, depth


def bfs_children(
    parent: Dict[Vertex, Optional[Vertex]]
) -> Dict[Vertex, List[Vertex]]:
    """Invert a parent map into a children map (roots included with
    possibly empty child lists)."""
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    return children


def dfs_preorder(graph: Graph, root: Vertex) -> List[Vertex]:
    """Iterative DFS preorder from ``root`` (neighbors in adjacency order)."""
    if not graph.has_vertex(root):
        raise GraphError(f"root {root!r} not in graph")
    order: List[Vertex] = []
    seen = {root}
    stack: List[Vertex] = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        # reversed() keeps the first-inserted neighbor on top of the stack
        for v in reversed(graph.neighbors(u)):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return order


def connected_components(graph: Graph) -> List[List[Vertex]]:
    """Connected components, each listed in BFS discovery order."""
    seen: set = set()
    components: List[List[Vertex]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        comp: List[Vertex] = []
        queue: deque = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(comp)
    return components


def is_connected(graph: Graph) -> bool:
    """True iff the graph has at most one connected component."""
    if graph.num_vertices == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(bfs_distances(graph, first)) == graph.num_vertices


def eccentricity(graph: Graph, v: Vertex) -> int:
    """Largest hop distance from ``v``; raises if the graph is disconnected
    as seen from ``v``."""
    dist = bfs_distances(graph, v)
    if len(dist) != graph.num_vertices:
        raise GraphError("eccentricity undefined on disconnected graph")
    return max(dist.values(), default=0)


def diameter(graph: Graph) -> int:
    """Exact diameter by BoundingDiameters (Takes & Kosters, 2011).

    A BFS from ``v`` with eccentricity ``e`` bounds the diameter to
    ``[e, 2e]`` and every vertex ``w`` at distance ``d`` to an
    eccentricity in ``[max(e - d, d), e + d]``.  A vertex whose bounds
    meet, or whose eccentricity could neither raise the diameter's
    lower bound nor lower its upper bound, needs no BFS of its own.
    Sources alternate between the candidate with the largest upper
    bound and the one with the smallest lower bound (ties: higher
    degree), so on small-world graphs a handful of BFS runs settle what
    all-sources BFS takes n for.  Raises :class:`GraphError` on a
    disconnected graph.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    adj = {v: graph.neighbors(v) for v in graph.vertices()}
    ecc_lo = dict.fromkeys(adj, 0)
    ecc_hi = dict.fromkeys(adj, n)
    candidates = list(adj)
    lower, upper = 0, n
    take_high = True
    while lower < upper and candidates:
        if take_high:
            v = max(candidates, key=lambda w: (ecc_hi[w], len(adj[w])))
        else:
            v = min(candidates, key=lambda w: (ecc_lo[w], -len(adj[w])))
        take_high = not take_high
        dist = _bfs_levels(adj, v)
        if len(dist) != n:
            raise GraphError("eccentricity undefined on disconnected graph")
        e = max(dist.values())
        upper = min(upper, 2 * e)
        for w in candidates:
            d = dist[w]
            lo = ecc_lo[w] = max(ecc_lo[w], e - d, d)
            ecc_hi[w] = min(ecc_hi[w], e + d)
            if lo > lower:
                lower = lo
        # A dropped vertex's eccentricity is at most ``lower``, so the
        # diameter is at most the largest upper bound left.
        candidates = [
            w
            for w in candidates
            if ecc_lo[w] < ecc_hi[w]
            and not (ecc_hi[w] <= lower and 2 * ecc_lo[w] >= upper)
        ]
        upper = min(upper, max([lower] + [ecc_hi[w] for w in candidates]))
    return lower


def _bfs_levels(adj: Dict[Vertex, List[Vertex]], source: Vertex) -> Dict[Vertex, int]:
    """Hop distances from ``source`` over an adjacency-list dict."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return dist


def girth(graph: Graph) -> float:
    """Length of the shortest cycle, or ``inf`` for a forest.

    Uses the standard BFS-per-vertex technique: when BFS from root r
    discovers an edge between two already-visited vertices u, v, there is
    a cycle through r of length at most depth(u) + depth(v) + 1.  Running
    this from every root yields the exact girth.
    """
    best = INF
    for root in graph.vertices():
        depth: Dict[Vertex, int] = {root: 0}
        parent: Dict[Vertex, Optional[Vertex]] = {root: None}
        queue: deque = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * depth[u] >= best - 1:
                # No shorter cycle can be found deeper in this BFS.
                break
            for v in graph.neighbors(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    # Non-tree edge: cycle through root of bounded length.
                    best = min(best, depth[u] + depth[v] + 1)
    return best


def shortest_path(
    graph: Graph, source: Vertex, target: Vertex
) -> Optional[List[Vertex]]:
    """A shortest source→target path as a vertex list, or None if
    unreachable."""
    if not graph.has_vertex(target):
        raise GraphError(f"target {target!r} not in graph")
    parent, _ = bfs_tree(graph, source)
    if target not in parent:
        return None
    path: List[Vertex] = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def is_bipartite(graph: Graph) -> bool:
    """True iff the graph admits a proper 2-coloring."""
    color: Dict[Vertex, int] = {}
    for start in graph.vertices():
        if start in color:
            continue
        color[start] = 0
        queue: deque = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def is_tree(graph: Graph) -> bool:
    """True iff the graph is connected and has exactly n-1 edges."""
    n = graph.num_vertices
    if n == 0:
        return True
    return graph.num_edges == n - 1 and is_connected(graph)
