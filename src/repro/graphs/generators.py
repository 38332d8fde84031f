"""Deterministic and randomized graph generators.

All randomized generators take an explicit :class:`random.Random` (or an
integer seed) so experiments are reproducible.  Vertices are labeled
``0..n-1`` unless documented otherwise; the simulator assigns node *IDs*
separately (see :mod:`repro.models.knowledge`), so vertex labels are pure
topology handles.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple, Union

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected

RandomLike = Union[random.Random, int, None]


def _rng(seed: RandomLike) -> random.Random:
    """Normalize a seed-or-Random argument into a Random instance."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1); the extreme-diameter workload."""
    if n < 0:
        raise GraphError("n must be nonnegative")
    g = Graph(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n: int) -> Graph:
    """Star with center 0 and leaves 1..n-1 (n total vertices)."""
    if n < 1:
        raise GraphError("star requires n >= 1")
    g = Graph(range(n))
    for i in range(1, n):
        g.add_edge(0, i)
    return g


def complete_graph(n: int) -> Graph:
    """K_n."""
    if n < 0:
        raise GraphError("n must be nonnegative")
    g = Graph(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: left side 0..a-1, right side a..a+b-1.

    This is the U-V core of the KT0 lower-bound class 𝒢 (Sec 2).
    """
    if a < 0 or b < 0:
        raise GraphError("sides must be nonnegative")
    g = Graph(range(a + b))
    for i in range(a):
        for j in range(a, a + b):
            g.add_edge(i, j)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid; vertex (r, c) is labeled r * cols + c."""
    if rows < 1 or cols < 1:
        raise GraphError("grid requires positive dimensions")
    g = Graph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (root 0, 2^(d+1)-1 nodes)."""
    if depth < 0:
        raise GraphError("depth must be nonnegative")
    n = 2 ** (depth + 1) - 1
    g = Graph(range(n))
    for v in range(1, n):
        g.add_edge(v, (v - 1) // 2)
    return g


def hypercube_graph(dim: int) -> Graph:
    """The dim-dimensional hypercube: 2^dim vertices, vertex i adjacent
    to i ^ (1 << b) for each bit b.  A log-diameter regular expander —
    the friendly regime for push gossip and FastWakeUp."""
    if dim < 0:
        raise GraphError("dimension must be nonnegative")
    n = 1 << dim
    g = Graph(range(n))
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                g.add_edge(v, u)
    return g


def torus_graph(rows: int, cols: int) -> Graph:
    """rows x cols torus (grid with wraparound): 4-regular, diameter
    (rows + cols) / 2 — a constant-degree workload with tunable
    awake distance."""
    if rows < 3 or cols < 3:
        raise GraphError("torus requires both dimensions >= 3")
    g = Graph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_edge_safe(v, r * cols + (c + 1) % cols)
            g.add_edge_safe(v, ((r + 1) % rows) * cols + c)
    return g


def barbell_graph(clique: int, bridge: int) -> Graph:
    """Two K_clique cliques joined by a path of ``bridge`` extra vertices.

    A classic high-awake-distance workload: waking one clique leaves the
    other rho_awk = bridge + 1 hops away.
    """
    if clique < 1:
        raise GraphError("clique size must be >= 1")
    if bridge < 0:
        raise GraphError("bridge length must be >= 0")
    g = Graph()
    left = list(range(clique))
    right = list(range(clique + bridge, 2 * clique + bridge))
    mid = list(range(clique, clique + bridge))
    for block in (left, right):
        for i, u in enumerate(block):
            g.add_vertex(u)
            for v in block[i + 1:]:
                g.add_edge_safe(u, v)
    chain = [left[-1]] + mid + [right[0]]
    for u, v in zip(chain, chain[1:]):
        g.add_edge_safe(u, v)
    return g


def lollipop_graph(clique: int, tail: int) -> Graph:
    """K_clique with a path of ``tail`` vertices hanging off vertex 0.

    Footnote 3 of the paper uses exactly this shape (complete graph plus
    one pendant vertex) to show that push-only gossip takes Omega(n) time.
    """
    if clique < 1:
        raise GraphError("clique size must be >= 1")
    if tail < 0:
        raise GraphError("tail length must be >= 0")
    g = complete_graph(clique)
    prev = 0
    for i in range(tail):
        v = clique + i
        g.add_vertex(v)
        g.add_edge(prev, v)
        prev = v
    return g


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """A path of ``spine`` vertices, each with ``legs_per_vertex`` pendant
    leaves; stresses schemes whose advice scales with tree degree."""
    if spine < 1:
        raise GraphError("spine must be >= 1")
    if legs_per_vertex < 0:
        raise GraphError("legs must be >= 0")
    g = path_graph(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(legs_per_vertex):
            g.add_vertex(nxt)
            g.add_edge(s, nxt)
            nxt += 1
    return g


# ----------------------------------------------------------------------
# Randomized families
# ----------------------------------------------------------------------
def random_tree(n: int, seed: RandomLike = None) -> Graph:
    """Uniformly random labeled tree via a random Prüfer sequence."""
    if n < 1:
        raise GraphError("tree requires n >= 1")
    if n == 1:
        return Graph([0])
    if n == 2:
        return Graph.from_edges([(0, 1)])
    rng = _rng(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_prufer(prufer)


def tree_from_prufer(prufer: Sequence[int]) -> Graph:
    """Decode a Prüfer sequence into the unique labeled tree on
    len(prufer) + 2 vertices."""
    n = len(prufer) + 2
    degree = [1] * n
    for x in prufer:
        if not 0 <= x < n:
            raise GraphError("Prüfer entry out of range")
        degree[x] += 1
    g = Graph(range(n))
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        g.add_edge(leaf, x)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    g.add_edge(u, v)
    return g


def erdos_renyi(
    n: int,
    p: float,
    seed: RandomLike = None,
    require_connected: bool = False,
    max_attempts: int = 100,
) -> Graph:
    """G(n, p) random graph.

    With ``require_connected=True`` the generator resamples until the
    graph is connected (raising :class:`GraphError` after
    ``max_attempts`` failures), which is how benches obtain connected
    sparse workloads.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    if n < 0:
        raise GraphError("n must be nonnegative")
    rng = _rng(seed)
    for _ in range(max_attempts):
        g = Graph(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    g.add_edge(i, j)
        if not require_connected or is_connected(g):
            return g
    raise GraphError(
        f"could not sample a connected G({n},{p}) in {max_attempts} tries"
    )


def connected_erdos_renyi(n: int, p: float, seed: RandomLike = None) -> Graph:
    """G(n, p) conditioned on connectivity by overlaying a random tree.

    Unlike rejection sampling this always succeeds, at the cost of a
    slight bias toward tree edges; ideal for benches that just need
    "connected sparse graph of ~pn²/2 edges".
    """
    rng = _rng(seed)
    g = random_tree(n, rng) if n >= 1 else Graph()
    # Exactly one rng.random() per non-tree pair i < j, in row order,
    # and neighbours inserted in that order: a caller's shared rng and
    # the port numbering (insertion order) both depend on it.
    adj = g._adj
    draw = rng.random
    for i in range(n):
        row = adj[i]
        for j in range(i + 1, n):
            if j not in row and draw() < p:
                row[j] = None
                adj[j][i] = None
    return g


def random_regular(
    n: int, d: int, seed: RandomLike = None, max_attempts: int = 200
) -> Graph:
    """Random d-regular graph via the pairing/configuration model with
    rejection of loops and multi-edges.

    Requires n*d even and d < n.
    """
    if d < 0 or n < 0:
        raise GraphError("n and d must be nonnegative")
    if d >= n and not (n == 0 and d == 0):
        raise GraphError("d must be < n")
    if (n * d) % 2 != 0:
        raise GraphError("n * d must be even")
    rng = _rng(seed)
    if d == 0:
        return Graph(range(n))
    if d == n - 1:
        return complete_graph(n)
    if d > (n - 1) / 2:
        # Dense regimes: sample the sparse complement instead (the
        # pairing model's rejection rate explodes as d approaches n).
        comp = random_regular(n, n - 1 - d, seed=rng, max_attempts=max_attempts)
        g = Graph(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if not comp.has_edge(i, j):
                    g.add_edge(i, j)
        return g
    # Steger–Wormald-style incremental pairing: draw random stub pairs,
    # keep only legal ones (no loop, no duplicate edge); when random
    # draws stall, scan for any remaining legal pair; restart if the
    # partial pairing is truly stuck.  Far more reliable than plain
    # rejection of whole pairings.
    for _ in range(max_attempts):
        g = Graph(range(n))
        stubs = [v for v in range(n) for _ in range(d)]
        stuck = False
        while stubs and not stuck:
            paired = False
            for _try in range(10 * len(stubs)):
                i, j = rng.randrange(len(stubs)), rng.randrange(len(stubs))
                if i == j:
                    continue
                u, v = stubs[i], stubs[j]
                if u == v or g.has_edge(u, v):
                    continue
                for idx in sorted((i, j), reverse=True):
                    stubs[idx] = stubs[-1]
                    stubs.pop()
                g.add_edge(u, v)
                paired = True
                break
            if not paired:
                # Exhaustive legality scan before declaring this attempt
                # dead.
                found = None
                for a in range(len(stubs)):
                    for b in range(a + 1, len(stubs)):
                        u, v = stubs[a], stubs[b]
                        if u != v and not g.has_edge(u, v):
                            found = (a, b)
                            break
                    if found:
                        break
                if found is None:
                    stuck = True
                else:
                    a, b = found
                    u, v = stubs[a], stubs[b]
                    for idx in sorted((a, b), reverse=True):
                        stubs[idx] = stubs[-1]
                        stubs.pop()
                    g.add_edge(u, v)
        if not stubs:
            return g
    raise GraphError(
        f"could not sample a simple {d}-regular graph on {n} vertices"
    )


def random_bipartite_regular(
    n_side: int, d: int, seed: RandomLike = None, max_attempts: int = 200
) -> Graph:
    """Random d-regular bipartite graph on sides {0..n-1} and {n..2n-1}.

    Sampled as the union of d random perfect matchings, rejecting
    collisions.  Used as a fallback core for 𝒢ₖ when no suitable D(k, q)
    instance exists at the requested size (the fallback has no girth
    guarantee, which callers must account for).
    """
    if d > n_side:
        raise GraphError("degree cannot exceed side size")
    rng = _rng(seed)
    for _ in range(max_attempts):
        g = Graph(range(2 * n_side))
        ok = True
        for _ in range(d):
            perm = list(range(n_side))
            rng.shuffle(perm)
            for left, right in enumerate(perm):
                if g.has_edge(left, n_side + right):
                    ok = False
                    break
                g.add_edge(left, n_side + right)
            if not ok:
                break
        if ok:
            return g
    raise GraphError("could not sample a simple regular bipartite graph")


def random_geometric(
    n: int,
    radius: float,
    seed: RandomLike = None,
    require_connected: bool = True,
    max_attempts: int = 50,
) -> Graph:
    """Random geometric graph: n points uniform in the unit square,
    edges between pairs at Euclidean distance <= radius.

    The canonical model of the Wake-on-Wireless-LAN setting the paper's
    introduction cites: radios hear only nearby radios.  With
    ``require_connected`` (default) the point set is resampled until
    the graph is connected; radius ~ sqrt(2 ln n / n) is the
    connectivity threshold.
    """
    if n < 1:
        raise GraphError("geometric graph requires n >= 1")
    if radius <= 0:
        raise GraphError("radius must be positive")
    rng = _rng(seed)
    for _ in range(max_attempts):
        points = [(rng.random(), rng.random()) for _ in range(n)]
        g = Graph(range(n))
        r2 = radius * radius
        for i in range(n):
            xi, yi = points[i]
            for j in range(i + 1, n):
                xj, yj = points[j]
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= r2:
                    g.add_edge(i, j)
        if not require_connected or is_connected(g):
            return g
    raise GraphError(
        f"could not sample a connected geometric graph "
        f"(n={n}, radius={radius}) in {max_attempts} tries"
    )


def attach_pendants(
    graph: Graph, hosts: Sequence, start_label: Optional[int] = None
) -> Tuple[Graph, List[Tuple]]:
    """Attach one new degree-1 pendant vertex to each host vertex.

    Returns ``(new_graph, matching)`` where matching lists the
    ``(host, pendant)`` pairs.  This is the V–W perfect-matching step of
    both lower-bound classes 𝒢 and 𝒢ₖ (Sec 2).
    """
    g = graph.copy()
    if start_label is None:
        numeric = [v for v in graph.vertices() if isinstance(v, int)]
        start_label = (max(numeric) + 1) if numeric else 0
    matching: List[Tuple] = []
    nxt = start_label
    for h in hosts:
        if not g.has_vertex(h):
            raise GraphError(f"host {h!r} not in graph")
        while g.has_vertex(nxt):
            nxt += 1
        g.add_vertex(nxt)
        g.add_edge(h, nxt)
        matching.append((h, nxt))
        nxt += 1
    return g, matching
