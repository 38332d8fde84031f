"""Workload builders: ``n -> (graph, awake_vertices)`` callables,
registered by kind in :data:`WORKLOADS` so a cell names its workload as
plain data, ``{"kind": ..., **kwargs}``.  They live in the ``graphs``
subsystem because its salt keys every cell and compiled topology
(:mod:`repro.versioning`): a builder edit invalidates both.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import ReproError
from repro.graphs.graph import Graph

Workload = Callable[[int], Tuple[Graph, List]]


def er_single_wake(avg_degree: float = 6.0, seed: int = 0) -> Workload:
    """Connected Erdős–Rényi with one adversary-woken node."""
    from repro.graphs.generators import connected_erdos_renyi

    def build(n: int):
        g = connected_erdos_renyi(n, avg_degree / max(1, n - 1), seed=seed + n)
        return g, [next(iter(g.vertices()))]

    return build


def er_fraction_wake(
    avg_degree: float = 6.0, fraction: float = 0.1, seed: int = 0
) -> Workload:
    """Connected ER; a random ``fraction`` of nodes woken at time 0."""
    from repro.graphs.generators import connected_erdos_renyi

    def build(n: int):
        g = connected_erdos_renyi(n, avg_degree / max(1, n - 1), seed=seed + n)
        rng = random.Random(seed * 31 + n)
        count = max(1, int(fraction * n))
        awake = rng.sample(list(g.vertices()), count)
        return g, awake

    return build


def dense_er_all_awake(p: float = 0.5, seed: int = 0) -> Workload:
    """Dense ER with every node awake — rho_awk = 0 message stress."""
    from repro.graphs.generators import connected_erdos_renyi

    def build(n: int):
        g = connected_erdos_renyi(n, p, seed=seed + n)
        return g, list(g.vertices())

    return build


def grid_corner_wake() -> Workload:
    """Square grid, corner woken — maximal rho_awk."""
    import math

    from repro.graphs.generators import grid_graph

    def build(n: int):
        side = max(2, int(math.isqrt(n)))
        g = grid_graph(side, side)
        return g, [0]

    return build


def tree_random_wake(seed: int = 0) -> Workload:
    """Random tree with one random node woken."""
    from repro.graphs.generators import random_tree

    def build(n: int):
        g = random_tree(n, seed=seed + n)
        rng = random.Random(seed * 17 + n)
        return g, [rng.randrange(n)]

    return build


def dkq_point_wake(k: int = 2) -> Workload:
    """Lazebnik–Ustimenko D(k, q) with the first point woken.

    q is the smallest prime power with ``2 * q**k >= n``, so the graph
    has at least n vertices (``q**k`` points plus ``q**k`` lines) while
    staying as close to n as the construction allows.  The paper's KT1
    lower-bound family — and by far the most expensive workload we
    build (GF(p^m) arithmetic plus q^(k+1) incidence solves), which is
    what makes it the headline case for the compiled-topology cache.
    """
    from repro.graphs.highgirth import (
        dkq_graph,
        smallest_prime_power_at_least,
    )

    if k < 2:
        raise ReproError("dkq_point_wake requires k >= 2")

    def build(n: int):
        q_min = 2
        while 2 * q_min**k < n:
            q_min += 1
        q = smallest_prime_power_at_least(q_min)
        g = dkq_graph(k, q).graph
        return g, [next(iter(g.vertices()))]

    return build


def er_shared_wake(
    avg_degree: float = 8.0, awake_fraction: float = 0.05, seed: int = 0
) -> Workload:
    """Connected ER seeded independently of n, a fraction woken.

    Unlike :func:`er_fraction_wake` the graph seed does not vary with n,
    so every algorithm compared at a fixed n sees the *same* network —
    the Table-1 shared workload."""
    from repro.graphs.generators import connected_erdos_renyi

    def build(n: int):
        g = connected_erdos_renyi(n, avg_degree / max(1, n - 1), seed=seed)
        rng = random.Random(seed + 1)
        awake = rng.sample(
            list(g.vertices()), max(1, int(awake_fraction * n))
        )
        return g, awake

    return build


def check_world(
    graph: str = "cycle",
    awake: int = 1,
    degree: float = 3.0,
    seed: int = 0,
) -> Workload:
    """The model checker's named small worlds, as a workload.

    :func:`repro.check.worlds.build_check_world` builds its worlds
    here, so adversary-optimizer and baseline cells evaluate exactly
    the worlds the checker explores.  A staggered wake belongs
    in the cell's *schedule* spec (``{"kind": "staggered", "stagger":
    s}``) — compiled topologies preserve the woken sample's order, so
    the sequential schedule rebuilds the checker's ``{v: i*stagger}``
    map.
    """
    from repro.graphs.generators import (
        complete_graph,
        connected_erdos_renyi,
        cycle_graph,
        path_graph,
        star_graph,
    )

    named = {
        "complete": complete_graph,
        "path": path_graph,
        "cycle": cycle_graph,
        "star": star_graph,
    }
    if graph != "er" and graph not in named:
        raise ReproError(
            f"unknown check graph {graph!r}; "
            f"known: {('er', *sorted(named))}"
        )

    def build(n: int):
        if graph == "er":
            g = connected_erdos_renyi(n, degree / max(1, n - 1), seed=seed)
        else:
            g = named[graph](n)
        rng = random.Random(seed + 1)
        woken = rng.sample(
            sorted(g.vertices(), key=repr), max(1, min(awake, n))
        )
        return g, woken

    return build


#: kind -> workload factory; cells reference workloads by kind + kwargs
#: so they serialize across process boundaries and hash into cache keys.
WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "er_single_wake": er_single_wake,
    "er_fraction_wake": er_fraction_wake,
    "dense_er_all_awake": dense_er_all_awake,
    "grid_corner_wake": grid_corner_wake,
    "tree_random_wake": tree_random_wake,
    "er_shared_wake": er_shared_wake,
    "dkq_point_wake": dkq_point_wake,
    "check_world": check_world,
}


def build_workload(spec: Dict[str, Any]) -> Workload:
    """Resolve a workload spec ``{"kind": ..., **kwargs}``."""
    params = dict(spec)
    kind = params.pop("kind", None)
    try:
        factory = WORKLOADS[kind]
    except KeyError:
        raise ReproError(
            f"unknown workload kind {kind!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return factory(**params)
