"""Parameter-sweep utilities shared by benches and examples.

A sweep runs one algorithm over a family of growing networks, repeats
each size a few times with fresh seeds, and aggregates the Table-1
measures per size.  Workload constructors are plain callables
``n -> (graph, awake_vertices)``, registered by kind in
:data:`WORKLOADS` so a sweep is plain data: :func:`parallel_sweep`
takes the algorithm by registry name and the workload as a
``{"kind": ..., **kwargs}`` spec, and routes the cell grid through a
:class:`~repro.experiments.parallel.ParallelSweepExecutor` (worker
processes + on-disk cell cache), or runs it inline and uncached when
no executor is given.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.core.base import WakeUpAlgorithm
from repro.errors import ReproError
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    ParallelSweepExecutor,
)
from repro.graphs.graph import Graph

Workload = Callable[[int], Tuple[Graph, List]]


def resolve_backend(engine: str, backend: Optional[str]) -> str:
    """Apply the ``backend`` knob to an engine selection.

    ``backend=None`` / ``"auto"`` leaves the engine untouched;
    ``"bulk"`` routes synchronous runs through the vectorized frontier
    lane (:mod:`repro.sim.bulk` — algorithms without a kernel still
    fall back to the sync engine per cell, transparently).  Asking for
    the bulk backend on an async sweep is a contradiction, not a
    fallback, and raises.
    """
    if backend is None or backend == "auto":
        return engine
    if backend == "bulk":
        if engine == "async":
            raise ReproError(
                "backend='bulk' implements synchronous semantics; "
                "run with engine='sync' (or drop the backend knob)"
            )
        return "bulk"
    raise ReproError(
        f"unknown backend {backend!r}; known: 'auto', 'bulk'"
    )


def algorithm_model(
    algo: WakeUpAlgorithm, backend: Optional[str] = None
) -> Tuple[str, str, str]:
    """The ``(knowledge, bandwidth, engine)`` an algorithm runs in by
    default, from its declared requirements: KT1 if it needs neighbour
    IDs, CONGEST if its messages fit the cap, and its own synchrony
    (async for algorithms that run under both).  Under
    ``backend="bulk"`` a both-synchrony algorithm runs sync rounds,
    the semantics the bulk lane implements.

    Takes the algorithm *instance*, so callers that resolve a dotted
    path rather than a registry name share the rule."""
    knowledge = "KT1" if algo.requires_kt1 else "KT0"
    bandwidth = "CONGEST" if algo.congest_safe else "LOCAL"
    engine = algo.synchrony if algo.synchrony in ("sync", "async") else "async"
    if backend == "bulk" and algo.synchrony == "both":
        engine = "sync"
    return knowledge, bandwidth, engine


@dataclass
class SweepRow:
    """Aggregated measurements for one network size."""

    n: int
    rho_awk: float
    messages: float
    messages_std: float
    time: float
    time_all_awake: float
    bits: float
    advice_max_bits: float
    advice_avg_bits: float
    trials: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "rho": self.rho_awk,
            "messages": self.messages,
            "time": self.time,
            "time_awake": self.time_all_awake,
            "adv_max": self.advice_max_bits,
            "adv_avg": self.advice_avg_bits,
        }


# ----------------------------------------------------------------------
# Standard workloads
# ----------------------------------------------------------------------
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
    """The named small topologies of :mod:`repro.check.worlds` as a
    spec-able workload: identical graph constructors and the identical
    ordered woken sample, so adversary-optimizer and baseline cells
    evaluate exactly the worlds the checker explores.  A staggered wake
    belongs in the cell's *schedule* spec (``{"kind": "staggered",
    "stagger": s}``) — compiled topologies preserve awake order, so the
    sequential schedule rebuilds the checker's ``{v: i*stagger}`` map.
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


# ----------------------------------------------------------------------
# Spec-based sweeps (parallel executor path)
# ----------------------------------------------------------------------

# kind -> workload factory; cells reference workloads by kind + kwargs
# so they serialize across process boundaries and hash into cache keys.
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


def register_workload(kind: str, factory: Callable[..., Workload]) -> None:
    """Register an external workload for spec-based sweeps."""
    WORKLOADS[kind] = factory


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


def sweep_cells(
    algorithm: str,
    workload: Dict[str, Any],
    sizes: Sequence[int],
    engine: str = "async",
    knowledge: str = "KT1",
    bandwidth: str = "LOCAL",
    trials: int = 3,
    seed: int = 0,
    delay: Optional[Dict[str, Any]] = None,
    algo_params: Optional[Dict[str, Any]] = None,
    flight_recorder: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[CellSpec]:
    """The cell grid of a sweep: ``len(sizes) * trials`` independent
    specs, each seeded by its ``(seed, n, trial)`` (see
    :attr:`~repro.experiments.parallel.CellSpec.run_seed`).
    ``flight_recorder`` arms a bounded crash trace per cell (see
    :class:`~repro.experiments.parallel.CellSpec`); ``backend="bulk"``
    routes the grid through the vectorized frontier lane (the engine
    recorded in each spec — and hence the cache key — becomes
    ``"bulk"``)."""
    engine = resolve_backend(engine, backend)
    return [
        CellSpec(
            algorithm=algorithm,
            n=n,
            trial=t,
            seed=seed,
            engine=engine,
            knowledge=knowledge,
            bandwidth=bandwidth,
            workload=dict(workload),
            delay=dict(delay or {"kind": "unit"}),
            algo_params=dict(algo_params or {}),
            flight_recorder=flight_recorder,
        )
        for n in sizes
        for t in range(trials)
    ]


def rows_from_outcomes(outcomes: Sequence[CellOutcome]) -> List[SweepRow]:
    """Aggregate cell outcomes into one :class:`SweepRow` per size:
    trial means, the largest advice, and the size's awake distance.

    Failed cells are excluded from the aggregates (their structured
    records stay in ``outcomes``); a size with no successful cell
    produces no row."""
    by_n: Dict[int, List[CellOutcome]] = {}
    order: List[int] = []
    for o in outcomes:
        if o.spec.n not in by_n:
            by_n[o.spec.n] = []
            order.append(o.spec.n)
        by_n[o.spec.n].append(o)
    rows: List[SweepRow] = []
    for n in order:
        good = [o for o in by_n[n] if o.ok and o.result is not None]
        if not good:
            continue
        good.sort(key=lambda o: o.spec.trial)
        results = [o.result for o in good]
        m = summarize([float(r.messages) for r in results])
        rows.append(
            SweepRow(
                n=n,
                rho_awk=good[-1].rho_awk,
                messages=m.mean,
                messages_std=m.std,
                time=summarize([r.time for r in results]).mean,
                time_all_awake=summarize(
                    [r.time_all_awake for r in results]
                ).mean,
                bits=summarize([float(r.bits) for r in results]).mean,
                advice_max_bits=max(r.advice_max_bits for r in results),
                advice_avg_bits=max(r.advice_avg_bits for r in results),
                trials=len(good),
            )
        )
    return rows


def phase_profile_rows(
    outcomes: Sequence[CellOutcome],
) -> List[Dict[str, float]]:
    """Aggregate per-phase profiles across successful outcomes into
    printable rows: one row per (n, phase) with summed wall-time and
    message counts and the share of that size's total phase time.

    This is how benches report where an execution spends its time —
    e.g. DFS-token traversal vs advice decoding — straight from sweep
    outcomes (the profiles survive the lean/IPC path).
    """
    by_n: Dict[int, Dict[str, Dict[str, float]]] = {}
    for o in outcomes:
        if not o.ok or o.result is None:
            continue
        phases = by_n.setdefault(o.spec.n, {})
        for name, prof in o.result.phase_profile().items():
            agg = phases.setdefault(
                name, {"time_s": 0.0, "messages": 0, "entries": 0}
            )
            agg["time_s"] += prof["time_s"]
            agg["messages"] += prof["messages"]
            agg["entries"] += prof["entries"]
    rows: List[Dict[str, float]] = []
    for n in sorted(by_n):
        total = sum(p["time_s"] for p in by_n[n].values()) or 1.0
        for name, agg in sorted(
            by_n[n].items(), key=lambda kv: -kv[1]["time_s"]
        ):
            rows.append(
                {
                    "n": n,
                    "phase": name,
                    "time_s": agg["time_s"],
                    "share": agg["time_s"] / total,
                    "messages": agg["messages"],
                    "entries": agg["entries"],
                }
            )
    return rows


def parallel_sweep(
    algorithm: str,
    workload: Dict[str, Any],
    sizes: Sequence[int],
    executor: Optional[ParallelSweepExecutor] = None,
    engine: str = "async",
    knowledge: str = "KT1",
    bandwidth: str = "LOCAL",
    trials: int = 3,
    seed: int = 0,
    delay: Optional[Dict[str, Any]] = None,
    algo_params: Optional[Dict[str, Any]] = None,
    flight_recorder: Optional[int] = None,
    backend: Optional[str] = None,
) -> Tuple[List[SweepRow], List[CellOutcome]]:
    """Executor-routed sweep: returns the aggregated rows *and* the raw
    per-cell outcomes (summary scalars, cache hits, failure records).

    With no ``executor`` the cells run inline and uncached — the serial
    baseline, bit-identical to what any worker pool produces.
    ``backend="bulk"`` routes every cell through the vectorized
    frontier lane (see :func:`resolve_backend`).
    """
    cells = sweep_cells(
        algorithm,
        workload,
        sizes,
        engine=engine,
        backend=backend,
        knowledge=knowledge,
        bandwidth=bandwidth,
        trials=trials,
        seed=seed,
        delay=delay,
        algo_params=algo_params,
        flight_recorder=flight_recorder,
    )
    if executor is None:
        executor = ParallelSweepExecutor(workers=0, use_cache=False)
    outcomes = executor.run(cells)
    return rows_from_outcomes(outcomes), outcomes
