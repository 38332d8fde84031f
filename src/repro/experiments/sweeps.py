"""Parameter-sweep utilities shared by benches and examples.

A sweep runs one algorithm over a family of growing networks, repeats
each size a few times with fresh seeds, and aggregates the Table-1
measures per size.  A sweep is plain data: :func:`parallel_sweep`
takes the algorithm by registry name and the workload as a
``{"kind": ..., **kwargs}`` spec (the builders live in
:mod:`repro.graphs.workloads`), and routes the cell grid through a
:class:`~repro.experiments.parallel.ParallelSweepExecutor` (worker
processes + on-disk cell cache), or runs it inline and uncached when
no executor is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import summarize
from repro.core.base import WakeUpAlgorithm
from repro.errors import ReproError
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    ParallelSweepExecutor,
)


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
# Spec-based sweeps (parallel executor path)
# ----------------------------------------------------------------------
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
