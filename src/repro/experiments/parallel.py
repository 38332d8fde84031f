"""Parallel sweep execution with on-disk result caching.

Every Table-1 experiment decomposes into independent *cells* — one
``(algorithm, n, seed, adversary)`` execution each.  Historically the
sweep drivers ran every cell serially in-process; this module fans the
cells across worker processes and memoizes finished cells on disk so a
re-run only executes what changed.

Design constraints, in order:

1. **Determinism.**  A cell executed in a worker process must produce
   bit-identical summary scalars to the same cell executed inline.
   Cells are therefore *plain data* (:class:`CellSpec`): the worker
   rebuilds the graph, algorithm, and adversary from the spec, so no
   live object state crosses the fork.  (The delay strategies use a
   stable hash for the same reason — see
   :func:`repro.sim.adversary._stable_unit`.)
2. **Robustness.**  A cell that raises
   :class:`~repro.errors.WakeUpFailure`, times out, or takes its worker
   down mid-task becomes a structured failed-cell record in the sweep
   output; it never aborts the sweep.  A budgeted cell always runs in a
   worker process, and the pool kills the worker when the budget runs
   out.  A crashed worker is retried :data:`CRASH_RETRIES` time(s) (in
   an isolated one-worker pool so a deterministic crasher cannot poison
   its neighbours' retry budget).
3. **Cache safety.**  Cache entries are keyed by a content hash of the
   full cell spec plus the *derived* per-subsystem code salts
   (:mod:`repro.versioning`): the engine salt, the graphs salt, and
   the cell's per-algorithm salt.  A code edit automatically
   invalidates exactly the cells whose execution it can perturb — a
   ``spanner_advice.py`` change recomputes spanner-advice cells and
   leaves flooding rows (and every compiled topology) warm.

The worker payload — and the cache payload, deliberately the same
representation — is the lean form of
:class:`~repro.sim.runner.WakeUpResult` (scalars only; no ``Trace``,
no metric Counters), so a warm cache and a fresh run are
indistinguishable to downstream aggregation.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.artifacts import write_atomic
from repro.errors import ReproError, WakeUpFailure
from repro.experiments.backends import WorkStealingBackend
from repro.graphs.compile import (
    DEFAULT_TOPOLOGY_DIR,
    MEMORY_CACHE_SIZE,
    TopologyStore,
    compiled_topology,
    topology_key,
)
from repro.obs.metrics import (
    MetricsRegistry,
    emit_snapshot,
    get_registry,
    set_global_registry,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.runner import WakeUpResult
from repro.sim.trace import DEFAULT_FLIGHT_RECORDER, Trace
from repro.versioning import cell_salt_vector, stale_salts

#: Cell-cache envelope layout version.  v1 envelopes carried the
#: hand-bumped global ``CODE_SALT`` string ("repro-cell-v3" was the
#: last); v2 envelopes carry the per-subsystem salt *vector* the key
#: was derived from (engine + graphs + per-algorithm) plus the
#: algorithm name, so staleness is decidable per envelope without the
#: original spec (``repro cache info`` / ``purge --stale``).
CACHE_SCHEMA = 2

DEFAULT_CACHE_DIR = Path("results") / ".cache"

#: Retries of a cell whose worker process died, each alone in a pool.
CRASH_RETRIES = 1


# ----------------------------------------------------------------------
# Cell specification
# ----------------------------------------------------------------------
@dataclass
class CellSpec:
    """One independent execution, described entirely by plain data.

    ``workload`` / ``delay`` / ``schedule`` are small dicts with a
    ``"kind"`` discriminator resolved by registries (workloads live in
    :mod:`repro.graphs.workloads`; delays and schedules below), so a
    spec pickles across processes and hashes canonically for the cache.

    ``algorithm`` is a registry name (``"flooding"``) or a dotted path
    (``"pkg.module:Attr"``) for algorithms not in the registry — the
    latter is how tests inject fault-simulating algorithms.

    The default seeds derive from the sweep seed, size and trial
    (``run_seed = seed*10_007 + n*101 + trial``; setup seeded with
    ``run_seed``, execution with ``run_seed + 1``); ``setup_seed`` /
    ``exec_seed`` override them for callers with their own seeding
    (Table 1).
    """

    algorithm: str
    n: int
    trial: int = 0
    seed: int = 0
    engine: str = "async"
    knowledge: str = "KT1"
    bandwidth: str = "LOCAL"
    workload: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "er_single_wake"}
    )
    delay: Dict[str, Any] = field(default_factory=lambda: {"kind": "unit"})
    schedule: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "all_at_once"}
    )
    algo_params: Dict[str, Any] = field(default_factory=dict)
    require_all_awake: bool = True
    max_events: int = 5_000_000
    setup_seed: Optional[int] = None
    exec_seed: Optional[int] = None
    # Flight recorder: keep a bounded ring-buffer trace of the newest
    # N events (repro.sim.trace.Trace(maxlen=N)) and dump its tail into
    # the failure record if the cell fails.  None disables.  Tracing
    # does not perturb the execution, but the knob is part of the cache
    # key like any other spec field.
    flight_recorder: Optional[int] = None
    # Controlled nondeterminism: a controller spec with a "kind"
    # discriminator (currently ``{"kind": "replay", "choices": [...],
    # "laziness": ...}`` -> :class:`repro.check.controller
    # .ReplayController`), resolved by :func:`_build_controller`.
    # Async engine only.  A controlled cell executes the check
    # subsystem's scheduling loop, so its cache key folds the check
    # salt in on top of the usual cell salts (see :func:`_cell_salts`).
    controller: Optional[Dict[str, Any]] = None

    @property
    def run_seed(self) -> int:
        return self.seed * 10_007 + self.n * 101 + self.trial

    @property
    def topology_key(self) -> str:
        """Content hash of this cell's compiled topology — the
        ``(workload kind, params, n, graphs-salt)`` digest shared by
        every trial at the same size.  Deliberately a derived property,
        not a dataclass field: it never perturbs :func:`cell_key`."""
        return topology_key(self.workload, self.n)


_SPEC_FIELDS = tuple(f.name for f in fields(CellSpec))

#: The one encoder every cell key goes through (``json.dumps`` builds
#: a new one per call for these options).
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _cell_salts(spec: CellSpec) -> Dict[str, str]:
    """The salt vector one cell's key and cache envelope carry.

    Plain cells depend on engine + graphs + the algorithm's import
    closure.  Controlled cells additionally execute the check
    subsystem's scheduling loop (:mod:`repro.check.controller`), so
    the check salt joins the key — a controller edit re-executes
    controlled cells and leaves ordinary sweep cells warm."""
    return cell_salt_vector(
        spec.algorithm,
        controlled=(
            spec.controller is not None or spec.delay.get("kind") == "replay"
        ),
    )


def cell_key(spec: CellSpec) -> str:
    """Content hash identifying a cell: the full spec plus the salts
    its execution depends on (engine + graphs + the algorithm's
    import-closure salt, plus the check salt for controlled cells —
    :func:`repro.versioning.cell_salt_vector`), canonically
    serialized.  Any differing input — seed, size, algorithm
    parameter, adversary knob — yields a different key, and so does
    any code edit that can reach this cell's execution; code edits
    elsewhere leave the key (and the cached row) untouched.

    The spec is read field by field, not deep-copied; a field whose
    value JSON cannot encode raises :class:`~repro.errors.ReproError`
    naming it, since no stable key exists for it."""
    values = {name: getattr(spec, name) for name in _SPEC_FIELDS}
    try:
        blob = _KEY_ENCODER.encode({"salts": _cell_salts(spec), "spec": values})
    except TypeError:
        for name, value in values.items():
            try:
                json.dumps(value, sort_keys=True)
            except TypeError as exc:
                raise ReproError(
                    f"cell spec field {name!r} has no stable cache key: {exc}"
                ) from None
        raise
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Spec -> live objects
# ----------------------------------------------------------------------
def _build_algorithm(name: str, params: Dict[str, Any]):
    if ":" in name:
        module_name, attr = name.split(":", 1)
        factory = getattr(importlib.import_module(module_name), attr)
    else:
        from repro.core.registry import get_factory

        factory = get_factory(name)
    return factory(**params) if params else factory()


def _build_delay(spec: Dict[str, Any]):
    from repro.sim.adversary import (
        PerEdgeDelay,
        UniformRandomDelay,
        UnitDelay,
        VectorDelay,
    )

    kind = spec.get("kind", "unit")
    if kind == "unit":
        return UnitDelay()
    if kind == "uniform":
        return UniformRandomDelay(
            seed=spec.get("seed", 0), lo=spec.get("lo", 0.05)
        )
    if kind == "per_edge":
        return PerEdgeDelay(seed=spec.get("seed", 0), lo=spec.get("lo", 0.1))
    if kind == "vector":
        return VectorDelay(spec["values"])
    if kind == "replay":
        # A controlled run's recorded per-seq delay map, fed back
        # through the plain engine (atlas incumbents replay this way).
        from repro.check.controller import ReplayDelay

        return ReplayDelay(
            {int(k): float(v) for k, v in spec["delays"].items()}
        )
    raise ReproError(f"unknown delay kind {kind!r}")


def _build_schedule(spec: Dict[str, Any], graph, awake):
    from repro.sim.adversary import WakeSchedule

    kind = spec.get("kind", "all_at_once")
    if kind == "all_at_once":
        return WakeSchedule.all_at_once(awake, time=spec.get("time", 0.0))
    if kind == "random_subset":
        return WakeSchedule.random_subset(
            graph,
            spec["count"],
            seed=spec.get("seed", 0),
            time=spec.get("time", 0.0),
        )
    if kind == "staggered":
        # Wake the workload's awake set one at a time, ``stagger``
        # apart, in workload order (compiled topologies preserve it) —
        # the spec form of repro.check.worlds' staggered check worlds.
        return WakeSchedule.sequential(
            list(awake), spec.get("stagger", 0.0)
        )
    raise ReproError(f"unknown schedule kind {kind!r}")


def _build_controller(spec: Dict[str, Any]):
    from repro.check.controller import ReplayController

    kind = spec.get("kind", "replay")
    if kind == "replay":
        return ReplayController(
            spec.get("choices", ()),
            strict=spec.get("strict", False),
            laziness=spec.get("laziness", 0.0),
        )
    raise ReproError(f"unknown controller kind {kind!r}")


def _execute_cell(
    spec: CellSpec,
    scratch: Dict[str, Any],
    topology_store: Optional[TopologyStore] = None,
) -> Dict[str, Any]:
    """Run one cell; returns the JSON-able success payload.

    ``scratch`` receives the live flight-recorder ``"trace"`` and
    schedule ``"controller"`` *before* the execution starts, so
    :func:`run_cell` can dump the trace's tail even when the run raises
    mid-flight, and the atlas can read the controller's log.

    The topology is fetched through the compiled-topology layer
    (:func:`repro.graphs.compile.compiled_topology`) — in-process LRU,
    then the on-disk ``topology_store`` when given — so a multi-trial
    cell batch builds each (workload, n) graph and runs its
    ``awake_distance`` traversal exactly once.
    """
    from repro.models.knowledge import Knowledge, make_setup
    from repro.sim.adversary import Adversary
    from repro.sim.runner import run_wakeup

    topo = compiled_topology(spec.workload, spec.n, store=topology_store)
    graph = topo.graph()
    awake = topo.awake_vertices()
    setup_seed = (
        spec.setup_seed if spec.setup_seed is not None else spec.run_seed
    )
    exec_seed = (
        spec.exec_seed if spec.exec_seed is not None else spec.run_seed + 1
    )
    setup = make_setup(
        graph,
        knowledge=Knowledge[spec.knowledge],
        bandwidth=spec.bandwidth,
        seed=setup_seed,
        compiled=topo,
    )
    adversary = Adversary(
        _build_schedule(spec.schedule, graph, awake),
        _build_delay(spec.delay),
    )
    trace = None
    if spec.flight_recorder:
        trace = scratch["trace"] = Trace(maxlen=spec.flight_recorder)
    controller = None
    if spec.controller is not None:
        controller = scratch["controller"] = _build_controller(
            spec.controller
        )
    result = run_wakeup(
        setup,
        _build_algorithm(spec.algorithm, spec.algo_params),
        adversary,
        engine=spec.engine,
        seed=exec_seed,
        require_all_awake=spec.require_all_awake,
        max_events=spec.max_events,
        trace=trace,
        controller=controller,
    )
    return {"rho_awk": topo.rho_awk, "result": result.to_lean_dict()}


def run_cell(
    spec: CellSpec,
    topology_store: Optional[TopologyStore] = None,
    collect_metrics: bool = False,
) -> Dict[str, Any]:
    """Worker entry point for one cell: never raises.

    Failures come back as structured payloads.  ``run_cell`` holds no
    budget: the executor runs every cell under ``cell_timeout`` in a
    pool worker (:mod:`repro.experiments.backends`), and the pool kills
    that worker when the budget runs out, so a slow cell costs its
    budget and nothing more, whatever it is doing and from whichever
    thread the executor was called.
    When the spec enables a flight recorder, every failure payload
    carries ``trace_tail`` — the last events before things went wrong.

    ``collect_metrics`` swaps a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` in as the process
    global for the duration of the cell and ships its snapshot back as
    ``payload["metrics_delta"]``, so parent-side aggregation is *exact*
    under fork: everything the engines/stores counted during this cell
    reaches the parent exactly once through the outcome path, whether
    the cell ran inline or in a pooled worker.  It is deliberately a
    function argument, not a :class:`CellSpec` field — metrics are
    observability-only and must not perturb :func:`cell_key`.
    """
    start = time.perf_counter()
    scratch: Dict[str, Any] = {}
    local_registry: Optional[MetricsRegistry] = None
    prev_registry: Optional[MetricsRegistry] = None
    if collect_metrics:
        local_registry = MetricsRegistry()
        prev_registry = set_global_registry(local_registry)
    try:
        payload = _execute_cell(spec, scratch, topology_store=topology_store)
        payload["ok"] = True
        payload["status"] = "ok"
    except WakeUpFailure as exc:
        payload = {
            "ok": False,
            "status": "failed",
            "error": str(exc),
            "error_kind": "WakeUpFailure",
            "asleep": sorted(repr(v) for v in exc.asleep),
        }
    except Exception as exc:  # noqa: BLE001 — structured, not swallowed
        payload = {
            "ok": False,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "error_kind": type(exc).__name__,
        }
    finally:
        if local_registry is not None:
            set_global_registry(prev_registry)
    if not payload.get("ok") and scratch.get("trace") is not None:
        payload["trace_tail"] = scratch["trace"].tail()
    if local_registry is not None:
        # Failure payloads keep their delta too — counters incremented
        # before the failure are still real observations.
        payload["metrics_delta"] = local_registry.snapshot()
    payload["duration"] = time.perf_counter() - start
    return payload


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    """What happened to one cell: a lean result or a structured failure."""

    spec: CellSpec
    key: str
    status: str  # "ok" | "failed" | "timeout" | "crashed"
    cached: bool = False
    result: Optional[WakeUpResult] = None
    rho_awk: float = 0.0
    error: Optional[str] = None
    duration: float = 0.0
    attempts: int = 1
    # Flight-recorder dump (last trace events before a failure); only
    # present when the spec enabled ``flight_recorder`` and the cell
    # failed in-process.
    trace_tail: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> Dict[str, Any]:
        """Flat dict for JSON artifacts (storage.save_records /
        merge_records): spec identity + outcome + summary scalars."""
        rec: Dict[str, Any] = {
            "key": self.key,
            "algorithm": self.spec.algorithm,
            "n": self.spec.n,
            "trial": self.spec.trial,
            "seed": self.spec.seed,
            "engine": self.spec.engine,
            "status": self.status,
            "cached": self.cached,
            "rho_awk": self.rho_awk,
        }
        if self.result is not None:
            rec.update(self.result.summary())
            rec["time_all_awake"] = self.result.time_all_awake
        if self.error is not None:
            rec["error"] = self.error
        if self.trace_tail is not None:
            rec["trace_tail"] = self.trace_tail
        return rec


def _outcome_from_payload(
    spec: CellSpec, key: str, payload: Dict[str, Any], cached: bool
) -> CellOutcome:
    if payload.get("ok"):
        return CellOutcome(
            spec=spec,
            key=key,
            status="ok",
            cached=cached,
            result=WakeUpResult.from_lean_dict(payload["result"]),
            rho_awk=float(payload.get("rho_awk", 0.0)),
            duration=float(payload.get("duration", 0.0)),
        )
    return CellOutcome(
        spec=spec,
        key=key,
        status=payload.get("status", "failed"),
        cached=cached,
        error=payload.get("error"),
        duration=float(payload.get("duration", 0.0)),
        trace_tail=payload.get("trace_tail"),
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class ParallelSweepExecutor:
    """Fans independent sweep cells across worker processes.

    Parameters
    ----------
    workers:
        Process count; ``None`` means ``os.cpu_count()``.  ``0`` or
        ``1`` runs cells inline in this process (the serial baseline —
        same code path as the workers, no pool overhead); more run them
        on the work-stealing pool of :mod:`repro.experiments.backends`:
        one cell per task, largest ``n`` first.  Rows are
        bit-identical either way; the pool only reorders wall-clock
        work.
    cache_dir / use_cache:
        On-disk memoization of successful cells, keyed by
        :func:`cell_key`.  Failures are never cached.
    topology_dir:
        The compiled-topology artifact store
        (:class:`repro.graphs.compile.TopologyStore`) workers fetch
        graphs through instead of rebuilding them per trial.  The store
        follows ``use_cache``, so ``--no-cache`` runs are hermetic on
        disk; the in-process compiled-topology LRU is always active
        either way (rows are bit-identical with the store on or off —
        conformance-tested).
    cell_timeout:
        Per-cell wall-clock budget in seconds.  A budgeted cell always
        runs in a pool worker (a one-worker pool when ``workers`` is 0
        or 1), which the pool kills when the budget runs out; the
        overrun becomes a ``"timeout"`` outcome with no
        ``metrics_delta`` and no ``trace_tail``, like a crashed cell.
    recorder:
        Telemetry sink (:mod:`repro.obs`).  The executor frames the
        sweep with ``sweep_start``/``sweep_end`` and publishes a
        per-cell lifecycle as outcomes land in the parent process:
        ``cell_start``, then exactly one terminal event — ``cell_end``
        (ok/failed/crashed) or ``cell_timeout``.  ``cell_retry`` marks
        isolated re-attempts after a worker death.  With a metrics
        registry the sweep also ends with a ``metrics_snapshot``
        event, which carries the executed cells' phase profiles and
        topology fetches.
    progress:
        Live-progress object (duck-typed like
        :class:`repro.obs.progress.SweepProgress`): ``start(total,
        workers)`` before the first cell, ``cell(outcome)`` per
        completion (cache hits included), ``finish(stats)`` at the
        end.

    Counts and timings go to the global metrics registry as of each
    :meth:`run` (a no-op until ``--metrics``, ``--telemetry`` or a serve
    job installs one): executed cells' registry deltas merge into it
    once each, and the executor's own instruments count there too.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR,
        use_cache: bool = True,
        cell_timeout: Optional[float] = None,
        recorder: Optional[Recorder] = None,
        progress: Optional[Any] = None,
        topology_dir: Union[str, Path] = DEFAULT_TOPOLOGY_DIR,
    ):
        self.workers = os.cpu_count() or 1 if workers is None else workers
        self.cache_dir = Path(cache_dir)
        self.use_cache = use_cache
        self.cell_timeout = cell_timeout
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.progress = progress
        # Resolved per run(); parent-side instruments go through this
        # direct reference, so the worker-side global-registry swap in
        # run_cell (inline mode) can never double-count into it.
        self._mreg: MetricsRegistry = get_registry()
        self.topology_dir = Path(topology_dir)
        self.topology_store = (
            TopologyStore(self.topology_dir) if use_cache else None
        )
        self.stats: Dict[str, float] = {}

    # -- public API ------------------------------------------------------
    def run(self, cells: Sequence[CellSpec]) -> List[CellOutcome]:
        """Execute all cells; one :class:`CellOutcome` per cell, in
        input order.  Never raises for per-cell failures."""
        cells = list(cells)
        start = time.perf_counter()
        mreg = self._mreg = get_registry()
        collect = mreg.enabled
        if self.recorder.enabled:
            self.recorder.emit(
                "sweep_start", cells=len(cells), workers=self.workers
            )
        if self.progress is not None:
            self.progress.start(len(cells), self.workers)
        outcomes: Dict[int, CellOutcome] = {}
        misses: List[Tuple[int, CellSpec, str]] = []
        for idx, spec in enumerate(cells):
            key = cell_key(spec)
            payload = self._cache_load(key) if self.use_cache else None
            if payload is not None:
                outcomes[idx] = _outcome_from_payload(
                    spec, key, payload, cached=True
                )
                self._publish(outcomes[idx])
            else:
                misses.append((idx, spec, key))
        if collect and self.use_cache:
            # One fetch per cell: hits == stats["cached"],
            # misses == stats["executed"], by construction.
            mreg.counter(
                "repro_cellcache_fetch_total", outcome="hit"
            ).inc(len(cells) - len(misses))
            mreg.counter(
                "repro_cellcache_fetch_total", outcome="miss"
            ).inc(len(misses))
        if collect:
            mreg.gauge("repro_executor_workers").set(self.workers)
            mreg.gauge("repro_executor_cells_queued").set(len(misses))

        if misses:
            if self.workers <= 1 and self.cell_timeout is None:
                for idx, spec, key in misses:
                    payload = run_cell(
                        spec,
                        topology_store=self.topology_store,
                        collect_metrics=collect,
                    )
                    self._land(idx, spec, key, payload, outcomes)
            else:
                self._run_pool(misses, outcomes, collect)

        ordered = [outcomes[i] for i in range(len(cells))]
        self.stats = {
            "cells": len(cells),
            "executed": sum(1 for o in ordered if not o.cached),
            "cached": sum(1 for o in ordered if o.cached),
            "ok": sum(1 for o in ordered if o.ok),
            "failed": sum(1 for o in ordered if not o.ok),
            "wall_time": time.perf_counter() - start,
        }
        if collect:
            mreg.gauge("repro_executor_wall_seconds").set(
                self.stats["wall_time"]
            )
        if self.recorder.enabled:
            if collect:
                emit_snapshot(self.recorder, mreg)
            self.recorder.emit("sweep_end", **self.stats)
        if self.progress is not None:
            self.progress.finish(self.stats)
        return ordered

    # -- telemetry -------------------------------------------------------
    def _absorb_metrics(self, payload: Dict[str, Any]) -> None:
        """Fold a worker's per-cell registry delta into the sweep
        registry and strip it from the payload.  The delta describes
        *this* run's execution (engine counts, phases, topology
        fetches), so a payload replayed from the cell cache must
        contribute zero — popping before :meth:`_maybe_cache` writes
        guarantees that."""
        delta = payload.pop("metrics_delta", None)
        if delta and self._mreg.enabled:
            self._mreg.merge_snapshot(delta)

    def _publish(self, outcome: CellOutcome) -> None:
        """Emit one cell's full telemetry lifecycle and feed the
        progress renderer.  Called exactly once per cell, in the parent
        process, as the outcome lands (so event order within a cell is
        guaranteed even though cells complete out of order)."""
        mreg = self._mreg
        if mreg.enabled:
            mreg.counter(
                "repro_executor_cells_total",
                status=outcome.status,
                cached="yes" if outcome.cached else "no",
            ).inc()
            if not outcome.cached and outcome.duration > 0:
                mreg.histogram(
                    "repro_executor_cell_seconds"
                ).observe(outcome.duration)
        rec = self.recorder
        if rec.enabled:
            spec = outcome.spec
            rec.emit(
                "cell_start",
                key=outcome.key,
                algorithm=spec.algorithm,
                n=spec.n,
                trial=spec.trial,
                seed=spec.seed,
                engine=spec.engine,
                cached=outcome.cached,
            )
            if outcome.status == "timeout":
                rec.emit(
                    "cell_timeout",
                    key=outcome.key,
                    duration=outcome.duration,
                    budget=self.cell_timeout,
                    n=spec.n,
                )
            else:
                rec.emit(
                    "cell_end",
                    key=outcome.key,
                    status=outcome.status,
                    cached=outcome.cached,
                    duration=outcome.duration,
                    n=spec.n,
                    attempts=outcome.attempts,
                    error=outcome.error,
                )
        if self.progress is not None:
            self.progress.cell(outcome)

    # -- pool management -------------------------------------------------
    def _land(
        self,
        idx: int,
        spec: CellSpec,
        key: str,
        payload: Dict[str, Any],
        outcomes: Dict[int, CellOutcome],
        attempts: int = 1,
    ) -> None:
        """Turn one executed cell's payload into its outcome: absorb
        its registry delta, cache it, publish it."""
        self._absorb_metrics(payload)
        outcomes[idx] = _outcome_from_payload(
            spec, key, payload, cached=False
        )
        outcomes[idx].attempts = attempts
        self._maybe_cache(key, payload, spec)
        self._publish(outcomes[idx])

    def _pool(self, workers: int, collect: bool) -> WorkStealingBackend:
        return WorkStealingBackend(
            workers,
            cell_timeout=self.cell_timeout,
            topology_store=self.topology_store,
            collect_metrics=collect,
        )

    def _run_pool(
        self,
        misses: List[Tuple[int, CellSpec, str]],
        outcomes: Dict[int, CellOutcome],
        collect: bool = False,
    ) -> None:
        """Fan cache misses across the worker pool
        (:mod:`repro.experiments.backends`), one cell per task; a cell
        drained as ``None`` lost its worker process and falls through
        to :meth:`_run_isolated` for retry.

        With the topology store off and no cell budget, a topology with
        at least as many misses as the pool has workers (the first
        :data:`MEMORY_CACHE_SIZE` such) is compiled here before the
        pool forks.  Misses run largest ``n`` first, so every worker
        would have built its own copy side by side; now each finds it
        in the in-process LRU it inherits.  A topology with fewer
        misses is left to the workers, whose builds of distinct
        topologies overlap where one build here would add wall time.
        With the store on, its file lock already makes one worker
        build each; a budgeted build must run inside its worker."""
        if self.topology_store is None and self.cell_timeout is None:
            per_key = Counter(spec.topology_key for _, spec, _ in misses)
            shared = {
                spec.topology_key: spec
                for _, spec, _ in misses
                if per_key[spec.topology_key] >= self.workers
            }
            for spec in list(shared.values())[:MEMORY_CACHE_SIZE]:
                try:
                    compiled_topology(spec.workload, spec.n)
                except Exception:  # noqa: BLE001 — left to the cells
                    # Each of its cells builds again and fails there
                    # as a structured record, as without this step.
                    pass
        crashed: List[Tuple[int, CellSpec, str]] = []
        results = self._pool(self.workers, collect).drain(
            [spec for _, spec, _ in misses]
        )
        try:
            for i, payload in results:
                if payload is None:
                    crashed.append(misses[i])
                else:
                    self._land(*misses[i], payload, outcomes)
        finally:
            results.close()
        if crashed:
            self._run_isolated(sorted(crashed), outcomes, collect)

    def _run_isolated(
        self,
        cells: List[Tuple[int, CellSpec, str]],
        outcomes: Dict[int, CellOutcome],
        collect: bool = False,
    ) -> None:
        """Post-crash path: each cell alone in a fresh one-worker pool,
        so a deterministically crashing cell cannot consume its
        neighbours' retry budget.  Each cell gets
        :data:`CRASH_RETRIES` extra attempts."""
        pool = self._pool(1, collect)
        for idx, spec, key in cells:
            for attempts in range(1, CRASH_RETRIES + 2):
                if attempts > 1:
                    if self.recorder.enabled:
                        self.recorder.emit(
                            "cell_retry", key=key, attempt=attempts,
                            n=spec.n,
                        )
                    if self._mreg.enabled:
                        self._mreg.counter(
                            "repro_executor_cell_retries_total"
                        ).inc()
                ((_, payload),) = pool.drain([spec])
                if payload is not None:
                    self._land(idx, spec, key, payload, outcomes, attempts)
                    break
            else:
                outcomes[idx] = CellOutcome(
                    spec=spec,
                    key=key,
                    status="crashed",
                    error=f"worker process died ({attempts} attempt(s))",
                    attempts=attempts,
                )
                self._publish(outcomes[idx])

    # -- cache -----------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        return f"{self.cache_dir}/{key[:2]}/{key}.json"

    def _cache_load(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._cache_path(key), "rb") as fh:
                data = json.loads(fh.read())
        except (OSError, ValueError):  # also bytes that are not UTF-8
            return None
        # The key already encodes the full salt vector, so a key match
        # implies salt-live; the schema check rejects v1 envelopes that
        # could only collide by accident.  Any other shape is a miss.
        if (
            not isinstance(data, dict)
            or data.get("schema") != CACHE_SCHEMA
            or data.get("key") != key
        ):
            return None
        payload = data.get("payload")
        return payload if isinstance(payload, dict) else None

    def _maybe_cache(
        self, key: str, payload: Dict[str, Any], spec: CellSpec
    ) -> None:
        if not self.use_cache or not payload.get("ok"):
            return
        envelope = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "algorithm": spec.algorithm,
            "salts": _cell_salts(spec),
            "payload": payload,
        }
        write_atomic(
            self._cache_path(key),
            json.dumps(envelope, sort_keys=True).encode("utf-8"),
        )


def classify_cell_envelope(path: Union[str, Path]) -> Tuple[str, str]:
    """Liveness of one on-disk cell envelope: ``("live", "")`` or
    ``("stale", reason)`` where the reason names what invalidated it —
    ``"unreadable"`` (not a JSON envelope object), ``"legacy"`` (v1
    envelope), or :func:`repro.versioning.stale_salts`' reason.
    Powers the ``repro cache info`` salt report and ``purge --stale``
    (the cells row of :func:`repro.artifacts.runtime_stores`)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):  # also bytes that are not UTF-8
        return "stale", "unreadable"
    if not isinstance(data, dict) or not isinstance(data.get("payload"), dict):
        return "stale", "unreadable"
    if data.get("schema") != CACHE_SCHEMA:
        return "stale", "legacy"
    reason = stale_salts(data.get("algorithm"), data.get("salts"))
    return ("stale", reason) if reason else ("live", "")
