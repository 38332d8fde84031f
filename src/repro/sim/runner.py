"""High-level execution driver.

``run_wakeup`` wires together a network setup, a wake-up algorithm, and
an adversary; runs the oracle (for advising schemes) and the requested
engine; and returns a :class:`WakeUpResult` carrying every Table-1
quantity for the execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Optional

from repro.errors import SimulationError, WakeUpFailure
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.adversary import Adversary
from repro.sim.async_engine import AsyncEngine
from repro.sim.metrics import LeanMetrics, Metrics
from repro.sim.sync_engine import SyncEngine
from repro.sim.trace import Trace

Vertex = Hashable


@dataclass
class WakeUpResult:
    """Outcome of one execution.

    Attributes mirror the paper's complexity measures:

    * ``messages`` / ``bits`` — message complexity and total bits;
    * ``time`` — async time (tau-normalized) or sync round count
      between first wake and last activity;
    * ``advice_max_bits`` / ``advice_avg_bits`` — the advising scheme's
      cost on this input (0 for advice-free algorithms);
    * ``all_awake`` — whether the wake-up problem was solved;
    * ``wake_time`` — per-vertex wake times.
    """

    algorithm: str
    engine: str
    n: int
    messages: int
    bits: int
    max_message_bits: int
    time: float
    time_all_awake: float
    all_awake: bool
    asleep: frozenset
    wake_time: Dict[Vertex, float]
    advice_max_bits: int
    advice_avg_bits: float
    advice_total_bits: int
    metrics: Metrics
    trace: Optional[Trace] = None

    def summary(self) -> Dict[str, float]:
        """Flat numeric view for bench tables and JSON storage."""
        return {
            "n": float(self.n),
            "messages": float(self.messages),
            "bits": float(self.bits),
            "time": float(self.time),
            "advice_max_bits": float(self.advice_max_bits),
            "advice_avg_bits": float(self.advice_avg_bits),
        }

    # ------------------------------------------------------------------
    # Lean serialization (process boundary / on-disk result cache)
    # ------------------------------------------------------------------
    def lean(self) -> "WakeUpResult":
        """A copy safe to ship across a process boundary cheaply.

        Drops the heavyweights that grow with n and m — the ``trace``
        and the per-vertex wake maps (here and in the metrics) —
        while keeping every scalar the :meth:`summary` and the sweep
        aggregators read.  ``asleep`` is kept (it is empty on success
        and is exactly the failure diagnostic on partial wake-ups).
        """
        return replace(
            self, wake_time={}, metrics=self.metrics.compact(), trace=None
        )

    def to_lean_dict(self) -> Dict[str, object]:
        """JSON-able form of :meth:`lean`; the cache file payload."""
        return {
            "algorithm": self.algorithm,
            "engine": self.engine,
            "n": self.n,
            "messages": self.messages,
            "bits": self.bits,
            "max_message_bits": self.max_message_bits,
            "time": self.time,
            "time_all_awake": self.time_all_awake,
            "all_awake": self.all_awake,
            "asleep": sorted(repr(v) for v in self.asleep),
            "advice_max_bits": self.advice_max_bits,
            "advice_avg_bits": self.advice_avg_bits,
            "advice_total_bits": self.advice_total_bits,
            "metrics": {
                "first_wake": self.metrics.first_wake,
                "last_activity": self.metrics.last_activity,
                "events_processed": self.metrics.events_processed,
                "awake_count": self.metrics.awake_count(),
                "wake_causes": self.metrics.wake_cause_counts(),
            },
        }

    @classmethod
    def from_lean_dict(cls, data: Dict[str, object]) -> "WakeUpResult":
        """Rebuild a lean result from :meth:`to_lean_dict` output.

        The reconstruction is exact for every summary scalar and for the
        metrics' awake count, wake span and per-cause wake counts; the
        ``asleep`` set comes back as reprs (vertices are not JSON keys)
        and ``wake_time`` stays empty, mirroring :meth:`lean`.
        """
        md = data["metrics"]
        metrics = LeanMetrics(
            messages_total=int(data["messages"]),
            bits_total=int(data["bits"]),
            max_message_bits=int(data["max_message_bits"]),
            first_wake=md["first_wake"],
            last_activity=float(md["last_activity"]),
            events_processed=int(md["events_processed"]),
            awake=int(md["awake_count"]),
            wake_span=float(data["time_all_awake"]),
            causes={
                cause: int(count)
                for cause, count in sorted(md.get("wake_causes", {}).items())
            },
        )
        return cls(
            algorithm=str(data["algorithm"]),
            engine=str(data["engine"]),
            n=int(data["n"]),
            messages=int(data["messages"]),
            bits=int(data["bits"]),
            max_message_bits=int(data["max_message_bits"]),
            time=float(data["time"]),
            time_all_awake=float(data["time_all_awake"]),
            all_awake=bool(data["all_awake"]),
            asleep=frozenset(data["asleep"]),
            wake_time={},
            advice_max_bits=int(data["advice_max_bits"]),
            advice_avg_bits=float(data["advice_avg_bits"]),
            advice_total_bits=int(data["advice_total_bits"]),
            metrics=metrics,
            trace=None,
        )


def run_wakeup(
    setup: NetworkSetup,
    algorithm,
    adversary: Adversary,
    engine: str = "async",
    seed: int = 0,
    require_all_awake: bool = True,
    max_events: int = 5_000_000,
    max_rounds: int = 1_000_000,
    record_trace: bool = False,
    trace: Optional[Trace] = None,
    recorder: Optional[Recorder] = None,
    controller=None,
) -> WakeUpResult:
    """Execute one wake-up run end to end.

    Parameters
    ----------
    setup:
        The static network (may already carry advice; if the algorithm
        declares ``uses_advice`` and the setup has none, the oracle is
        invoked here).
    algorithm:
        A :class:`~repro.core.base.WakeUpAlgorithm`.
    adversary:
        Wake schedule plus (async) delay strategy.
    engine:
        "async", "sync", or "bulk".  "bulk" requests the vectorized
        frontier lane (:mod:`repro.sim.bulk`): algorithms that declare
        a :meth:`~repro.core.base.WakeUpAlgorithm.bulk_kernel` run as
        whole-frontier rounds with exactly the sync engine's aggregate
        metrics; runs outside the bulk contract (no kernel, a trace
        requested, a drop strategy armed) fall back to the sync engine
        transparently.  The result's ``engine`` field records the lane
        that actually ran.
    require_all_awake:
        If True (default) a run that leaves nodes asleep raises
        :class:`~repro.errors.WakeUpFailure`; benches measuring failure
        probability set this to False.
    trace:
        A pre-built :class:`~repro.sim.trace.Trace` to record into —
        how callers get a bounded flight recorder
        (``Trace(maxlen=...)``) that they still hold when the run
        raises.  Implies ``record_trace``.
    recorder:
        Telemetry sink (:mod:`repro.obs`); the default
        :data:`~repro.obs.recorder.NULL_RECORDER` costs nothing.
        ``run_start``/``run_end`` frame the engine's own events, and
        ``run_end`` is emitted (with ``all_awake=False``) even when the
        run ends in :class:`~repro.errors.WakeUpFailure`.
    controller:
        A :class:`~repro.check.controller.ScheduleController` that
        resolves the async engine's nondeterminism explicitly (bounded
        model checking / worst-case search; see ``docs/modelcheck.md``).
        Async engine only.
    """
    if engine not in ("async", "sync", "bulk"):
        raise SimulationError(f"unknown engine {engine!r}")
    if controller is not None and engine != "async":
        raise SimulationError(
            "schedule controllers only apply to the async engine"
        )
    # The bulk lane implements sync-model semantics; algorithms declare
    # synchrony against the model, not the implementation.
    algorithm.validate_setup(
        setup, "sync" if engine == "bulk" else engine
    )
    if trace is None and record_trace:
        trace = Trace()

    lane = engine
    kernel = None
    if engine == "bulk":
        from repro.sim.bulk import resolve_bulk_lane

        kernel = resolve_bulk_lane(algorithm, setup, adversary, trace)
        if kernel is None:
            lane = "sync"

    rec = recorder if recorder is not None else NULL_RECORDER
    if rec.enabled:
        rec.emit(
            "run_start",
            algorithm=algorithm.name,
            engine=lane,
            n=setup.n,
            seed=seed,
        )

    advice_max = advice_avg = advice_total = 0
    if algorithm.uses_advice:
        if setup.advice is None:
            advice_map = algorithm.compute_advice(setup)
            if advice_map is None:
                raise SimulationError(
                    f"{algorithm.name} declares uses_advice but its "
                    "oracle returned None"
                )
            setup = setup.with_advice(dict(advice_map.items()))
            advice_max = advice_map.max_bits
            advice_avg = advice_map.average_bits
            advice_total = advice_map.total_bits
        else:
            lengths = [len(b) for b in setup.advice.values()]
            advice_max = max(lengths, default=0)
            advice_total = sum(lengths)
            advice_avg = advice_total / len(lengths) if lengths else 0.0

    if lane == "bulk":
        # The kernel carries the node logic; per-vertex instances are
        # never built (that O(n) Python loop is part of what the bulk
        # lane removes from the critical path).
        from repro.sim.bulk import BulkSyncEngine

        eng = BulkSyncEngine(
            setup, kernel, adversary, seed=seed, max_rounds=max_rounds,
            recorder=rec,
        )
    elif lane == "async":
        nodes = algorithm.build_nodes(setup)
        eng = AsyncEngine(
            setup, nodes, adversary, seed=seed, max_events=max_events,
            trace=trace, recorder=rec, controller=controller,
        )
    else:
        nodes = algorithm.build_nodes(setup)
        eng = SyncEngine(
            setup, nodes, adversary, seed=seed, max_rounds=max_rounds,
            trace=trace, recorder=rec,
        )
    metrics = eng.run()
    # Sync and bulk times are whole rounds, so this is the round count.
    time_complexity = metrics.time_complexity
    time_all_awake = metrics.time_all_awake

    asleep = frozenset(
        v for v in setup.graph.vertices() if v not in metrics.wake_time
    )
    mreg = get_registry()
    if mreg.enabled:
        # Per-run, algorithm-labeled aggregates.  Names are distinct
        # from the engine-level repro_engine_* instruments (those count
        # totals per engine; these sample distributions per run) so
        # nothing is double-counted.
        labels = {"algorithm": algorithm.name, "engine": lane}
        mreg.counter("repro_runs_total", **labels).inc()
        mreg.histogram("repro_run_messages", **labels).observe(
            metrics.messages_total
        )
        mreg.histogram("repro_run_time", **labels).observe(
            time_complexity
        )
    if rec.enabled:
        rec.emit(
            "run_end",
            algorithm=algorithm.name,
            engine=lane,
            n=setup.n,
            messages=metrics.messages_total,
            time=time_complexity,
            all_awake=not asleep,
            asleep=len(asleep),
        )
    if asleep and require_all_awake:
        raise WakeUpFailure(asleep)

    return WakeUpResult(
        algorithm=algorithm.name,
        engine=lane,
        n=setup.n,
        messages=metrics.messages_total,
        bits=metrics.bits_total,
        max_message_bits=metrics.max_message_bits,
        time=time_complexity,
        time_all_awake=time_all_awake,
        all_awake=not asleep,
        asleep=asleep,
        wake_time=dict(metrics.wake_time),
        advice_max_bits=advice_max,
        advice_avg_bits=advice_avg,
        advice_total_bits=advice_total,
        metrics=metrics,
        trace=trace,
    )
