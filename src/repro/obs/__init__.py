"""Telemetry subsystem: structured run events, per-phase profiling,
and live sweep progress.

Three layers, cheap by default:

* :mod:`repro.obs.events` — the stable, schema-versioned vocabulary of
  run events (``run_start``, ``cell_end``, ``cell_timeout``, ...)
  serialized as JSONL;
* :mod:`repro.obs.recorder` — the :class:`Recorder` event-sink
  protocol.  The default :data:`NULL_RECORDER` is a no-op whose
  ``enabled`` flag lets hot paths skip event construction entirely, so
  an un-instrumented run pays nothing;
* :mod:`repro.obs.phases` — the :func:`phased` decorator and the
  :class:`PhaseTracker` an engine attaches when the metrics registry
  is enabled: each call of a node method decorated
  ``@phased("dfs-token")`` is one entry of that phase, and the tracker
  adds each run's per-phase wall-time, message and entry totals to the
  registry once (without a registry a decorated method is called
  straight through).

:mod:`repro.obs.progress` renders live sweep progress (done/failed/
cached counts, throughput, ETA, slowest-cell watchlist) from the
per-cell callbacks of the parallel executor.

:mod:`repro.obs.metrics` is the one store for counts and timings: a
process-wide :class:`~repro.obs.metrics.MetricsRegistry` of labeled
counters/gauges/fixed-bucket histograms with deterministic, mergeable
snapshots, exported as Prometheus text, JSON (``repro metrics dump``),
or the live ``repro top`` view (:mod:`repro.obs.top`).  The event
stream holds lifecycles; report tables are views of the two.

See ``docs/observability.md`` for the event schema and the phase-hook
guide for algorithm authors.
"""

from repro.obs.events import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    make_event,
    parse_line,
    validate_event,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    render_prometheus,
    set_global_registry,
)
from repro.obs.phases import PhaseTracker, phased
from repro.obs.progress import SweepProgress
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
)

__all__ = [
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "make_event",
    "parse_line",
    "validate_event",
    "NULL_REGISTRY",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "render_prometheus",
    "set_global_registry",
    "PhaseTracker",
    "phased",
    "SweepProgress",
    "NULL_RECORDER",
    "JsonlRecorder",
    "MemoryRecorder",
    "NullRecorder",
    "Recorder",
]
