"""Per-phase attribution of wall-time and message counts.

The full paper reasons about *phases* of an execution — awake-distance
growth, token traversals, advice decoding — that total metrics
collapse.  A :class:`PhaseTracker` makes them measurable: node code
opens spans through :meth:`repro.sim.node.NodeContext.phase`, and on
span exit the tracker attributes

* **wall-time** — monotonic seconds inside the span — and
* **messages** — sends queued on the opening node's outbox during the
  span, plus any sends the engine flushed while it was open

to the phase name.  When the outermost span (the engine's implicit
``"engine"`` phase) closes, it adds the run's totals once to the
metrics registry, the only phase store: ``repro_phase_seconds`` (one
observation per run and phase), ``repro_phase_messages_total`` and
``repro_phase_entries_total``, each labelled ``phase`` and ``n``.
Without an enabled registry an engine holds :data:`NULL_TRACKER`
instead, whose spans cost nothing (:func:`track_phases`).

Spans nest; attribution is *inclusive* (an outer phase's totals
contain its inner phases'), matching how profiler call trees read.
Wall-times are wall-clock and therefore not deterministic; message
counts and entry counts are, and only those may be asserted by tests.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:
    from repro.sim.metrics import Metrics


class _PhaseSpan:
    """One ``with``-block of a named phase."""

    __slots__ = ("_tracker", "_name", "_outbox")

    def __init__(self, tracker: "PhaseTracker", name: str, outbox):
        self._tracker = tracker
        self._name = name
        self._outbox = outbox

    def __enter__(self) -> "_PhaseSpan":
        self._tracker._start(self._name, self._outbox)
        return self

    def __exit__(self, *exc) -> None:
        self._tracker._stop()


class _NullTracker:
    """The tracker of a run without a registry, and its only span."""

    __slots__ = ()

    def span(self, name: str, outbox=None) -> "_NullTracker":
        return self

    def _start(self, name: str, outbox) -> None:
        pass

    def _stop(self) -> None:
        pass

    def __enter__(self) -> "_NullTracker":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_TRACKER = NULL_SPAN = _NullTracker()


class PhaseTracker:
    """Engine-owned stack of open phase spans.

    ``metrics`` is the engine's :class:`~repro.sim.metrics.Metrics`
    (its ``messages_total`` counts the sends flushed inside a span);
    ``registry`` receives the run's totals, labelled with its size
    ``n``.
    """

    __slots__ = ("metrics", "registry", "n", "_stack", "_totals")

    def __init__(
        self, metrics: "Metrics", registry: MetricsRegistry, n: int
    ):
        self.metrics = metrics
        self.registry = registry
        self.n = str(n)
        # (name, t0, messages_total snapshot, outbox, outbox-len snapshot)
        self._stack: List[Tuple[str, float, int, Any, int]] = []
        # name -> [seconds, messages, entries] summed over the run
        self._totals: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, outbox=None) -> _PhaseSpan:
        """A context manager for one phase entry.  ``outbox`` is the
        opening node's send queue (sends land there during callbacks
        and are flushed by the engine only afterwards)."""
        return _PhaseSpan(self, name, outbox)

    # ------------------------------------------------------------------
    def _start(self, name: str, outbox) -> None:
        self._stack.append(
            (
                name,
                time.perf_counter(),
                self.metrics.messages_total,
                outbox,
                len(outbox) if outbox is not None else 0,
            )
        )

    def _stop(self) -> None:
        name, t0, msgs0, outbox, out0 = self._stack.pop()
        messages = self.metrics.messages_total - msgs0
        if outbox is not None:
            messages += len(outbox) - out0
        total = self._totals.setdefault(name, [0.0, 0, 0])
        total[0] += time.perf_counter() - t0
        total[1] += messages
        total[2] += 1
        if not self._stack:
            reg, n = self.registry, self.n
            for name, (seconds, messages, entries) in self._totals.items():
                reg.histogram("repro_phase_seconds", phase=name, n=n).observe(
                    seconds
                )
                reg.counter(
                    "repro_phase_messages_total", phase=name, n=n
                ).inc(messages)
                reg.counter(
                    "repro_phase_entries_total", phase=name, n=n
                ).inc(entries)
            self._totals = {}


def track_phases(metrics: "Metrics", n: int):
    """The phase tracker for a new run of size ``n``.

    A :class:`PhaseTracker` feeding the global registry when it is
    enabled, else :data:`NULL_TRACKER`."""
    registry = get_registry()
    if not registry.enabled:
        return NULL_TRACKER
    return PhaseTracker(metrics, registry, n)
