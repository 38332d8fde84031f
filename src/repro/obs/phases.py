"""Per-phase attribution of wall-time and message counts.

The full paper reasons about *phases* of an execution — awake-distance
growth, token traversals, advice decoding — that total metrics
collapse.  :func:`phased` makes them measurable: it decorates a node
method ``(self, ctx, *args)`` so that each call is one entry of the
named phase, and the engine's :class:`PhaseTracker` attributes

* **wall-time** — monotonic seconds inside the call — and
* **messages** — sends the call queued on the node's outbox

to the phase name.  The engine times its own implicit ``"engine"``
phase around the whole run (:meth:`PhaseTracker._start` /
:meth:`PhaseTracker._stop`), whose messages are the sends it flushed.
When that outermost phase closes, the tracker adds the run's totals
once to the metrics registry, the only phase store:
``repro_phase_seconds`` (one observation per run and phase),
``repro_phase_messages_total`` and ``repro_phase_entries_total``, each
labelled ``phase`` and ``n``.  Without an enabled registry an engine
holds :data:`NULL_TRACKER` and its contexts no tracker at all, so a
decorated method is called straight through (:func:`track_phases`).

Attribution is *inclusive*: a decorated method that calls another one
counts the inner call's time and sends too, matching how profiler call
trees read.  A call that raises still counts its entry.  Wall-times
are wall-clock and therefore not deterministic; message counts and
entry counts are, and only those may be asserted by tests.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:
    from repro.sim.metrics import Metrics


def phased(name: str):
    """Make each call of a node method one entry of phase ``name``.

    The method takes ``(self, ctx, *args)``.  Without a tracker on the
    context (``ctx._phases is None``: no registry, or a context outside
    any engine) it is called straight through.  With one, the call's
    wall time, the sends it queued on ``ctx``'s outbox and one entry
    are added to the tracker's per-run totals.
    """

    def decorate(method):
        @functools.wraps(method)
        def entry(self, ctx, *args):
            tracker = ctx._phases
            if tracker is None:
                return method(self, ctx, *args)
            queued = len(ctx._outbox)
            t0 = perf_counter()
            try:
                return method(self, ctx, *args)
            finally:
                tracker.add(
                    name, perf_counter() - t0, len(ctx._outbox) - queued
                )

        return entry

    return decorate


class _NullTracker:
    """The tracker of a run without a registry."""

    __slots__ = ()

    def _start(self, name: str) -> None:
        pass

    def _stop(self) -> None:
        pass


NULL_TRACKER = _NullTracker()


class PhaseTracker:
    """Per-run phase totals, plus the stack of the engine's own phase.

    ``metrics`` is the engine's :class:`~repro.sim.metrics.Metrics`
    (its ``messages_total`` counts the sends flushed inside the engine
    phase); ``registry`` receives the run's totals, labelled with its
    size ``n``.
    """

    __slots__ = ("metrics", "registry", "n", "_stack", "_totals")

    def __init__(
        self, metrics: "Metrics", registry: MetricsRegistry, n: int
    ):
        self.metrics = metrics
        self.registry = registry
        self.n = str(n)
        # (name, t0, messages_total snapshot)
        self._stack: List[Tuple[str, float, int]] = []
        # name -> [seconds, messages, entries] summed over the run
        self._totals: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float, messages: int) -> None:
        """Count one entry of phase ``name``.

        It took ``seconds`` and sent ``messages``."""
        total = self._totals.get(name)
        if total is None:
            total = self._totals[name] = [0.0, 0, 0]
        total[0] += seconds
        total[1] += messages
        total[2] += 1

    def _start(self, name: str) -> None:
        self._stack.append(
            (name, perf_counter(), self.metrics.messages_total)
        )

    def _stop(self) -> None:
        name, t0, msgs0 = self._stack.pop()
        self.add(
            name, perf_counter() - t0, self.metrics.messages_total - msgs0
        )
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
