"""Execution metrics: the paper's complexity measures, made measurable.

Collects exactly the quantities Table 1 reports:

* **message complexity** — total messages sent over the execution
  (Sec 1.2), total bits and the largest message's bits (per-message
  facts — sender, recipient, seq, bits — live in the
  :class:`~repro.sim.trace.Trace` of a run that records one);
* **time complexity** — for async runs, (last delivery or wake) minus
  (first wake), with delays normalized to tau = 1; for sync runs the
  number of lock-step rounds between the first wake and the last
  activity;
* **wake times** — when each node woke, from which the realized
  awake-distance behaviour is derived.

Advice-length statistics live with the oracle
(:mod:`repro.advice.oracle`) since they are a property of the advising
scheme, not of an execution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Hashable, List, Optional

from repro.errors import SimulationError

Vertex = Hashable


@dataclass
class Metrics:
    """Mutable metric accumulator owned by an engine."""

    messages_total: int = 0
    bits_total: int = 0
    max_message_bits: int = 0
    wake_time: Dict[Vertex, float] = field(default_factory=dict)
    wake_cause: Dict[Vertex, str] = field(default_factory=dict)
    first_wake: Optional[float] = None
    last_activity: float = 0.0
    events_processed: int = 0
    # Messages sent per round, filled by the bulk engine (the
    # per-message engines derive the same histogram from traces).
    # In-process only: O(rounds), dropped by compact().
    round_messages: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording (called by engines)
    # ------------------------------------------------------------------
    def record_wake(self, v: Vertex, time: float, cause: str) -> None:
        """Record v's (first and only) wake."""
        if v in self.wake_time:
            return  # waking is permanent; repeat wakes are no-ops
        self.wake_time[v] = time
        self.wake_cause[v] = cause
        if self.first_wake is None or time < self.first_wake:
            self.first_wake = time
        self.note_activity(time)

    def note_activity(self, time: float) -> None:
        """Advance the last-activity clock."""
        if time > self.last_activity:
            self.last_activity = time

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def time_complexity(self) -> float:
        """Sec 1.2: time from the first wake-up to the last activity."""
        if self.first_wake is None:
            return 0.0
        return self.last_activity - self.first_wake

    @property
    def time_all_awake(self) -> float:
        """Time from the first wake-up until the *last* wake-up.

        This is the measure the rho_awk statements are about ("wakes up
        all nodes within ... rounds"); it never exceeds
        :attr:`time_complexity`, which additionally counts trailing
        message deliveries to already-awake nodes.
        """
        if self.first_wake is None or not self.wake_time:
            return 0.0
        return max(self.wake_time.values()) - self.first_wake

    def awake_count(self) -> int:
        """How many nodes have woken so far."""
        return len(self.wake_time)

    def total_awake_time(self) -> float:
        """Sum over nodes of (last activity - wake time): a proxy for
        the energy spent listening while awake.

        This is the quantity the Wake-on-LAN motivation (Sec 1) cares
        about beyond message count; note it is distinct from the
        *awake complexity* literature the paper's footnote 2
        distinguishes itself from (there the algorithm controls the
        sleep schedule; here waking is permanent).
        """
        return sum(
            self.last_activity - t for t in self.wake_time.values()
        )

    def wake_cause_counts(self) -> Dict[str, int]:
        """How many nodes woke per cause ("adversary"/"message"),
        sorted by cause name — the cause-of-wake breakdown benches
        report."""
        counts = Counter(self.wake_cause.values())
        return {cause: counts[cause] for cause in sorted(counts)}

    def summary(self) -> Dict[str, float]:
        """A flat dict convenient for bench tables and logging."""
        return {
            "messages": float(self.messages_total),
            "bits": float(self.bits_total),
            "max_message_bits": float(self.max_message_bits),
            "time": float(self.time_complexity),
            "awake": float(self.awake_count()),
            "events": float(self.events_processed),
        }

    # ------------------------------------------------------------------
    # Lean serialization (parallel executor / result cache)
    # ------------------------------------------------------------------
    def compact(self) -> "LeanMetrics":
        """A lightweight copy that keeps every scalar but drops the
        per-vertex wake maps and the per-round histogram.

        Used when a result crosses a process boundary or is persisted to
        the on-disk cache: those collections grow with n and the round
        count, yet everything Table 1 reports is scalar.  The wake maps
        are replaced by the three numbers read from them — the awake
        count, the wake span (:attr:`time_all_awake`) and the per-cause
        counts — so the copy's size does not depend on n.
        """
        return LeanMetrics(
            messages_total=self.messages_total,
            bits_total=self.bits_total,
            max_message_bits=self.max_message_bits,
            first_wake=self.first_wake,
            last_activity=self.last_activity,
            events_processed=self.events_processed,
            awake=self.awake_count(),
            wake_span=self.time_all_awake,
            causes=self.wake_cause_counts(),
        )


#: The read-only empty every lean copy shares in place of the
#: per-vertex wake maps.  Reading it behaves as reading a live run's
#: empty map; writing to it raises.
_NO_MAP = MappingProxyType({})


@dataclass(init=False)
class LeanMetrics(Metrics):
    """Metrics without the per-vertex maps, as :meth:`Metrics.compact`
    and the lean-dict deserializer build them.  :meth:`awake_count`,
    :attr:`time_all_awake` and :meth:`wake_cause_counts` stay exact,
    read from plain values; :meth:`total_awake_time` needs the
    per-vertex wake times, so it raises.

    The constructor sets scalars only: the wake maps and the round
    histogram are shared class-level empties (unannotated, so they are
    no dataclass defaults), and a copy pickles as its scalars."""

    awake: int
    wake_span: float
    causes: Dict[str, int]

    wake_time = wake_cause = _NO_MAP
    round_messages = ()

    def __init__(
        self,
        messages_total: int = 0,
        bits_total: int = 0,
        max_message_bits: int = 0,
        first_wake: Optional[float] = None,
        last_activity: float = 0.0,
        events_processed: int = 0,
        awake: int = 0,
        wake_span: float = 0.0,
        causes: Optional[Dict[str, int]] = None,
    ) -> None:
        self.messages_total = messages_total
        self.bits_total = bits_total
        self.max_message_bits = max_message_bits
        self.first_wake = first_wake
        self.last_activity = last_activity
        self.events_processed = events_processed
        self.awake = awake
        self.wake_span = wake_span
        self.causes = {} if causes is None else causes

    @property
    def time_all_awake(self) -> float:
        return self.wake_span

    def awake_count(self) -> int:
        return self.awake

    def wake_cause_counts(self) -> Dict[str, int]:
        return dict(self.causes)

    def total_awake_time(self) -> float:
        """Raises :class:`~repro.errors.SimulationError`."""
        raise SimulationError(
            "lean metrics keep no per-vertex wake times; "
            "total_awake_time() needs the live run's metrics"
        )
