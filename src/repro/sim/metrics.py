"""Execution metrics: the paper's complexity measures, made measurable.

Collects exactly the quantities Table 1 reports:

* **message complexity** — total messages sent over the execution
  (Sec 1.2), plus per-node and per-edge breakdowns and total bits;
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
from typing import Dict, Hashable, List, Optional

Vertex = Hashable


@dataclass
class Metrics:
    """Mutable metric accumulator owned by an engine."""

    messages_total: int = 0
    bits_total: int = 0
    max_message_bits: int = 0
    sent_by: Counter = field(default_factory=Counter)
    received_by: Counter = field(default_factory=Counter)
    edge_messages: Counter = field(default_factory=Counter)
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
    def compact(self) -> "Metrics":
        """A lightweight copy that keeps every scalar but drops the
        per-node/per-edge Counters and the per-vertex wake-time map.

        Used when a result crosses a process boundary or is persisted to
        the on-disk cache: the heavy collections grow with n and m, yet
        everything Table 1 reports is scalar.  The wake-time map is
        replaced by placeholder entries that preserve the derived
        quantities (:meth:`awake_count`, :attr:`time_all_awake`) without
        carrying a per-vertex dict (placeholder keys hash stably and
        compare equal across processes).  The wake-cause map gets the
        same treatment: per-vertex attribution is dropped, per-cause
        counts (:meth:`wake_cause_counts`) survive exactly.
        """
        m = Metrics(
            messages_total=self.messages_total,
            bits_total=self.bits_total,
            max_message_bits=self.max_message_bits,
            first_wake=self.first_wake,
            last_activity=self.last_activity,
            events_processed=self.events_processed,
        )
        if self.wake_time:
            count = len(self.wake_time)
            last_wake = max(self.wake_time.values())
            first = self.first_wake if self.first_wake is not None else last_wake
            m.wake_time = {("awake", i): first for i in range(count - 1)}
            m.wake_time[("awake", count - 1)] = last_wake
            # Re-attach causes to the placeholder keys in sorted-cause
            # order: which placeholder carries which cause is arbitrary,
            # the per-cause counts are preserved bit-for-bit.
            causes = [
                c
                for cause, cnt in self.wake_cause_counts().items()
                for c in [cause] * cnt
            ]
            m.wake_cause = {
                ("awake", i): cause for i, cause in enumerate(causes)
            }
        return m

    @staticmethod
    def placeholder_wake_causes(counts: Dict[str, int]) -> Dict:
        """Rebuild a placeholder ``wake_cause`` map (keys aligned with
        :meth:`compact`'s wake-time placeholders) from per-cause
        counts; used by the lean-result deserializer."""
        causes = [
            c
            for cause in sorted(counts)
            for c in [cause] * int(counts[cause])
        ]
        return {("awake", i): cause for i, cause in enumerate(causes)}
