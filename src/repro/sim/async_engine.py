"""Asynchronous discrete-event engine.

Implements the paper's asynchronous model (Sec 1.1–1.2):

* every message suffers an unpredictable but finite delay, chosen by an
  oblivious adversary (a :class:`~repro.sim.adversary.DelayStrategy`);
  delays are normalized so the maximum is tau = 1 time unit;
* channels are error-free and FIFO — the engine enforces per-directed-
  edge delivery ordering even when the adversary's raw delays would
  reorder messages;
* local computation is instantaneous and free;
* a sleeping node is woken by the arrival of any message and processes
  that message immediately upon awakening; adversary wake-ups happen at
  schedule times; waking is permanent.

What a wake, a delivery and a send do is shared with the other lanes
(:class:`~repro.sim.engine.Engine`); this module owns the event order.
The event loop is deterministic: ties in delivery time break by global
send sequence number, and adversary wake-ups at equal times break by
schedule insertion order.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.recorder import Recorder
from repro.sim.adversary import Adversary
from repro.sim.engine import Engine, publish_run
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm
from repro.sim.trace import Trace

Vertex = Hashable

_WAKE = 0
_DELIVER = 1

# FIFO enforcement pushes a delivery this far past the previous one on
# the same directed channel, when the tau = 1 delay bound leaves room;
# small enough to never matter for the time accounting.  When the
# channel's high-water mark already sits at the bound (e.g. unit-delay
# bursts), the delivery instead ties with it and the heap's send-
# sequence tie-break keeps FIFO order — a bump past sent_at + 1 would
# violate the normalization and inflate time_complexity.
_FIFO_EPS = 1e-9

# Telemetry heartbeat cadence: one engine_step event per this many
# processed events (when a recorder is enabled).
_STEP_EVERY = 1_000


class AsyncEngine(Engine):
    """Runs one asynchronous execution of a wake-up algorithm."""

    lane = "async"

    def __init__(
        self,
        setup: NetworkSetup,
        nodes: Dict[Vertex, NodeAlgorithm],
        adversary: Adversary,
        seed: int = 0,
        max_events: int = 5_000_000,
        trace: Optional[Trace] = None,
        recorder: Optional[Recorder] = None,
        controller=None,
    ):
        super().__init__(setup, nodes, adversary, seed, trace, recorder)
        # Schedule controller (repro.check): when set, run() delegates
        # to the controlled loop.  Same zero-overhead discipline as
        # NULL_RECORDER — the plain hot path pays one attribute check
        # per run(), not per event.
        self._controller = controller
        self._max_events = max_events
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._fifo_last: Dict[Tuple[Vertex, Vertex], float] = {}
        self._now = 0.0
        for v, t in adversary.schedule.times().items():
            heapq.heappush(self._heap, (t, next(self._seq), _WAKE, v))

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Process events until quiescence; returns the metrics.

        The whole event loop runs inside the implicit ``"engine"``
        phase, so every profiled run (see :mod:`repro.obs.phases`) has
        at least one phase entry even for algorithms that declare no
        phases of their own.
        """
        if self._controller is not None:
            from repro.check.controller import run_controlled

            return run_controlled(self)
        rec_enabled = self.recorder.enabled  # fixed for the run; hoisted
        mreg = get_registry()
        # Heap-depth sampling shares the heartbeat cadence; the child
        # observe is hoisted so the disabled path costs one `is None`
        # check per event, same discipline as rec_enabled.
        frontier_obs = (
            mreg.histogram(
                "repro_engine_frontier_size", engine="async"
            ).observe
            if mreg.enabled
            else None
        )
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        wake = self._wake
        receive = self._receive
        emit = self._emit
        delay_of = self.adversary.delays.delay
        fifo_last = self._fifo_last
        max_events = self._max_events
        vstate = self._vstate
        now = self._now
        processed = 0
        self.phases._start("engine")
        try:
            while heap:
                time, _tie, kind, item = pop(heap)
                if time < now - 1e-12:
                    raise SimulationError("event scheduled in the past")
                if time > now:
                    now = time
                    self._now = time
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget of {self._max_events} exceeded; "
                        "the protocol is likely not terminating"
                    )
                if kind == _DELIVER:
                    receive(item, time)
                    v = item.dst
                else:
                    v = item
                    ctx, node = vstate[v]
                    if not ctx._awake:
                        wake(ctx, node, v, time, "adversary")
                # Schedule v's new messages: an adversary delay each,
                # then the FIFO slot on its channel.
                for msg in emit(v, time):
                    dst = msg.dst
                    delay = delay_of(v, dst, time, msg.seq)
                    if not 0.0 < delay <= 1.0:
                        raise SimulationError(
                            f"adversary produced delay {delay} outside (0, 1]"
                        )
                    deliver_at = time + delay
                    chan = (v, dst)
                    prev = fifo_last.get(chan)
                    if prev is not None and deliver_at <= prev:
                        deliver_at = self._fifo_slot(prev, time + 1.0, chan)
                    fifo_last[chan] = deliver_at
                    push(heap, (deliver_at, msg.seq, _DELIVER, msg))
                if frontier_obs is not None and processed % _STEP_EVERY == 0:
                    frontier_obs(len(heap))
                if rec_enabled and processed % _STEP_EVERY == 0:
                    self._heartbeat(processed, now)
        finally:
            self.phases._stop()
        self.metrics.events_processed = processed
        publish_run(self.lane, self.metrics)
        return self.metrics

    # ------------------------------------------------------------------
    def _fifo_slot(self, prev: float, cap: float, chan) -> float:
        """A FIFO-consistent delivery time after ``prev`` within the
        tau = 1 bound ``cap`` (= sent_at + 1.0).

        Prefers a strict eps bump; when the high-water mark already
        sits at the bound, the delivery ties with it (the heap's seq
        tie-break preserves send order on equal times).  Only a
        high-water mark *beyond* the bound — impossible unless the
        invariant is already broken — raises.
        """
        bumped = prev + _FIFO_EPS
        if bumped <= cap:
            return bumped
        if prev <= cap:
            return prev
        raise SimulationError(
            f"FIFO channel {chan!r} saturated beyond the tau = 1 bound "
            f"(high-water mark {prev!r} past {cap!r})"
        )
