"""The event semantics every per-message lane shares.

The paper's model (Sec 1.1–1.2) fixes what an event does, whatever
order the events come in:

* a wake is permanent and has a cause — the adversary's schedule or
  the arrival of a message;
* a message that reaches a sleeping node wakes it, and the node then
  processes that message at once;
* every send is measured in bits against the bandwidth cap (CONGEST)
  and charged to the run's message and bit totals, whether or not it
  is delivered.

:class:`Engine` writes these down once: :meth:`Engine._wake`,
:meth:`Engine._receive` and :meth:`Engine._emit`.  The lanes own only
the *order* of events — the asynchronous heap with its delays and
per-channel FIFO (:class:`~repro.sim.async_engine.AsyncEngine`), the
lock-step rounds (:class:`~repro.sim.sync_engine.SyncEngine`), and the
model checker's choice points (:mod:`repro.check.controller`), which
drives an :class:`AsyncEngine`'s runtime through the same three calls.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.phases import NULL_TRACKER, track_phases
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.adversary import Adversary
from repro.sim.faults import NoDrops
from repro.sim.messages import Message, bit_size
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm, NodeContext
from repro.sim.trace import Trace

Vertex = Hashable

# Sentinel for the payload-identity memo ("no payload seen yet"); a
# fresh object is never identical to any payload.
_UNSET = object()


def publish_run(engine: str, metrics: Metrics) -> None:
    """Count one finished run in the ``repro_engine_*`` totals.

    ``engine`` is the lane label; under the null registry this does
    nothing."""
    mreg = get_registry()
    if not mreg.enabled:
        return
    mreg.counter("repro_engine_runs_total", engine=engine).inc()
    mreg.counter("repro_engine_events_total", engine=engine).inc(
        metrics.events_processed
    )
    mreg.counter("repro_engine_messages_total", engine=engine).inc(
        metrics.messages_total
    )
    mreg.counter("repro_engine_bits_total", engine=engine).inc(
        metrics.bits_total
    )


class Engine:
    """Node runtime plus wake, receive and send semantics.

    Owns one :class:`~repro.sim.node.NodeContext` per vertex, the run's
    :class:`~repro.sim.metrics.Metrics`, the optional trace and the
    global send sequence.  Subclasses implement ``run`` and decide
    which event fires when; ``lane`` labels their telemetry.
    """

    lane = ""

    def __init__(
        self,
        setup: NetworkSetup,
        nodes: Dict[Vertex, NodeAlgorithm],
        adversary: Adversary,
        seed: int,
        trace: Optional[Trace],
        recorder: Optional[Recorder],
    ):
        self.setup = setup
        self.nodes = nodes
        self.adversary = adversary
        self.metrics = Metrics()
        self.trace = trace
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.phases = track_phases(self.metrics, setup.n)
        # Contexts of an untracked run keep None, so @phased node
        # methods are called straight through.
        tracker = None if self.phases is NULL_TRACKER else self.phases
        self._seq = itertools.count()

        vertices = list(setup.graph.vertices())
        missing = set(vertices) - set(nodes)
        if missing:
            raise SimulationError(
                f"{len(missing)} vertices have no algorithm instance"
            )
        self._vstate: Dict[Vertex, Tuple[NodeContext, NodeAlgorithm]] = {}
        for v in vertices:
            # Seed only; the context builds the Random on first use.
            node_rng = (seed * 1_000_003 + setup.id_of(v)) % 2**63
            ctx = NodeContext(v, setup, node_rng)
            ctx._phases = tracker
            self._vstate[v] = (ctx, nodes[v])
        for v in adversary.schedule.times():
            if not setup.graph.has_vertex(v):
                raise SimulationError(f"schedule wakes unknown vertex {v!r}")

        # Per-vertex send tables: one validated lookup per vertex
        # instead of two checked dict walks per send.
        self._tables = {v: setup.ports.table(v) for v in vertices}
        drops = getattr(adversary, "drops", None)
        # NoDrops is structurally a no-op: skip its per-send call.
        self._drops = None if type(drops) is NoDrops else drops
        # LOCAL runs (cap None) skip the per-send bandwidth call.
        self._bw_cap = setup.bandwidth.cap_bits
        # Broadcasts reuse one payload object across ports (and
        # constant payloads across calls), so one identity check
        # usually replaces the whole bit_size measurement.  Holding
        # the reference keeps the id() stable.
        self._memo_payload: Any = _UNSET
        self._memo_bits = 0

    # ------------------------------------------------------------------
    def _wake(
        self,
        ctx: NodeContext,
        node: NodeAlgorithm,
        v: Vertex,
        time: float,
        cause: str,
    ) -> None:
        """Wake the sleeping vertex ``v`` for good: record the time and
        cause ("adversary" or "message"), then run ``on_wake``."""
        ctx._awake = True
        ctx.wake_cause = cause
        self.metrics.record_wake(v, time, cause)
        if self.trace is not None:
            self.trace.wake(time, v, cause)
        node.on_wake(ctx)

    def _receive(self, msg: Message, time: float) -> None:
        """Deliver ``msg`` at ``time``.  A sleeping recipient wakes and
        then processes the message immediately (Sec 1.1)."""
        v = msg.dst
        ctx, node = self._vstate[v]
        metrics = self.metrics
        if time > metrics.last_activity:
            metrics.last_activity = time
        if self.trace is not None:
            self.trace.deliver(time, msg)
        if not ctx._awake:
            self._wake(ctx, node, v, time, "message")
        node.on_message(ctx, msg.dst_port, msg.payload)

    def _emit(self, v: Vertex, time: float) -> List[Message]:
        """Turn ``v``'s queued sends into messages sent at ``time``.

        Each send is measured, checked against the bandwidth cap,
        given the next global seq and charged to the run's totals.  A
        message the drop strategy loses stays charged (the sender
        transmitted it) but is neither traced nor returned; the caller
        schedules the returned ones.  The totals are written back in a
        ``finally`` so they stay exact when a cap violation aborts the
        loop.  Each message is built by one ``tuple.__new__`` call,
        which skips the named tuple's Python-level constructor.
        """
        ctx = self._vstate[v][0]
        sends = ctx._outbox
        if not sends:
            return []
        ctx._outbox = []
        neighbors, back_ports = self._tables[v]
        seq_next = self._seq.__next__
        cap = self._bw_cap
        drops = self._drops
        trace = self.trace
        metrics = self.metrics
        new = tuple.__new__
        last_payload = self._memo_payload
        last_bits = self._memo_bits
        n_sent = 0
        bits_sum = 0
        max_bits = metrics.max_message_bits
        out: List[Message] = []
        try:
            for port, payload in sends:
                dst = neighbors[port - 1]
                if payload is last_payload:
                    bits = last_bits
                else:
                    bits = bit_size(payload)
                    last_payload = payload
                    last_bits = bits
                if cap is not None and bits > cap:
                    self.setup.bandwidth.check(bits)
                seq = seq_next()
                n_sent += 1
                bits_sum += bits
                if bits > max_bits:
                    max_bits = bits
                if drops is not None and drops.drops(v, dst, seq):
                    continue
                msg = new(
                    Message,
                    (v, dst, back_ports[port - 1], port, payload, bits,
                     time, seq),
                )
                if trace is not None:
                    trace.send(time, msg)
                out.append(msg)
        finally:
            self._memo_payload = last_payload
            self._memo_bits = last_bits
            if n_sent:
                metrics.messages_total += n_sent
                metrics.bits_total += bits_sum
                metrics.max_message_bits = max_bits
        return out

    def _heartbeat(self, events: int, now: float) -> None:
        """One ``engine_step`` telemetry event (the lanes call this at
        their own cadence, only when the recorder is enabled)."""
        self.recorder.emit(
            "engine_step",
            events=events,
            now=now,
            awake=self.metrics.awake_count(),
            n=self.setup.n,
            engine=self.lane,
        )
