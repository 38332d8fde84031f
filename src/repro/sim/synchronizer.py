"""Alpha synchronizer: run synchronous algorithms on the async engine.

The paper states Theorem 4 (FastWakeUp) for the synchronous model (Sec
3.2), yet its Table 1 lists the result under "async. KT1 LOCAL" — the
classic bridge between the two being a *synchronizer* (Awerbuch's
alpha synchronizer).  This module implements that bridge for wake-up
algorithms:

Every participating node maintains a **pulse** counter.  In pulse p it
sends exactly one frame per port — ``("pulse", p, payloads)`` where
``payloads`` are the inner algorithm's messages for that port, possibly
empty (a heartbeat).  A node advances from pulse p to p + 1 once it
holds pulse-p frames from *all* neighbors; on advancing it delivers the
inner payloads (the inner algorithm's round-(p+1) deliveries) and gives
the inner node its round-(p+1) computation step.  FIFO channels make
the frame sequence per edge gap-free, so the emulation is exactly a
lock-step execution.

Wake-up specifics:

* the pulse-0 frame of any node wakes its sleeping neighbors at the
  *outer* (engine) level, and they join the pulse structure — but their
  **inner** algorithm stays asleep until an inner payload (or an
  adversary wake) arrives, preserving the wake-up semantics the inner
  algorithm was designed for: empty heartbeats are synchronizer
  plumbing, not protocol messages;
* because no node can pass pulse p until every neighbor reached p, the
  whole component advances in global lock-step; the emulated execution
  equals a synchronous execution in which every node participates from
  pulse 0 — a *legal* schedule for the inner algorithm, so correctness
  (everyone inner-awake) transfers;
* cost: Theta(m) frames per pulse for ``pulse_budget`` pulses, and the
  budget must dominate the inner algorithm's round complexity.  This
  overhead is the textbook price of alpha synchronization and is why
  the paper's Table-1 "async" listing for Theorem 4 does not come with
  a message-complexity discount.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional

from repro.core.base import BOTH, SYNC, WakeUpAlgorithm
from repro.errors import SimulationError
from repro.sim.node import NodeAlgorithm, NodeContext

PULSE = "pulse"

Vertex = Hashable


class _InnerContext:
    """Duck-typed stand-in for :class:`NodeContext` handed to the inner
    (synchronous) node: intercepts sends into per-port pulse buffers and
    carries the inner local-round counter."""

    # No engine owns this context, so the inner node's @phased methods
    # are called straight through.
    _phases = None

    def __init__(self, outer: NodeContext):
        self._outer = outer
        self.local_round = 0
        self.outbox: Dict[int, List[Any]] = {}
        self.wake_cause: Optional[str] = None

    # -- knowledge passthrough ---------------------------------------------
    @property
    def vertex(self):
        return self._outer.vertex

    @property
    def node_id(self) -> int:
        return self._outer.node_id

    @property
    def degree(self) -> int:
        return self._outer.degree

    @property
    def ports(self):
        return self._outer.ports

    @property
    def log2_n_bound(self) -> int:
        return self._outer.log2_n_bound

    @property
    def advice(self):
        return self._outer.advice

    @property
    def rng(self):
        return self._outer.rng

    @property
    def awake(self) -> bool:
        return self._outer.awake

    def neighbor_id(self, port: int) -> int:
        return self._outer.neighbor_id(port)

    def neighbor_ids(self):
        return self._outer.neighbor_ids()

    def port_of(self, neighbor_id: int) -> int:
        return self._outer.port_of(neighbor_id)

    # -- intercepted communication -----------------------------------------
    def send(self, port: int, payload: Any) -> None:
        if not 1 <= port <= self.degree:
            raise SimulationError(
                f"inner node sent on invalid port {port}"
            )
        self.outbox.setdefault(port, []).append(payload)

    def send_to(self, neighbor_id: int, payload: Any) -> None:
        self.send(self.port_of(neighbor_id), payload)

    def broadcast(self, payload: Any) -> None:
        for p in self.ports:
            self.send(p, payload)


class _SynchronizedNode(NodeAlgorithm):
    """Outer node: pulse bookkeeping around one inner sync node."""

    def __init__(self, inner: NodeAlgorithm, pulse_budget: int):
        self._inner = inner
        self._budget = pulse_budget
        self._ictx: Optional[_InnerContext] = None
        self._pulse: Optional[int] = None  # current pulse, None = not joined
        # frames[p][port] = list of inner payloads from that neighbor
        self._frames: Dict[int, Dict[int, List[Any]]] = {}
        self._inner_awake = False
        self._inner_wake_pulse = 0

    # ------------------------------------------------------------------
    def on_wake(self, ctx: NodeContext) -> None:
        self._ictx = _InnerContext(ctx)
        if ctx.wake_cause == "adversary":
            self._inner_wake(ctx, "adversary")
        self._join(ctx)

    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        if not (isinstance(payload, tuple) and payload[:1] == (PULSE,)):
            return
        _, p, inner_payloads = payload
        self._frames.setdefault(p, {})[port] = list(inner_payloads)
        self._try_advance(ctx)

    # ------------------------------------------------------------------
    def _inner_wake(self, ctx: NodeContext, cause: str) -> None:
        if self._inner_awake:
            return
        self._inner_awake = True
        self._inner_wake_pulse = self._pulse if self._pulse is not None else 0
        assert self._ictx is not None
        self._ictx.wake_cause = cause
        self._inner.on_wake(self._ictx)

    def _join(self, ctx: NodeContext) -> None:
        """Enter the pulse structure at pulse 0."""
        if self._pulse is not None:
            return
        self._pulse = 0
        self._run_inner_round(ctx)
        self._emit(ctx)
        self._try_advance(ctx)

    def _run_inner_round(self, ctx: NodeContext) -> None:
        assert self._ictx is not None and self._pulse is not None
        if self._inner_awake and self._inner.wants_round():
            self._ictx.local_round = self._pulse - self._inner_wake_pulse
            self._inner.on_round(self._ictx)

    def _emit(self, ctx: NodeContext) -> None:
        """Send this pulse's frame (payloads or heartbeat) on every port."""
        assert self._ictx is not None and self._pulse is not None
        outbox, self._ictx.outbox = self._ictx.outbox, {}
        for port in ctx.ports:
            payloads = tuple(outbox.get(port, ()))
            ctx.send(port, (PULSE, self._pulse, payloads))

    def _try_advance(self, ctx: NodeContext) -> None:
        assert self._ictx is not None
        while self._pulse is not None and self._pulse < self._budget:
            ready = self._frames.get(self._pulse, {})
            if len(ready) < ctx.degree:
                return
            frames = self._frames.pop(self._pulse)
            self._pulse += 1
            # Deliver the inner payloads as round-(pulse) messages.
            for port in sorted(frames):
                for payload in frames[port]:
                    if not self._inner_awake:
                        self._inner_wake(ctx, "message")
                    self._ictx.local_round = (
                        self._pulse - self._inner_wake_pulse
                    )
                    self._inner.on_message(self._ictx, port, payload)
            self._run_inner_round(ctx)
            self._emit(ctx)


class AlphaSynchronized(WakeUpAlgorithm):
    """Wrap a synchronous wake-up algorithm for the async engine.

    ``pulse_budget`` must be at least the inner algorithm's round
    complexity on the target inputs (e.g. > 10 * rho_awk + 11 for
    FastWakeUp); the execution sends Theta(m) frames per pulse.

    Caveat: the synchronizer's own heartbeat frames wake every node at
    the *engine* level, so a run's ``all_awake`` is trivially true.
    The faithful wake-up measure is **inner** wake — whether the
    wrapped algorithm's protocol reached each node — exposed through
    :meth:`inner_asleep` after the run.
    """

    synchrony = BOTH  # that is the point

    def __init__(self, inner: WakeUpAlgorithm, pulse_budget: int):
        if inner.synchrony not in (SYNC, BOTH):
            raise SimulationError(
                f"{inner.name} is not a synchronous algorithm"
            )
        if pulse_budget < 1:
            raise SimulationError("pulse budget must be positive")
        self.inner = inner
        self.pulse_budget = pulse_budget
        self.name = f"alpha-sync({inner.name})"
        self.requires_kt1 = inner.requires_kt1
        self.uses_advice = inner.uses_advice
        # Frames aggregate an arbitrary number of inner messages, so the
        # wrapper does not preserve CONGEST guarantees.
        self.congest_safe = False
        self._nodes: Dict[Vertex, _SynchronizedNode] = {}

    def compute_advice(self, setup):
        return self.inner.compute_advice(setup)

    def make_node(self, vertex, setup) -> NodeAlgorithm:
        node = _SynchronizedNode(
            self.inner.make_node(vertex, setup), self.pulse_budget
        )
        self._nodes[vertex] = node
        return node

    # ------------------------------------------------------------------
    def inner_asleep(self):
        """Vertices whose *inner* algorithm never woke in the last run
        (the synchronizer-faithful notion of a wake-up failure)."""
        return frozenset(
            v for v, node in self._nodes.items() if not node._inner_awake
        )

    def inner_all_awake(self) -> bool:
        return not self.inner_asleep()
