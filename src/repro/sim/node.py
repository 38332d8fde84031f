"""The per-node algorithm API.

Algorithms are written as subclasses of :class:`NodeAlgorithm` — one
instance per node — receiving callbacks from an engine:

* ``on_wake(ctx)`` — exactly once, when the node becomes awake (either
  because the adversary woke it, or because the first message arrived;
  in the latter case ``on_wake`` runs immediately before the
  corresponding ``on_message``).  Waking is permanent (Sec 1.1).
* ``on_message(ctx, port, payload)`` — on every delivery, with the
  1-based arrival port.
* ``on_round(ctx)`` — synchronous engine only: once per lock-step round
  while :meth:`NodeAlgorithm.wants_round` is true.  Nodes have no global
  clock — ``ctx.local_round`` counts rounds *since this node woke*
  (Thm 4, footnote 4).

The :class:`NodeContext` enforces the knowledge model: neighbor-ID
queries raise :class:`~repro.errors.ModelViolation` under KT0, so a KT0
algorithm cannot accidentally cheat.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import ModelViolation, SimulationError
from repro.models.knowledge import Knowledge, NetworkSetup

Vertex = Hashable


class NodeContext:
    """A node's window onto the network, scoped by the knowledge model."""

    __slots__ = (
        "vertex",
        "_setup",
        "_outbox",
        "_rng",
        "local_round",
        "_awake",
        "wake_cause",
        "_phases",
        "_degree",
        "_ports",
        "_neighbor_ids",
        "_port_by_id",
    )

    def __init__(
        self,
        vertex: Vertex,
        setup: NetworkSetup,
        rng: "random.Random | int",
    ):
        self.vertex = vertex
        self._setup = setup
        #: Queued sends as ``(port, payload)`` pairs, drained by the
        #: engine after each callback.
        self._outbox: List[Tuple[int, Any]] = []
        # Either a ready Random or a seed; in the latter case the
        # generator is built on first access.  Engines pass seeds so
        # that runs of rng-free algorithms never pay for n generator
        # initializations (Random.seed dominates engine setup
        # otherwise).  The stream is identical either way.
        self._rng = rng
        self.local_round = 0
        self._awake = False
        # Degree and the 1-based port range never change during a run;
        # caching them keeps send()/broadcast() free of per-call
        # dict-of-dict lookups (they sit on the engine hot path).
        self._degree = setup.ports.degree(vertex)
        self._ports = range(1, self._degree + 1)
        #: "adversary" or "message" — set by the engine immediately before
        #: ``on_wake`` (Sec 3.2: adversary-woken nodes mark themselves
        #: active; message-woken status depends on the message).
        self.wake_cause: Optional[str] = None
        #: The engine's PhaseTracker (repro.obs.phases); None when the
        #: run has no metrics registry or the context lives outside an
        #: engine, in which case @phased methods are called straight
        #: through.
        self._phases = None
        # KT1 lookup tables (neighbour IDs in port order, ID -> port),
        # built by the first KT1 query; they stay None under KT0.
        self._neighbor_ids: Optional[Tuple[int, ...]] = None
        self._port_by_id: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Identity and local knowledge (always available)
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self._setup.id_of(self.vertex)

    @property
    def rng(self) -> random.Random:
        """This node's private random generator (lazily constructed)."""
        r = self._rng
        if type(r) is int:
            r = random.Random(r)
            self._rng = r
        return r

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def ports(self) -> range:
        """All 1-based ports of this node."""
        return self._ports

    @property
    def log2_n_bound(self) -> int:
        """The known constant-factor upper bound on log2 n (Sec 1.1)."""
        return self._setup.log2_n_bound

    @property
    def advice(self) -> Any:
        """This node's oracle advice, or None if the scheme has none."""
        if self._setup.advice is None:
            return None
        return self._setup.advice.get(self.vertex)

    @property
    def awake(self) -> bool:
        return self._awake

    # ------------------------------------------------------------------
    # KT1-only knowledge
    # ------------------------------------------------------------------
    def _kt1_ids(self) -> Tuple[int, ...]:
        """Neighbour IDs in port order, built on the first KT1 query;
        raises :class:`~repro.errors.ModelViolation` under KT0."""
        ids = self._neighbor_ids
        if ids is None:
            if self._setup.knowledge is not Knowledge.KT1:
                raise ModelViolation(
                    "neighbor IDs are only available under the KT1 assumption"
                )
            id_of = self._setup.ids
            neighbors = self._setup.ports.table(self.vertex)[0]
            ids = tuple(id_of[u] for u in neighbors)
            self._neighbor_ids = ids
            self._port_by_id = {x: p for p, x in enumerate(ids, 1)}
        return ids

    def neighbor_id(self, port: int) -> int:
        """ID of the neighbor behind ``port`` (KT1 only)."""
        ids = self._kt1_ids()
        if 1 <= port <= self._degree:
            return ids[port - 1]
        # Out of range: the port map raises its usual error.
        u = self._setup.ports.neighbor(self.vertex, port)
        return self._setup.id_of(u)

    def neighbor_ids(self) -> List[int]:
        """IDs of all neighbors, in port order (KT1 only)."""
        return list(self._kt1_ids())

    def port_of(self, neighbor_id: int) -> int:
        """Port leading to the neighbor with the given ID (KT1 only)."""
        self._kt1_ids()
        port = self._port_by_id.get(neighbor_id)
        if port is None:
            # Not a neighbour: the setup and port map raise their usual
            # errors.
            u = self._setup.vertex_of(neighbor_id)
            return self._setup.ports.port(self.vertex, u)
        return port

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def send(self, port: int, payload: Any) -> None:
        """Queue a message over a port; size-checked against the
        bandwidth model at flush time.

        Payloads are logically immutable once sent: the engine hands
        the *same object* to the receiver and caches its measured bit
        size, so mutating a payload after ``send`` has always been
        undefined behaviour.  Send tuples (as every built-in algorithm
        does), or copy before mutating.
        """
        if not 1 <= port <= self._degree:
            raise SimulationError(
                f"node {self.vertex!r}: port {port} out of range "
                f"1..{self._degree}"
            )
        self._outbox.append((port, payload))

    def send_to(self, neighbor_id: int, payload: Any) -> None:
        """Send addressed by neighbor ID (KT1 convenience)."""
        self.send(self.port_of(neighbor_id), payload)

    def broadcast(self, payload: Any) -> None:
        """Send the same payload over every port."""
        # Ports from the node's own range are valid by construction, so
        # this skips send()'s per-port range check.
        self._outbox += [(p, payload) for p in self._ports]


class NodeAlgorithm:
    """Base class for per-node protocol logic.

    Subclasses keep their state as instance attributes; the engine
    guarantees callbacks never run concurrently for the same node.
    """

    def on_wake(self, ctx: NodeContext) -> None:
        """Called exactly once when the node becomes awake."""

    def on_message(self, ctx: NodeContext, port: int, payload: Any) -> None:
        """Called for every delivered message."""

    def on_round(self, ctx: NodeContext) -> None:
        """Synchronous engine only: a lock-step computing step."""

    def wants_round(self) -> bool:
        """Whether the sync engine should keep calling :meth:`on_round`.

        Defaults to False: purely message-driven algorithms never need
        idle round callbacks, and returning False lets executions
        terminate as soon as no messages are in flight.
        """
        return False
