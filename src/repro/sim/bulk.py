"""Bulk frontier engine: whole-frontier rounds as sparse-matrix ops.

The per-message engines top out around ~10^5 events/s because every
send is a Python-level event (PR 3's fast lane squeezed what was left).
Frontier algorithms — flooding, push gossip, star broadcast — have a
much coarser natural unit: *one synchronous round of the whole
network*.  This module advances that unit directly:

* the awake set and the sending frontier are numpy bitvectors;
* one round of deliveries is one CSR matrix–vector product over the
  adjacency that :class:`~repro.graphs.compile.CompiledTopology`
  already stores (``recv = A @ sent``);
* message counts come from degree sums over the frontier
  (``indptr`` differences), and bit totals from the payload size
  (:func:`~repro.sim.messages.bit_size`, measured once) — the same
  measurement the per-message engines charge.

**Metric-equivalence contract.**  For every supported algorithm the
bulk lane must produce *exactly* the aggregate metrics of the
:class:`~repro.sim.sync_engine.SyncEngine` on the same inputs:
completion time (rounds), total messages, total bits,
``max_message_bits``, per-vertex wake times and causes,
``events_processed`` (rounds), and the per-round message histogram
(:attr:`Metrics.round_messages`).  The suite in
``tests/test_bulk_conformance.py`` enforces this across the
workload x n x wake-pattern matrix.  What the bulk lane deliberately
does **not** provide: per-message traces, drop strategies, and the
async engine's delay semantics — runs needing any of those take the
per-message engines (the runner falls back transparently).

Algorithms opt in through the :class:`BulkKernel` protocol
(:meth:`~repro.core.base.WakeUpAlgorithm.bulk_kernel`), declaring
their per-round update and termination predicate; everything else —
wake bookkeeping, adversary schedule, metrics, telemetry — is the
engine's.

numpy/scipy are optional (``pip install repro[bulk]``): importing this
module never fails, but constructing the engine without them raises
:class:`BulkUnavailable` with an actionable message.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.phases import track_phases
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.adversary import Adversary
from repro.sim.engine import publish_run
from repro.sim.faults import NoDrops
from repro.sim.messages import bit_size
from repro.sim.metrics import Metrics

try:  # pragma: no cover - exercised via HAS_BULK on both outcomes
    import numpy as _np
except ImportError:  # pragma: no cover - dependency-light environment
    _np = None
try:  # pragma: no cover
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover
    _sparse = None

#: True when the bulk lane's dependencies (numpy + scipy) are present.
HAS_BULK = _np is not None and _sparse is not None

Vertex = Hashable


class BulkUnavailable(ImportError):
    """The bulk engine was requested but numpy/scipy are missing."""


def require_bulk() -> None:
    """Raise :class:`BulkUnavailable` unless numpy and scipy import."""
    if not HAS_BULK:
        missing = [
            name
            for name, mod in (("numpy", _np), ("scipy", _sparse))
            if mod is None
        ] or ["numpy", "scipy"]
        raise BulkUnavailable(
            "the bulk frontier engine needs "
            + " and ".join(missing)
            + "; install the optional extras with `pip install repro[bulk]`"
            " (or route this run through engine='sync')"
        )


# ----------------------------------------------------------------------
# Kernel protocol
# ----------------------------------------------------------------------
class BulkKernel:
    """Per-algorithm frontier logic plugged into :class:`BulkSyncEngine`.

    A kernel declares three things:

    * :attr:`payload` — the (constant) message payload, measured once
      with the same :func:`~repro.sim.messages.bit_size` the
      per-message engines use.  Kernels with non-constant payloads are
      unsupported by construction (their algorithms simply do not
      override :meth:`~repro.core.base.WakeUpAlgorithm.bulk_kernel`).
    * :meth:`on_round` — the per-round update: given who woke this
      round and what arrived, decide who sends where.
    * :meth:`wants_rounds` — the termination predicate, mirroring the
      sync engine's ``wants_round`` poll.

    The engine calls :meth:`bind` once before the first round; kernels
    read topology and wake state straight off the engine's arrays.
    """

    #: Constant message payload; measured once for the bits accounting.
    payload: Tuple[Any, ...] = ()

    def bind(self, engine: "BulkSyncEngine") -> None:
        self.engine = engine

    def on_round(
        self,
        r: int,
        woke_msg: "Any",
        woke_adv: "Any",
        recv: Optional["Any"],
    ) -> Tuple[int, Optional["Any"]]:
        """Advance one round; returns ``(messages_sent, recv_next)``.

        ``woke_msg`` / ``woke_adv`` are index arrays of the nodes that
        woke *this* round (message deliveries strictly before adversary
        wake-ups, matching the sync engine's step order); ``recv`` is
        the per-node delivery-count array for this round (``None`` when
        nothing was in flight).  ``recv_next`` is the delivery-count
        array the engine will present next round, or ``None`` when
        nothing was sent.
        """
        raise NotImplementedError

    def wants_rounds(self, r: int) -> bool:
        """Whether any node still wants compute rounds after round
        ``r`` was processed (gossip-style active phases).  Defaults to
        False: purely reactive kernels terminate with the message
        flow."""
        return False


class FloodingBulkKernel(BulkKernel):
    """Every node broadcasts once upon waking (``flooding``)."""

    def __init__(self, payload: Tuple[Any, ...]):
        self.payload = payload

    def on_round(self, r, woke_msg, woke_adv, recv):
        eng = self.engine
        if len(woke_msg) == 0 and len(woke_adv) == 0:
            return 0, None
        new = _np.concatenate((woke_msg, woke_adv))
        sent = int(eng.degrees[new].sum())
        if sent == 0:
            return 0, None
        x = _np.zeros(eng.n, dtype=_np.int64)
        x[new] = 1
        return sent, eng.adjacency @ x


class StarBroadcastBulkKernel(BulkKernel):
    """King–Mashregi star sampling (``star-broadcast``).

    Adversary-woken nodes flip the star coin (one ``Random.random()``
    draw on the node's private generator — identical stream to the
    per-message engines); stars and low-degree nodes broadcast, silent
    high-degree non-stars broadcast when the first message arrives.
    Message-woken nodes broadcast immediately and never draw.
    """

    def __init__(
        self,
        payload: Tuple[Any, ...],
        star_probability: Optional[float],
        degree_threshold: Optional[float],
    ):
        self.payload = payload
        self._p = star_probability
        self._thresh = degree_threshold

    def bind(self, engine: "BulkSyncEngine") -> None:
        super().bind(engine)
        n_hat = 1 << engine.setup.log2_n_bound
        self._p_eff = (
            self._p
            if self._p is not None
            else 1.0 / math.sqrt(n_hat * math.log(n_hat))
        )
        self._thresh_eff = (
            self._thresh
            if self._thresh is not None
            else math.sqrt(n_hat) * math.log(n_hat) ** 1.5
        )
        self._broadcasted = _np.zeros(engine.n, dtype=bool)

    def on_round(self, r, woke_msg, woke_adv, recv):
        eng = self.engine
        senders: List[int] = []
        if recv is not None:
            # Any arrival lifts silence: asleep receivers wake (cause
            # "message") and broadcast; awake silent nodes broadcast on
            # on_message.  Both reduce to "received and not yet sent".
            triggered = _np.flatnonzero((recv > 0) & ~self._broadcasted)
            senders.extend(triggered.tolist())
        degrees = eng.degrees
        p, thresh = self._p_eff, self._thresh_eff
        for i in woke_adv.tolist():
            is_star = eng.node_rng(i).random() < p
            if is_star or degrees[i] <= thresh:
                senders.append(i)
            # else: a silent high-degree non-star — the failure mode.
        if not senders:
            return 0, None
        idx = _np.asarray(senders, dtype=_np.int64)
        self._broadcasted[idx] = True
        sent = int(degrees[idx].sum())
        if sent == 0:
            return 0, None
        x = _np.zeros(eng.n, dtype=_np.int64)
        x[idx] = 1
        return sent, eng.adjacency @ x


class PushGossipBulkKernel(BulkKernel):
    """Push-only gossip (``push-gossip``): every awake node pushes the
    rumor to one uniformly random neighbor per round, for ``budget``
    local rounds.

    Port draws replay each node's private ``Random`` stream exactly
    (``randrange(1, degree + 1)`` once per active round), so wake
    rounds — and therefore every aggregate metric — match the sync
    engine bit for bit.  The draws are inherently per-node Python calls
    (one message per node per round), so gossip rides the bulk lane for
    conformance and the shared round loop, not for a flooding-sized
    speedup.
    """

    def __init__(self, payload: Tuple[Any, ...], budget: int):
        self.payload = payload
        self.budget = budget

    def bind(self, engine: "BulkSyncEngine") -> None:
        super().bind(engine)
        self._port_neighbors: Dict[int, Any] = {}

    def on_round(self, r, woke_msg, woke_adv, recv):
        eng = self.engine
        # Active exactly while local_round < budget; the round that
        # reaches the budget runs (and flips the node to done) without
        # sending — mirroring _PushNode.on_round.
        active = eng.awake & (r - eng.wake_round < self.budget)
        senders = _np.flatnonzero(active)
        if len(senders) == 0:
            return 0, None
        degrees = eng.degrees
        dsts: List[int] = []
        for i in senders.tolist():
            deg = int(degrees[i])
            if deg == 0:
                continue  # degree-0 nodes draw nothing (matches sync)
            port = eng.node_rng(i).randrange(1, deg + 1)
            nbrs = self._port_neighbors.get(i)
            if nbrs is None:
                nbrs = eng.port_neighbor_indices(i)
                self._port_neighbors[i] = nbrs
            dsts.append(nbrs[port - 1])
        if not dsts:
            return 0, None
        recv_next = _np.bincount(
            _np.asarray(dsts, dtype=_np.int64), minlength=eng.n
        )
        return len(dsts), recv_next

    def wants_rounds(self, r: int) -> bool:
        eng = self.engine
        return bool(_np.any(eng.awake & (r - eng.wake_round < self.budget)))


def resolve_bulk_lane(
    algorithm,
    setup: NetworkSetup,
    adversary: Adversary,
    trace,
) -> Optional[BulkKernel]:
    """Decide whether a run can take the bulk lane.

    Returns the algorithm's kernel, or ``None`` when the run must fall
    back to the sync engine: the algorithm declares no kernel, a
    per-message trace was requested, or a (non-trivial) drop strategy
    is armed — all three are outside the bulk lane's contract.  Raises
    :class:`BulkUnavailable` when a kernel exists but numpy/scipy are
    missing (the caller asked for bulk explicitly; silently degrading
    would hide the missing extras).
    """
    kernel = algorithm.bulk_kernel(setup)
    if kernel is None:
        return None
    if trace is not None:
        return None
    drops = getattr(adversary, "drops", None)
    if drops is not None and type(drops) is not NoDrops:
        return None
    require_bulk()
    return kernel


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class BulkSyncEngine:
    """Synchronous lock-step engine advancing whole frontiers per round.

    Semantics are the :class:`~repro.sim.sync_engine.SyncEngine`'s
    (Sec 3.2 round structure: deliver, adversary wake-ups, compute;
    fractional wake times ceil to the next round), realized as numpy
    array updates plus one CSR matvec per round instead of per-message
    Python events.  See the module docstring for the exact
    metric-equivalence contract.

    When the setup's graph is the materialized view of an in-process
    :class:`~repro.graphs.compile.CompiledTopology`, its CSR arrays are
    reused directly (and the converted numpy/scipy views are memoized
    on the artifact), so executor-routed runs pay no per-run adjacency
    construction.
    """

    def __init__(
        self,
        setup: NetworkSetup,
        kernel: BulkKernel,
        adversary: Adversary,
        seed: int = 0,
        max_rounds: int = 1_000_000,
        recorder: Optional[Recorder] = None,
    ):
        require_bulk()
        self.setup = setup
        self.kernel = kernel
        self.adversary = adversary
        self.seed = seed
        self.metrics = Metrics()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.phases = track_phases(self.metrics, setup.n)
        self._max_rounds = max_rounds
        self.rounds_executed = 0

        self.verts, indptr, indices, self.adjacency = _csr_views(setup)
        self.n = len(self.verts)
        self.indptr = indptr
        self.degrees = _np.diff(indptr)
        self._index = {v: i for i, v in enumerate(self.verts)}

        # Wake state (engine-owned; kernels read, never write).
        self.awake = _np.zeros(self.n, dtype=bool)
        self.wake_round = _np.full(self.n, -1, dtype=_np.int64)
        self._wake_cause_msg = _np.zeros(self.n, dtype=bool)
        self._rngs: Dict[int, random.Random] = {}

        # Payload accounting: one measurement, by the same function as
        # the per-message engines.
        self._payload_bits = bit_size(kernel.payload)
        cap = setup.bandwidth.cap_bits
        if cap is not None and self._payload_bits > cap:
            setup.bandwidth.check(self._payload_bits)

        # Adversary schedule, ceil'd exactly like the sync engine.
        self._schedule: Dict[int, Any] = {}
        sched_rounds: Dict[int, List[int]] = {}
        for v, t in adversary.schedule.times().items():
            i = self._index.get(v)
            if i is None:
                raise SimulationError(f"schedule wakes unknown vertex {v!r}")
            sched_rounds.setdefault(math.ceil(t), []).append(i)
        for r, idxs in sched_rounds.items():
            self._schedule[r] = _np.asarray(idxs, dtype=_np.int64)

        #: Messages sent per round (the conformance histogram); also
        #: mirrored into ``metrics.round_messages``.
        self.round_messages: List[int] = []
        kernel.bind(self)

    # -- kernel services -------------------------------------------------
    def node_rng(self, i: int) -> random.Random:
        """Node i's private generator — same lazy construction and seed
        derivation as :class:`~repro.sim.node.NodeContext`, so kernels
        consume identical streams."""
        rng = self._rngs.get(i)
        if rng is None:
            node_seed = (
                self.seed * 1_000_003 + self.setup.id_of(self.verts[i])
            ) % 2**63
            rng = random.Random(node_seed)
            self._rngs[i] = rng
        return rng

    def port_neighbor_indices(self, i: int):
        """Neighbor *indices* of node i in port order (1-based port p
        maps to entry p - 1) — the vectorized view of
        ``PortAssignment.table``."""
        neighbors, _ = self.setup.ports.table(self.verts[i])
        index = self._index
        return _np.asarray(
            [index[u] for u in neighbors], dtype=_np.int64
        )

    # -- run -------------------------------------------------------------
    def run(self) -> Metrics:
        """Execute rounds until quiescence; returns the metrics.

        As in the per-message engines, the whole loop runs inside the
        implicit ``"engine"`` phase.
        """
        self.phases._start("engine")
        try:
            return self._run_rounds()
        finally:
            self.phases._stop()

    def _run_rounds(self) -> Metrics:
        rec = self.recorder
        rec_enabled = rec.enabled
        mreg = get_registry()
        # Per-round frontier observation (this round's sent batch);
        # hoisted, disabled path pays one `is None` check per round.
        frontier_obs = (
            mreg.histogram(
                "repro_engine_frontier_size", engine="bulk"
            ).observe
            if mreg.enabled
            else None
        )
        metrics = self.metrics
        kernel = self.kernel
        awake = self.awake
        wake_round = self.wake_round
        payload_bits = self._payload_bits
        empty = _np.empty(0, dtype=_np.int64)
        pending: Optional[Any] = None
        r = 0
        last_wake_round = max(self._schedule) if self._schedule else 0
        while True:
            if r > self._max_rounds:
                raise SimulationError(
                    f"round budget of {self._max_rounds} exceeded; "
                    "the protocol is likely not terminating"
                )
            # 1. deliver last round's messages ---------------------------
            recv = pending
            pending = None
            woke_msg = empty
            if recv is not None:
                # Every send is delivered (no drops on this lane), so a
                # non-None batch means activity this round.
                metrics.note_activity(float(r))
                woke_msg = _np.flatnonzero((recv > 0) & ~awake)
                if len(woke_msg):
                    awake[woke_msg] = True
                    wake_round[woke_msg] = r
                    self._wake_cause_msg[woke_msg] = True
                    metrics.note_activity(float(r))
                    if metrics.first_wake is None:
                        metrics.first_wake = float(r)

            # 2. adversary wake-ups --------------------------------------
            woke_adv = empty
            sched = self._schedule.get(r)
            if sched is not None:
                woke_adv = sched[~awake[sched]]
                if len(woke_adv):
                    awake[woke_adv] = True
                    wake_round[woke_adv] = r
                    metrics.note_activity(float(r))
                    if metrics.first_wake is None:
                        metrics.first_wake = float(r)

            # 3. frontier update (the kernel's compute step) -------------
            sent, recv_next = kernel.on_round(r, woke_msg, woke_adv, recv)
            if sent:
                metrics.messages_total += sent
                metrics.bits_total += sent * payload_bits
                if payload_bits > metrics.max_message_bits:
                    metrics.max_message_bits = payload_bits
                pending = recv_next
            self.round_messages.append(sent)
            if frontier_obs is not None and sent:
                frontier_obs(sent)

            self.rounds_executed = r + 1
            metrics.events_processed += 1
            r += 1
            if rec_enabled:
                # Per-round heartbeat (the bulk round *is* the step):
                # frontier is this round's sender count proxy — the
                # messages it pushed into flight.
                rec.emit(
                    "engine_step",
                    events=metrics.events_processed,
                    now=float(r),
                    awake=int(awake.sum()),
                    n=self.setup.n,
                    engine="bulk",
                    frontier=sent,
                )
            if (
                pending is None
                and r > last_wake_round
                and not kernel.wants_rounds(r - 1)
            ):
                break
        self._finalize()
        publish_run("bulk", metrics)
        return metrics

    def _finalize(self) -> None:
        """Materialize the per-vertex wake map from the arrays (the
        aggregate contract needs labels; everything during the run is
        index-space)."""
        metrics = self.metrics
        verts = self.verts
        woken = _np.flatnonzero(self.awake)
        rounds = self.wake_round
        causes = self._wake_cause_msg
        wake_time = metrics.wake_time
        wake_cause = metrics.wake_cause
        for i in woken.tolist():
            v = verts[i]
            wake_time[v] = float(rounds[i])
            wake_cause[v] = "message" if causes[i] else "adversary"
        metrics.round_messages = list(self.round_messages)


# ----------------------------------------------------------------------
# Adjacency views
# ----------------------------------------------------------------------
def _csr_views(setup: NetworkSetup):
    """(verts, indptr, indices, scipy CSR) for the setup's graph.

    When the graph is an LRU-managed :class:`CompiledTopology` view the
    artifact's CSR arrays are converted once and memoized on the
    artifact (``_runtime`` — never serialized); otherwise the arrays
    are built from the adjacency dicts, preserving insertion order.
    """
    from repro.graphs.compile import compiled_for_graph

    graph = setup.graph
    topo = compiled_for_graph(graph)
    if topo is not None:
        cached = topo._runtime.get("bulk_csr")
        if cached is not None:
            return cached
        indptr = _np.asarray(topo.indptr, dtype=_np.int64)
        indices = _np.asarray(topo.indices, dtype=_np.int64)
        views = (topo.verts, indptr, indices, _csr_matrix(indptr, indices))
        topo._runtime["bulk_csr"] = views
        return views
    verts = list(graph.vertices())
    index = {v: i for i, v in enumerate(verts)}
    indptr_list = [0]
    indices_list: List[int] = []
    for v in verts:
        for u in graph.neighbors(v):
            indices_list.append(index[u])
        indptr_list.append(len(indices_list))
    indptr = _np.asarray(indptr_list, dtype=_np.int64)
    indices = _np.asarray(indices_list, dtype=_np.int64)
    return verts, indptr, indices, _csr_matrix(indptr, indices)


def _csr_matrix(indptr, indices):
    n = len(indptr) - 1
    data = _np.ones(len(indices), dtype=_np.int64)
    return _sparse.csr_matrix((data, indices, indptr), shape=(n, n))
