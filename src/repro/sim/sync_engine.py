"""Synchronous lock-step engine.

Implements the synchronous model of Sec 3.2: computation proceeds in
rounds; every message sent in round r is delivered by the start of
round r + 1.  Nodes have **no global clock** — a node only observes its
own local round counter, which starts when it wakes (footnote 4 of the
paper).  The adversary wakes scheduled nodes at integer round numbers.

Round structure (round r):

1. deliver every message sent in round r - 1, waking sleeping
   recipients (``on_wake`` then ``on_message``);
2. apply adversary wake-ups scheduled for round r;
3. give every awake node whose :meth:`wants_round` is true a
   computation step (``on_round``), with ``ctx.local_round`` set to the
   number of rounds since it woke (0 in its wake round).

Sends emitted anywhere within round r are delivered in step 1 of round
r + 1.  The execution ends when no messages are in flight, no future
wake-ups remain, and no node wants further rounds.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional

from repro.errors import SimulationError
from repro.models.knowledge import NetworkSetup
from repro.obs.metrics import get_registry
from repro.obs.recorder import Recorder
from repro.sim.adversary import Adversary
from repro.sim.engine import Engine, publish_run
from repro.sim.messages import Message
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm
from repro.sim.trace import Trace

Vertex = Hashable

# Telemetry heartbeat cadence: one engine_step event per this many
# lock-step rounds (when a recorder is enabled).
_STEP_EVERY_ROUNDS = 128


class SyncEngine(Engine):
    """Runs one synchronous execution of a wake-up algorithm."""

    lane = "sync"

    def __init__(
        self,
        setup: NetworkSetup,
        nodes: Dict[Vertex, NodeAlgorithm],
        adversary: Adversary,
        seed: int = 0,
        max_rounds: int = 1_000_000,
        trace: Optional[Trace] = None,
        recorder: Optional[Recorder] = None,
    ):
        super().__init__(setup, nodes, adversary, seed, trace, recorder)
        self._max_rounds = max_rounds
        self.rounds_executed = 0
        self._wake_round: Dict[Vertex, int] = {}
        # Fractional wake times round *up* to the next integer round:
        # a wake scheduled at t = 2.7 cannot land in round 2 — that
        # would wake the node before the adversary asked to.  ceil is
        # exact for integer-valued floats (ceil(2.0) == 2), so integer
        # schedules are unaffected.
        self._schedule: Dict[int, List[Vertex]] = {}
        for v, t in adversary.schedule.times().items():
            self._schedule.setdefault(math.ceil(t), []).append(v)

    # ------------------------------------------------------------------
    def run(self) -> Metrics:
        """Execute rounds until quiescence; returns the metrics.

        As in the async engine, the whole round loop runs inside the
        implicit ``"engine"`` phase.
        """
        self.phases._start("engine")
        try:
            return self._run_rounds()
        finally:
            self.phases._stop()

    def _run_rounds(self) -> Metrics:
        rec_enabled = self.recorder.enabled  # fixed for the run; hoisted
        mreg = get_registry()
        # Per-round frontier observation (messages in flight into the
        # next round); hoisted so the disabled path costs one `is None`
        # check per round.
        frontier_obs = (
            mreg.histogram(
                "repro_engine_frontier_size", engine="sync"
            ).observe
            if mreg.enabled
            else None
        )
        metrics = self.metrics
        vstate = self._vstate
        wake_round = self._wake_round
        # Deterministic processing order for nodes within a round.
        states = [vstate[v] for v in sorted(vstate, key=self.setup.id_of)]
        in_flight: List[Message] = []
        r = 0
        last_wake_round = max(self._schedule) if self._schedule else 0
        while True:
            if r > self._max_rounds:
                raise SimulationError(
                    f"round budget of {self._max_rounds} exceeded; "
                    "the protocol is likely not terminating"
                )
            now = float(r)
            # 1. deliver last round's messages ---------------------------
            for msg in in_flight:
                ctx = vstate[msg.dst][0]
                if ctx._awake:
                    ctx.local_round = r - wake_round[msg.dst]
                else:
                    # The delivery wakes it: local round 0.
                    wake_round[msg.dst] = r
                self._receive(msg, now)
            in_flight = []

            # 2. adversary wake-ups --------------------------------------
            for v in self._schedule.get(r, ()):
                ctx, node = vstate[v]
                if not ctx._awake:
                    wake_round[v] = r
                    self._wake(ctx, node, v, now, "adversary")

            # 3. computation steps ---------------------------------------
            for ctx, node in states:
                if ctx._awake and node.wants_round():
                    ctx.local_round = r - wake_round[ctx.vertex]
                    node.on_round(ctx)

            # collect sends emitted during this round --------------------
            for ctx, _node in states:
                if ctx._outbox:
                    in_flight += self._emit(ctx.vertex, now)

            self.rounds_executed = r + 1
            metrics.events_processed += 1
            if frontier_obs is not None and in_flight:
                frontier_obs(len(in_flight))
            r += 1
            if rec_enabled and r % _STEP_EVERY_ROUNDS == 0:
                self._heartbeat(metrics.events_processed, float(r))
            anyone_active = any(
                ctx._awake and node.wants_round() for ctx, node in states
            )
            if not in_flight and r > last_wake_round and not anyone_active:
                break
        publish_run(self.lane, metrics)
        return metrics
