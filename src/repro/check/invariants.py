"""Pluggable invariants evaluated on every explored schedule.

Two families:

* **safety** — properties of the model itself, checked against the
  execution trace: a node never sends before its wake event, message
  accounting charges every send to the right sender, per-channel
  FIFO order and the (0, 1] delay bound hold on every delivery;
* **liveness / bounds** — properties of the algorithm: every node is
  awake at quiescence, and the time/message totals stay within the
  per-algorithm *claimed bound shape* (wired from the registry name —
  e.g. flooding sends at most one broadcast per node, 2m messages).

An invariant returns ``None`` when satisfied, or a human-readable
description of the violation.  :func:`find_violations` checks a traced
run against a set of them: the explorer calls it on every completed
schedule, where each answer becomes a
:class:`~repro.check.explorer.FoundViolation`, and the shrinker on
every candidate it tries (see ``docs/modelcheck.md``).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.controller import ScheduleLog
from repro.sim.trace import Trace

#: Slack on the per-delivery delay bound: the plain engine's FIFO bump
#: may legally push a delivery _FIFO_EPS past the raw delay.
_DELAY_TOL = 1e-9

#: Slack on float time comparisons in the bound invariants.
_TIME_TOL = 1e-6


@dataclass
class InvariantContext:
    """Everything an invariant may inspect about one execution."""

    setup: object
    adversary: object
    result: object  # WakeUpResult
    trace: Trace
    log: Optional[ScheduleLog] = None

    @property
    def n(self) -> int:
        return self.setup.n

    @property
    def m(self) -> int:
        return self.setup.graph.num_edges

    @property
    def scheduled_wakes(self) -> int:
        return len(self.adversary.schedule)


class Invariant:
    """Base: ``check`` returns None (ok) or a violation description."""

    name = "invariant"

    def check(self, ctx: InvariantContext) -> Optional[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Safety
# ----------------------------------------------------------------------


class SendsRequireWake(Invariant):
    """No node sends a message before its wake event (Sec 1.1: a
    sleeping node performs no computation)."""

    name = "sends-require-wake"

    def check(self, ctx):
        awake = set()
        for e in ctx.trace.events:
            if e.kind == "wake":
                awake.add(e.vertex)
            elif e.kind == "send" and e.vertex not in awake:
                return (
                    f"{e.vertex!r} sent {e.detail.payload!r} at "
                    f"t={e.time:.6g} before any wake event"
                )
        return None


class MessageAccounting(Invariant):
    """The metrics charge every traced send to the right sender, and
    nothing is delivered that was never sent."""

    name = "message-accounting"

    def check(self, ctx):
        sends = ctx.trace.sends()
        metrics = ctx.result.metrics
        if len(sends) != metrics.messages_total:
            return (
                f"trace has {len(sends)} sends but metrics charge "
                f"{metrics.messages_total}"
            )
        by_src = Counter(m.src for m in sends)
        if by_src != +metrics.sent_by:
            return (
                f"per-sender counts diverge: trace {dict(by_src)!r} vs "
                f"metrics {dict(+metrics.sent_by)!r}"
            )
        by_edge = Counter((m.src, m.dst) for m in sends)
        if by_edge != +metrics.edge_messages:
            return "per-edge message counts diverge from the trace"
        bits = sum(m.bits for m in sends)
        if bits != metrics.bits_total:
            return (
                f"trace carries {bits} bits but metrics charge "
                f"{metrics.bits_total}"
            )
        sent_seqs = {m.seq for m in sends}
        for m in ctx.trace.deliveries():
            if m.seq not in sent_seqs:
                return f"delivered message seq {m.seq} was never sent"
        return None


class FifoPerChannel(Invariant):
    """Every directed channel delivers in send order, and every
    realized delay stays in (0, 1] (tau-normalized, eps slack for the
    engine's FIFO bump)."""

    name = "fifo-per-channel"

    def check(self, ctx):
        last_seq: Dict = {}
        for e in ctx.trace.events:
            if e.kind != "deliver":
                continue
            msg = e.detail
            delay = e.time - msg.sent_at
            if not 0.0 < delay <= 1.0 + _DELAY_TOL:
                return (
                    f"seq {msg.seq} over {msg.src!r}->{msg.dst!r} "
                    f"realized delay {delay:.6g} outside (0, 1]"
                )
            chan = (msg.src, msg.dst)
            prev = last_seq.get(chan)
            if prev is not None and msg.seq < prev:
                return (
                    f"channel {msg.src!r}->{msg.dst!r} delivered seq "
                    f"{msg.seq} after seq {prev} (FIFO violated)"
                )
            last_seq[chan] = msg.seq
        return None


# ----------------------------------------------------------------------
# Liveness / bounds
# ----------------------------------------------------------------------


class AllAwakeAtQuiescence(Invariant):
    """The wake-up problem is solved: no node is still asleep when the
    execution quiesces."""

    name = "all-awake-at-quiescence"

    def check(self, ctx):
        asleep = ctx.result.asleep
        if asleep:
            names = ", ".join(sorted(repr(v) for v in asleep))
            return f"{len(asleep)} node(s) asleep at quiescence: {names}"
        return None


#: Per-algorithm message-bound shapes (registry name -> bound callable).
#: These are the *claimed* worst-case shapes the exhaustive explorer
#: validates over every schedule: flooding broadcasts once per node
#: (<= sum of degrees = 2m); echo-flooding adds one ack per node; the
#: DFS token of dfs-rank crosses each edge at most twice per scheduled
#: wake (each wake mints at most one token).
CLAIMED_MESSAGE_BOUNDS: Dict[str, Callable[[InvariantContext], float]] = {
    "flooding": lambda ctx: 2 * ctx.m,
    "echo-flooding": lambda ctx: 2 * ctx.m + ctx.n,
    "dfs-rank": lambda ctx: 2 * ctx.m * ctx.scheduled_wakes + 2 * ctx.n,
}


class ClaimedMessageBound(Invariant):
    """Message total within the algorithm's claimed bound shape."""

    name = "claimed-message-bound"

    def check(self, ctx):
        bound_fn = CLAIMED_MESSAGE_BOUNDS.get(ctx.result.algorithm)
        if bound_fn is None:
            return None
        bound = bound_fn(ctx)
        if ctx.result.messages > bound:
            return (
                f"{ctx.result.algorithm} sent {ctx.result.messages} "
                f"messages, over the claimed bound {bound:g} "
                f"(n={ctx.n}, m={ctx.m}, wakes={ctx.scheduled_wakes})"
            )
        return None


class FloodingTimeBound(Invariant):
    """Flooding's time guarantee, generalized to staggered schedules:
    every node v wakes by ``min over scheduled (u, t_u) of
    (t_u + dist(u, v))`` — each hop costs at most tau = 1.  This is the
    rho_awk statement of Eq. 1 evaluated against the *realized* wake
    times, valid for any delay assignment the adversary can produce.
    """

    name = "flooding-time-bound"

    def check(self, ctx):
        graph = ctx.setup.graph
        bound: Dict = {}
        for u, t_u in ctx.adversary.schedule.times().items():
            # BFS from u with offset t_u; keep per-vertex minima.
            dist = {u: float(t_u)}
            frontier = deque([u])
            while frontier:
                x = frontier.popleft()
                for y in graph.neighbors(x):
                    if y not in dist:
                        dist[y] = dist[x] + 1.0
                        frontier.append(y)
            for v, d in dist.items():
                if v not in bound or d < bound[v]:
                    bound[v] = d
        for v, woke_at in ctx.result.wake_time.items():
            b = bound.get(v)
            if b is not None and woke_at > b + _TIME_TOL:
                return (
                    f"{v!r} woke at t={woke_at:.6g}, past the flooding "
                    f"bound {b:.6g}"
                )
        return None


# ----------------------------------------------------------------------
# Wiring
# ----------------------------------------------------------------------


def default_invariants(algorithm_name: Optional[str] = None) -> List[Invariant]:
    """The standard invariant set for one algorithm.

    Safety invariants always apply; the bound invariants attach only
    when the registry name has a claimed shape to check against.
    """
    invs: List[Invariant] = [
        SendsRequireWake(),
        MessageAccounting(),
        FifoPerChannel(),
        AllAwakeAtQuiescence(),
    ]
    if algorithm_name in CLAIMED_MESSAGE_BOUNDS:
        invs.append(ClaimedMessageBound())
    if algorithm_name in ("flooding", "echo-flooding"):
        invs.append(FloodingTimeBound())
    return invs


def find_violations(
    invariants: Sequence[Invariant], setup, adversary, result, log
) -> List[Tuple[str, str]]:
    """``(name, detail)`` per invariant that one traced run violates.

    ``setup``, ``adversary`` and ``result`` are what
    :func:`repro.check.worlds.run_schedule` returns for the run (with
    ``trace=True``), ``log`` is its controller's :class:`ScheduleLog`.
    """
    ctx = InvariantContext(setup, adversary, result, result.trace, log)
    found = []
    for inv in invariants:
        problem = inv.check(ctx)
        if problem is not None:
            found.append((inv.name, problem))
    return found
