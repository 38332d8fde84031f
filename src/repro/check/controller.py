"""Controlled nondeterminism for the asynchronous engine.

The plain :class:`~repro.sim.async_engine.AsyncEngine` resolves all
nondeterminism up front: the adversary's :class:`DelayStrategy` fixes
every delivery time, and the heap fixes the event order.  This module
replaces that with an explicit *choice-point* model: at every step the
engine asks a :class:`ScheduleController` which of the currently
*enabled* events fires next —

* the head of the adversary's wake schedule (when no pending message is
  forced to be delivered first by the tau = 1 deadline), or
* the FIFO head of any nonempty directed channel.

The controller therefore ranges over exactly the executions the
oblivious adversary could have produced: every interleaving of channel
heads and scheduled wakes that respects per-channel FIFO order and the
(0, 1] delay bound.  Delivery *times* are assigned on the fly:

``lo = now + STEP`` and ``hi = min(own deadline, oldest other pending
deadline - GUARD, next wake time - GUARD)``; the chosen time is
``lo + laziness * (hi - lo)``.  ``laziness = 0`` (exploration) delivers
as eagerly as the timestamp order allows; ``laziness = 1`` (worst-case
time search) stretches every delivery to the edge of its legality
envelope.  When the envelope is empty (``hi < lo``) the engine falls
back to the eager time, which is always legal while the event budget
keeps the accumulated STEP drift far below tau = 1.

Because assigned times are strictly increasing, never collide with a
pending wake time, and are FIFO-monotone per channel, feeding the
recorded per-send delays back through :class:`ReplayDelay` makes the
*plain* engine reproduce the controlled execution bit-for-bit — the
heap sorts the same order the controller chose.  That closes the loop:
any schedule found by the explorer or the worst-case search is an
ordinary :class:`~repro.sim.adversary.DelayStrategy` artifact.

See ``docs/modelcheck.md`` for the full model and its two deliberate
approximations (equal-time wake permutations are not branched; wakes
within GUARD of a pending deadline are ordered after the delivery).
"""

from __future__ import annotations

import heapq
import json
import math
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from hashlib import blake2b
from operator import attrgetter
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.artifacts import write_atomic
from repro.core.dfs_wakeup import VisitedIds
from repro.errors import SimulationError
from repro.sim.adversary import DelayStrategy
from repro.sim.async_engine import _STEP_EVERY
from repro.sim.engine import publish_run
from repro.sim.messages import Message

Vertex = Hashable

#: Minimal spacing between consecutive controlled event times.  Small
#: enough that the drift over a full event budget stays far below the
#: tau = 1 delay bound (5e6 events * 1e-9 = 5e-3).
STEP = 1e-9

#: Room reserved before a pending deadline or wake time when stretching
#: a lazy delivery; also the slack under which a wake is considered
#: blocked by an older pending message's deadline.
GUARD = 1e-3

#: A controller may return this from ``choose`` to abort the run (the
#: explorer's pruning signal).  The engine stops cleanly with
#: ``log.completed = False``.
ABORT = -1

#: The planted bug for the mutation smoke test: the enabled set exposes
#: *every* pending message instead of only the per-channel FIFO heads,
#: so the controller can re-order a channel — exactly the bug the
#: ``fifo-per-channel`` invariant exists to catch.
MUTATION_SKIP_FIFO = "skip-fifo"

_MUTATIONS = (None, MUTATION_SKIP_FIFO)


class EnabledEvent(NamedTuple):
    """One event the controller may fire next.

    ``kind`` is "wake" or "deliver".  For wakes, ``vertex`` is the
    scheduled vertex, ``src`` is None, ``seq`` is the wake's heap
    sequence number and ``sent_at == deadline`` is the scheduled time.
    For deliveries, ``vertex`` is the destination, ``deadline`` is
    ``sent_at + 1.0`` (the tau = 1 bound) and ``seq`` is the message's
    global send sequence.  ``dst_awake`` tells worst-case policies
    whether firing this event can still wake somebody.
    """

    kind: str
    vertex: Vertex
    src: Optional[Vertex]
    seq: int
    sent_at: float
    deadline: float
    payload: Any
    dst_awake: bool


_SEQ = attrgetter("seq")


class ChoicePoint:
    """The engine's question to the controller: one of ``enabled``
    fires next.

    ``position`` is the ordinal among *free* choice points so far (the
    index into the recorded choice sequence); ``step`` counts all
    processed events.  ``free`` is False when only one event is enabled
    — the controller is still consulted (so it can observe the state)
    but any non-ABORT answer means index 0.  ``fingerprint()`` is the
    canonical state hash (memoized), shared with the explorer's
    deduplication.
    """

    __slots__ = ("position", "step", "now", "enabled", "free", "_loop", "_fp")

    def __init__(self, position, step, now, enabled, free, loop):
        self.position = position
        self.step = step
        self.now = now
        self.enabled = enabled
        self.free = free
        self._loop = loop
        self._fp: Optional[str] = None

    def fingerprint(self) -> str:
        """Canonical hash of the schedule-relevant simulation state."""
        if self._fp is None:
            self._fp = self._loop.fingerprint()
        return self._fp


@dataclass
class ScheduleLog:
    """Everything recorded about one controlled run.

    ``choices``/``branch_sizes`` cover the free choice points only (a
    replay needs nothing else — forced points have a unique answer);
    ``delays`` maps every message seq to its assigned delay, which is
    what :class:`ReplayDelay` feeds back into the plain engine.
    ``states`` is filled only when the controller sets
    ``record_states`` (one fingerprint per choice point the controller
    is not :meth:`~ScheduleController.replaying`).
    """

    choices: List[int] = field(default_factory=list)
    branch_sizes: List[int] = field(default_factory=list)
    delays: Dict[int, float] = field(default_factory=dict)
    states: List[str] = field(default_factory=list)
    final_state: str = ""
    steps: int = 0
    completed: bool = False


class ScheduleController:
    """Base controller: subclasses implement ``choose``.

    Class attributes are the protocol knobs the engine reads:
    ``laziness`` scales delivery times across the legality envelope,
    ``mutation`` enables a planted bug (tests only), ``record_states``
    asks the loop to log a state fingerprint at every choice point.
    The loop sets ``log`` (and keeps itself reachable as ``loop``)
    before the first ``choose`` call.
    """

    laziness: float = 0.0
    mutation: Optional[str] = None
    record_states: bool = False
    log: Optional[ScheduleLog] = None
    loop: Optional["_ControlledLoop"] = None

    def choose(self, cp: ChoicePoint) -> int:
        """Index into ``cp.enabled`` of the event to fire, or ABORT."""
        raise NotImplementedError

    def replaying(self) -> bool:
        """Whether the next choice point retraces a run whose states
        were already recorded; ``record_states`` skips its
        fingerprint."""
        return False


class ReplayController(ScheduleController):
    """Replays a recorded choice sequence bit-exactly.

    One recorded choice is consumed per *free* choice point.  In the
    default lenient mode an exhausted or out-of-range choice falls back
    to index 0 (the canonical event) — this is what lets the shrinker
    chop arbitrary chunks out of a sequence and still get a legal run.
    ``strict=True`` raises instead, for replay-fidelity tests.
    """

    def __init__(
        self,
        choices: Sequence[int],
        strict: bool = False,
        laziness: float = 0.0,
        mutation: Optional[str] = None,
    ):
        self._choices = [int(c) for c in choices]
        self._strict = strict
        self._i = 0
        self.laziness = laziness
        self.mutation = mutation

    def choose(self, cp: ChoicePoint) -> int:
        if not cp.free:
            return 0
        if self._i >= len(self._choices):
            if self._strict:
                raise SimulationError(
                    f"replay exhausted after {self._i} choices but the "
                    "run has more free choice points"
                )
            return 0
        c = self._choices[self._i]
        self._i += 1
        if not 0 <= c < len(cp.enabled):
            if self._strict:
                raise SimulationError(
                    f"replay choice {c} out of range for "
                    f"{len(cp.enabled)} enabled events"
                )
            return 0
        return c


class RandomController(ScheduleController):
    """Uniformly random choice at every free point — the sampling side
    of the containment test (random runs must stay inside the
    exhaustive explorer's reachable set)."""

    def __init__(self, seed: int = 0, laziness: float = 0.0,
                 record_states: bool = False):
        self._rng = random.Random(seed)
        self.laziness = laziness
        self.record_states = record_states

    def choose(self, cp: ChoicePoint) -> int:
        if not cp.free:
            return 0
        return self._rng.randrange(len(cp.enabled))


class ReplayDelay(DelayStrategy):
    """Feeds a controlled run's recorded per-seq delays back through
    the plain engine.

    A pure function of the send sequence number, so it is a legitimate
    oblivious :class:`DelayStrategy`; the controlled loop guarantees
    the recorded delays are in (0, 1], strictly increasing in global
    send order, and FIFO-monotone per channel — the plain heap then
    reproduces the controlled event order exactly.
    """

    def __init__(self, delays: Mapping[int, float]):
        self._delays = {int(k): float(v) for k, v in delays.items()}

    def delay(self, src, dst, sent_at, seq):
        try:
            return self._delays[seq]
        except KeyError:
            raise SimulationError(
                f"replay has no recorded delay for send seq {seq}; the "
                "replayed run diverged from the recorded one"
            ) from None


def replay_mismatch(
    got: Mapping[str, float], want: Mapping[str, float]
) -> str:
    """``""`` when a replay is bit-identical, else what diverged.

    Bit-identical means equal ``messages`` and ``bits`` and a ``time``
    within 1e-12: the controlled loop fixes the event order, so the
    slack only absorbs float formatting (``repr`` round-trips through
    JSON, so in practice the difference is 0.0).  ``got`` and ``want``
    are mappings such as :meth:`WakeUpResult.summary` or a cell's lean
    result."""
    for name in ("messages", "bits"):
        g, w = float(got[name]), float(want[name])
        if g != w:
            return f"{name} diverged: got {g}, recorded {w}"
    dt = abs(float(got["time"]) - float(want["time"]))
    if dt > 1e-12:
        return (
            f"time diverged by {dt}: got {got['time']}, "
            f"recorded {want['time']}"
        )
    return ""


# ----------------------------------------------------------------------
# State canonicalization
# ----------------------------------------------------------------------


def _canon(obj, depth: int = 0):
    """A deterministic, order-insensitive normal form for node state.

    Dict/set iteration order and object identity must not leak into
    state fingerprints — two runs reaching the same logical state have
    to hash equal.  Unknown objects recurse through ``__dict__``; a
    default ``object.__repr__`` (which embeds a memory address) is
    rejected loudly rather than silently producing useless or — worse,
    across runs — colliding fingerprints.
    """
    if depth > 12:
        raise SimulationError("node state too deeply nested to fingerprint")
    t = type(obj)
    if obj is None or t in (int, float, str, bool, bytes):
        return obj
    if t in (tuple, list):
        return ("seq",) + tuple(_canon(x, depth + 1) for x in obj)
    if t in (set, frozenset):
        return ("set",) + tuple(
            sorted(repr(_canon(x, depth + 1)) for x in obj)
        )
    if t is dict:
        return ("map",) + tuple(
            sorted(
                (repr(_canon(k, depth + 1)), repr(_canon(v, depth + 1)))
                for k, v in obj.items()
            )
        )
    if t is VisitedIds:
        # The DFS token's visited list stands for the tuple of its IDs.
        return ("seq",) + tuple(_canon(x, depth + 1) for x in obj)
    if isinstance(obj, random.Random):
        return _rng_token(obj)
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return (t.__name__, _canon(d, depth + 1))
    r = repr(obj)
    if " at 0x" in r:
        raise SimulationError(
            f"cannot fingerprint state containing {t.__name__} (its repr "
            "embeds a memory address; give it a stable __repr__)"
        )
    return (t.__name__, r)


def _rng_token(r) -> Tuple[str, object]:
    """Stable token for a node's rng: the raw seed before first use, a
    digest of the generator state after."""
    if type(r) is int:
        return ("rng-seed", r)
    return (
        "rng-state",
        blake2b(repr(r.getstate()).encode("utf-8"), digest_size=8).hexdigest(),
    )


# ----------------------------------------------------------------------
# The controlled event loop
# ----------------------------------------------------------------------


class _ControlledLoop:
    """One controlled execution over an already-constructed engine.

    Wakes, deliveries and sends go through the engine's own
    :meth:`~repro.sim.engine.Engine._wake`,
    :meth:`~repro.sim.engine.Engine._receive` and
    :meth:`~repro.sim.engine.Engine._emit`, so metrics and trace events
    match the plain loop's by construction.  This loop owns only the
    event order (from the controller) and the event times (from the
    STEP/GUARD scheme above).
    """

    def __init__(self, engine):
        controller = engine._controller
        self._engine = engine
        self._controller = controller
        self._laziness = float(getattr(controller, "laziness", 0.0))
        if not 0.0 <= self._laziness <= 1.0:
            raise SimulationError(
                f"controller laziness {self._laziness} outside [0, 1]"
            )
        self._mutation = getattr(controller, "mutation", None)
        if self._mutation not in _MUTATIONS:
            raise SimulationError(
                f"unknown controller mutation {self._mutation!r}"
            )
        if engine._drops is not None:
            raise SimulationError(
                "schedule controllers do not compose with drop strategies"
            )
        self.log = ScheduleLog()
        controller.log = self.log
        controller.loop = self
        # The engine's __init__ already heap-pushed every scheduled
        # wake; popping them out yields exactly the plain loop's firing
        # order (time, then schedule insertion seq).  Wakes consumed
        # seqs 0..W-1 of the shared counter, so message seqs — which
        # continue from the same counter — line up with a plain run's.
        wakes: List[Tuple[float, int, Vertex]] = []
        heap = engine._heap
        while heap:
            t, s, _kind, v = heapq.heappop(heap)
            wakes.append((t, s, v))
        self._wakes = wakes
        self._wake_i = 0
        self._channels: Dict[Tuple[Vertex, Vertex], Deque[Message]] = {}
        #: The FIFO head of every nonempty channel as a prebuilt
        #: delivery event, in seq order.  Send times are monotone in
        #: seq, so ``_heads[0]`` is also the oldest pending send.
        self._heads: List[EnabledEvent] = []
        self._now = engine._now

    # -- enabled-set construction --------------------------------------
    def _oldest_deadline(self) -> Optional[float]:
        """Deadline (sent_at + 1) of the oldest pending message."""
        heads = self._heads
        return heads[0].deadline if heads else None

    def _wake_enabled(self, t_wake: float) -> bool:
        """A wake may fire next unless an older pending message's
        deadline forces that delivery first (with GUARD slack so the
        delivery keeps timestamp room below the wake)."""
        d_min = self._oldest_deadline()
        return d_min is None or d_min > t_wake + GUARD

    def _delivery_event(self, m: Message) -> EnabledEvent:
        return EnabledEvent(
            "deliver", m.dst, m.src, m.seq, m.sent_at, m.sent_at + 1.0,
            m.payload, self._engine._vstate[m.dst][0]._awake,
        )

    def _enabled_events(self) -> Tuple[EnabledEvent, ...]:
        if self._mutation == MUTATION_SKIP_FIFO:
            deliveries = sorted(
                (
                    self._delivery_event(m)
                    for q in self._channels.values()
                    for m in q
                ),
                key=_SEQ,
            )
        else:
            deliveries = self._heads
        if self._wake_i == len(self._wakes):
            return tuple(deliveries)
        t_w, s_w, v_w = self._wakes[self._wake_i]
        wake: Tuple[EnabledEvent, ...] = ()
        if self._wake_enabled(t_w):
            wake = (
                EnabledEvent(
                    "wake", v_w, None, s_w, t_w, t_w, None,
                    self._engine._vstate[v_w][0]._awake,
                ),
            )
        # A delivery needs a timestamp strictly between now and the
        # next pending wake; when the wake leaves no room (e.g. several
        # wakes scheduled at the same instant), only the wake is
        # enabled — mirroring the plain engine, where same-time events
        # fire in heap order and wakes precede the (strictly later)
        # deliveries.
        if self._now + STEP >= t_w:
            return wake
        return wake + tuple(deliveries)

    def _silent_wake(self) -> Optional[EnabledEvent]:
        """The next scheduled wake if it may fire now and targets an
        already-awake vertex.

        Such wakes are state no-ops (waking is permanent); they fire
        without consulting the controller instead of being branched
        on — they commute with everything except the clock, which
        fingerprints exclude.
        """
        if self._wake_i == len(self._wakes):
            return None
        t_w, s_w, v_w = self._wakes[self._wake_i]
        if self._engine._vstate[v_w][0]._awake and self._wake_enabled(t_w):
            return EnabledEvent("wake", v_w, None, s_w, t_w, t_w, None, True)
        return None

    # -- event execution -----------------------------------------------
    def _advance(self, time: float) -> None:
        if time > self._now:
            self._now = time
            self._engine._now = time

    def _mark_awake(self, v: Vertex) -> None:
        """``v`` just woke: flip ``dst_awake`` on its channel heads."""
        heads = self._heads
        for i, ev in enumerate(heads):
            if ev.vertex == v:
                heads[i] = ev._replace(dst_awake=True)

    def _fire_wake(self, ev: EnabledEvent) -> None:
        self._wake_i += 1
        self._advance(ev.deadline)
        ctx, node = self._engine._vstate[ev.vertex]
        if ctx._awake:
            return  # waking is permanent; a repeat wake only advances time
        self._mark_awake(ev.vertex)
        self._engine._wake(ctx, node, ev.vertex, ev.deadline, "adversary")
        self._flush(ev.vertex, ev.deadline)

    def _assign_time(self, ev: EnabledEvent) -> float:
        """Delivery-time assignment: eager floor, lazy ceiling."""
        lo = self._now + STEP
        if lo > ev.deadline:
            raise SimulationError(
                "controlled schedule exhausted the timestamp room below "
                f"the tau = 1 deadline of send seq {ev.seq} (too many "
                "events squeezed under one deadline)"
            )
        tau = lo
        if self._laziness > 0.0:
            hi = ev.deadline
            # The message being delivered is already out of the head
            # index, so this is the oldest *other* pending send.
            d_other = self._oldest_deadline()
            if d_other is not None and d_other - GUARD < hi:
                hi = d_other - GUARD
            if self._wake_i < len(self._wakes):
                t_w = self._wakes[self._wake_i][0]
                if t_w - GUARD < hi:
                    hi = t_w - GUARD
            if hi > lo:
                tau = lo + self._laziness * (hi - lo)
            # Float rounding can push the realized delay (tau - sent_at,
            # recomputed by the plain engine on replay) a few ulps past
            # the tau = 1 bound; nudge tau down until it passes.
            while tau - ev.sent_at > 1.0 and tau > lo:
                tau = math.nextafter(tau, lo)
        if (
            self._wake_i < len(self._wakes)
            and tau >= self._wakes[self._wake_i][0]
        ):
            raise SimulationError(
                "controlled schedule exhausted the timestamp room below "
                f"the pending wake at t={self._wakes[self._wake_i][0]:g}"
            )
        return tau

    def _deliver(self, ev: EnabledEvent) -> None:
        engine = self._engine
        chan = (ev.src, ev.vertex)
        q = self._channels[chan]
        if q[0].seq == ev.seq:
            msg = q.popleft()
            # The channel's next message becomes a head before
            # _assign_time looks for the oldest *other* pending send.
            heads = self._heads
            del heads[bisect_left(heads, ev.seq, key=_SEQ)]
            if q:
                insort(heads, self._delivery_event(q[0]), key=_SEQ)
        else:
            # Only reachable under the skip-fifo mutation.
            msg = next(m for m in q if m.seq == ev.seq)
            q.remove(msg)
        if not q:
            del self._channels[chan]
        tau = self._assign_time(ev)
        self.log.delays[msg.seq] = tau - msg.sent_at
        self._advance(tau)
        v = msg.dst
        if not engine._vstate[v][0]._awake:
            self._mark_awake(v)  # the delivery below wakes v
        engine._receive(msg, tau)
        self._flush(v, tau)

    def _flush(self, v: Vertex, time: float) -> None:
        """Queue a node's new messages into the pending channels; the
        delivery time is assigned later, when the controller fires
        the message."""
        channels = self._channels
        heads = self._heads
        for msg in self._engine._emit(v, time):
            chan = (v, msg.dst)
            q = channels.get(chan)
            if q is None:
                q = channels[chan] = deque()
                # The newest send has the largest seq: appending keeps
                # the head index sorted.
                heads.append(self._delivery_event(msg))
            q.append(msg)

    # -- the loop ------------------------------------------------------
    def run(self):
        engine = self._engine
        controller = self._controller
        rec_enabled = engine.recorder.enabled
        metrics = engine.metrics
        max_events = engine._max_events
        record_states = bool(getattr(controller, "record_states", False))
        log = self.log
        processed = 0
        aborted = False
        engine.phases._start("engine")
        try:
            while True:
                # Silent wakes still count as processed events, like in
                # the plain loop, budget check included.
                ev = self._silent_wake()
                if ev is None:
                    enabled = self._enabled_events()
                    if not enabled:
                        break
                    free = len(enabled) > 1
                    cp = ChoicePoint(
                        len(log.choices), processed, self._now, enabled,
                        free, self,
                    )
                    if record_states and not controller.replaying():
                        log.states.append(cp.fingerprint())
                    idx = controller.choose(cp)
                    if idx == ABORT:
                        aborted = True
                        break
                    if not 0 <= idx < len(enabled):
                        raise SimulationError(
                            f"controller chose event {idx} of "
                            f"{len(enabled)} enabled"
                        )
                    if free:
                        log.choices.append(idx)
                        log.branch_sizes.append(len(enabled))
                    ev = enabled[idx]
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget of {max_events} exceeded; "
                        "the protocol is likely not terminating"
                    )
                if ev.kind == "wake":
                    self._fire_wake(ev)
                else:
                    self._deliver(ev)
                if rec_enabled and processed % _STEP_EVERY == 0:
                    engine._heartbeat(processed, self._now)
        finally:
            engine.phases._stop()
        log.steps = processed
        log.completed = not aborted
        log.final_state = self.fingerprint()
        metrics.events_processed = processed
        publish_run("async", metrics)
        return metrics

    # -- state fingerprinting ------------------------------------------
    def fingerprint(self) -> str:
        """Hash of everything that determines the run's *future*:
        per-node algorithm state, awake flags, rng streams, channel
        contents (in FIFO order), the wake-schedule position, and the
        monotone message/bit totals (so bound invariants stay sound
        under deduplication).  Event times and sequence numbers are
        deliberately excluded — they differ between schedules that are
        otherwise equivalent.
        """
        engine = self._engine
        setup = engine.setup
        id_of = setup.id_of
        nodes = []
        for v in sorted(engine._vstate, key=id_of):
            ctx, node = engine._vstate[v]
            nodes.append(
                (
                    id_of(v),
                    ctx._awake,
                    ctx.wake_cause,
                    _canon(node.__dict__),
                    _rng_token(ctx._rng),
                )
            )
        chans = []
        for (src, dst), q in self._channels.items():
            if q:
                chans.append(
                    (
                        id_of(src),
                        id_of(dst),
                        tuple(_canon(m.payload) for m in q),
                    )
                )
        chans.sort()
        blob = repr(
            (
                nodes,
                chans,
                self._wake_i,
                engine.metrics.messages_total,
                engine.metrics.bits_total,
            )
        )
        return blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def run_controlled(engine):
    """Entry point the async engine delegates to when a controller is
    attached (see ``AsyncEngine.run``)."""
    return _ControlledLoop(engine).run()


# ----------------------------------------------------------------------
# Replay artifacts
# ----------------------------------------------------------------------

REPLAY_VERSION = 1
REPLAY_KIND = "repro-check-replay"

#: Where CLI-facing tools drop replay artifacts by default; reported by
#: ``repro cache info`` and purged by ``repro cache purge``.
DEFAULT_REPLAY_DIR = Path("results") / ".replays"


def make_replay(
    *,
    algorithm: str,
    n: int,
    log: ScheduleLog,
    schedule_times: Mapping,
    laziness: float = 0.0,
    mutation: Optional[str] = None,
    seed: int = 0,
    objective: Optional[str] = None,
    score: Optional[float] = None,
    invariant: Optional[str] = None,
    workload: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the JSON-able replay artifact for one recorded run.

    ``choices`` + ``laziness`` replay through :class:`ReplayController`
    (bit-exactly, including the planted ``mutation`` if any);
    ``delays`` replay through the *plain* engine via
    :class:`ReplayDelay` (valid only for mutation-free runs — a FIFO
    violation cannot be expressed as a DelayStrategy).

    ``salts`` stamps the artifact with the code salts it was recorded
    under, a controlled run's :func:`repro.versioning.cell_salt_vector`
    (``engine``, ``graphs``, the algorithm's ``algorithms`` salt and
    ``check``): a replay is only bit-exact against the code that
    produced it, and the stamp is what lets ``repro cache info`` /
    ``purge --stale`` tell live replays from orphaned ones without
    re-running anything.
    """
    from repro.versioning import cell_salt_vector

    return {
        "version": REPLAY_VERSION,
        "kind": REPLAY_KIND,
        "salts": cell_salt_vector(algorithm, controlled=True),
        "algorithm": algorithm,
        "n": int(n),
        "seed": int(seed),
        "laziness": float(laziness),
        "mutation": mutation,
        "objective": objective,
        "score": score,
        "invariant": invariant,
        "workload": dict(workload or {}),
        "choices": [int(c) for c in log.choices],
        "delays": {str(k): float(v) for k, v in sorted(log.delays.items())},
        "wake_times": {repr(v): float(t) for v, t in schedule_times.items()},
        "steps": int(log.steps),
    }


def save_replay(replay: Dict[str, object], path) -> Path:
    """Write one replay artifact (pretty, key-sorted JSON).

    The writer is :func:`repro.artifacts.write_atomic`."""
    from repro.obs.metrics import get_registry

    path = Path(path)
    text = json.dumps(replay, indent=2, sort_keys=True, default=repr) + "\n"
    write_atomic(path, text.encode("utf-8"))
    get_registry().counter("repro_replay_store_total", op="save").inc()
    return path


def load_replay(path) -> Dict[str, object]:
    """Read a replay artifact back; delay keys return to ints."""
    from repro.obs.metrics import get_registry

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("kind") != REPLAY_KIND:
        raise SimulationError(f"{path} is not a {REPLAY_KIND} artifact")
    if data.get("version") != REPLAY_VERSION:
        raise SimulationError(
            f"{path}: unsupported replay version {data.get('version')!r}"
        )
    data["delays"] = {int(k): float(v) for k, v in data["delays"].items()}
    data["choices"] = [int(c) for c in data["choices"]]
    get_registry().counter("repro_replay_store_total", op="load").inc()
    return data


def replay_is_stale(path) -> bool:
    """Whether the replay artifact at ``path`` was recorded under
    superseded code, by :func:`repro.versioning.stale_salts`.  Loading
    a stale replay still works (the format is stable) but bit-exactness
    is no longer guaranteed; ``repro cache info`` reports these and
    ``purge --stale`` removes them.  Files that are not a JSON object
    (unreadable, not UTF-8, ``null``, a list) are stale too."""
    from repro.versioning import stale_salts

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):  # also bytes that are not UTF-8
        return True
    if not isinstance(data, dict):
        return True
    return bool(stale_salts(data.get("algorithm"), data.get("salts")))
