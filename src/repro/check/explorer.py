"""Bounded exhaustive exploration of the schedule space.

For small n the set of schedules the oblivious adversary can force is
finite: at every choice point the next event is one of the enabled
wake/delivery heads (see :mod:`repro.check.controller`).  The explorer
enumerates this tree by **stateless re-execution** — each schedule is
one fresh controlled run replaying a choice prefix and then following
the canonical (index-0) continuation, recording every free choice point
where siblings remain to be visited.  Two standard reductions keep the
tree tractable:

* **state deduplication** — a blake2b fingerprint of the
  schedule-relevant state (node algorithm state, awake flags, rng
  streams, channel contents, schedule position, monotone message
  totals; *not* event times or sequence numbers).  Reaching an
  already-seen state stops the branch: the first visit enqueued that
  state's siblings, so its subtree is covered exactly once.
* **sleep-set partial-order reduction** (Godefroid) — when two enabled
  deliveries target *distinct* destination vertices they commute:
  executing either leaves the other enabled and the final state equal.
  After branching on one, the other enters the child's sleep set and
  is not branched again until a dependent event (any wake, or a
  delivery to the same destination) wakes it.  Wakes are conservatively
  dependent on everything.  POR soundness is argued in
  ``docs/modelcheck.md`` and regression-tested by comparing por=True
  and por=False reachable sets.

Budgets (``max_schedules``, ``max_states``, ``max_depth``) bound the
work; ``completed`` reports whether the space was exhausted within
them.  Every completed schedule is checked against the invariant set
(:mod:`repro.check.invariants`); violations carry their replayable
choice sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.controller import (
    ABORT,
    ChoicePoint,
    EnabledEvent,
    ScheduleController,
)
from repro.check.invariants import (
    Invariant,
    default_invariants,
    find_violations,
)
from repro.check.worlds import World, run_schedule
from repro.errors import SimulationError
from repro.obs.recorder import NULL_RECORDER


@dataclass
class ExploreStats:
    """Counters surfaced in ``check_stats`` telemetry."""

    schedules: int = 0
    states: int = 0
    pruned_sleep: int = 0
    pruned_state: int = 0
    truncated: int = 0
    violations: int = 0
    max_depth: int = 0


@dataclass
class FoundViolation:
    """One invariant violation with its replayable witness."""

    invariant: str
    detail: str
    choices: Tuple[int, ...]
    schedule_index: int


@dataclass
class ExploreResult:
    stats: ExploreStats
    violations: List[FoundViolation]
    #: Fingerprints of every state visited at any choice point, plus
    #: final states — the containment test's reference set.
    states: Set[str]
    #: (messages, bits, awake_count, final_fingerprint) per schedule.
    outcomes: Set[Tuple[int, int, int, str]]
    #: True when the whole space fit inside the budgets.
    completed: bool


class _ExplorerShared:
    """State shared across the DFS runs of one explore() call."""

    def __init__(self, por, dedup, max_depth, mutation):
        self.por = por
        self.dedup = dedup
        self.max_depth = max_depth
        self.mutation = mutation
        self.seen: Set[str] = set()
        self.stats = ExploreStats()


class _DfsController(ScheduleController):
    """Drives one run: replays ``prefix``, then takes the first
    non-slept candidate everywhere, recording sibling branch points."""

    record_states = True

    def __init__(self, shared: _ExplorerShared, prefix: Tuple[int, ...],
                 sleep: Dict[int, object]):
        self._shared = shared
        self._prefix = prefix
        # seq -> destination vertex of the sleeping delivery.
        self._sleep = dict(sleep)
        self._free_seen = 0
        #: (position, enabled, candidates, sleep-before-choice) per
        #: branch point with unvisited siblings.
        self.records: List[tuple] = []
        self.stopped: Optional[str] = None
        self.mutation = shared.mutation

    def _filter_sleep(self, ev: EnabledEvent) -> None:
        """Executed ``ev``: keep only sleeping events independent of it
        (deliveries to a different destination)."""
        if not self._sleep:
            return
        if ev.kind == "wake":
            self._sleep.clear()
        else:
            dst = ev.vertex
            self._sleep = {
                s: d for s, d in self._sleep.items() if d != dst
            }

    def replaying(self) -> bool:
        # Through the branch point this run retraces the run that
        # enqueued it, which fingerprinted each of those choice points.
        return self._free_seen < len(self._prefix)

    def choose(self, cp: ChoicePoint) -> int:
        shared = self._shared
        past_prefix = self._free_seen >= len(self._prefix)
        if not cp.free:
            # The sleep set handed to this run reflects the state
            # *after* the branch choice; it only evolves from there on.
            if past_prefix:
                self._filter_sleep(cp.enabled[0])
            return 0
        pos = self._free_seen
        self._free_seen += 1
        if pos < len(self._prefix):
            idx = self._prefix[pos]
            if not 0 <= idx < len(cp.enabled):
                raise SimulationError(
                    "exploration replay diverged: prefix choice "
                    f"{idx} of {len(cp.enabled)} enabled at point {pos}"
                )
            return idx
        # New territory.
        if shared.dedup:
            fp = cp.fingerprint()
            if fp in shared.seen:
                shared.stats.pruned_state += 1
                self.stopped = "state"
                return ABORT
            shared.seen.add(fp)
        enabled = cp.enabled
        if shared.por and self._sleep:
            candidates = [
                i
                for i, ev in enumerate(enabled)
                if not (ev.kind == "deliver" and ev.seq in self._sleep)
            ]
            if not candidates:
                shared.stats.pruned_sleep += 1
                self.stopped = "sleep"
                return ABORT
        else:
            candidates = list(range(len(enabled)))
        if pos >= shared.max_depth:
            shared.stats.truncated += 1
        elif len(candidates) > 1:
            self.records.append(
                (pos, enabled, tuple(candidates), dict(self._sleep))
            )
        idx = candidates[0]
        self._filter_sleep(enabled[idx])
        return idx


def _child_sleep(
    por: bool,
    sleep_at: Dict[int, object],
    done: Sequence[EnabledEvent],
    ev: EnabledEvent,
) -> Dict[int, object]:
    """Sleep set for the child that takes ``ev`` at a branch point
    where the events in ``done`` were (or will be) explored first:
    everything slept or done that is independent of ``ev``."""
    if not por:
        return {}
    child: Dict[int, object] = {}
    if ev.kind == "deliver":
        for s, d in sleep_at.items():
            if d != ev.vertex:
                child[s] = d
        for prev in done:
            if prev.kind == "deliver" and prev.vertex != ev.vertex:
                child[prev.seq] = prev.vertex
    # A wake is dependent on everything: the child starts sleep-free.
    return child


def explore(
    world: World,
    *,
    invariants: Optional[List[Invariant]] = None,
    max_schedules: int = 20_000,
    max_states: int = 500_000,
    max_depth: int = 256,
    max_violations: int = 25,
    por: bool = True,
    dedup: bool = True,
    seed: int = 0,
    laziness: float = 0.0,
    mutation: Optional[str] = None,
    recorder=None,
) -> ExploreResult:
    """Exhaustively explore the schedule space of one workload.

    ``world`` builds a fresh (setup, algorithm, adversary) per run.
    When ``invariants`` is None the default set for the workload's
    algorithm attaches (:func:`default_invariants`).  A planted
    ``mutation`` disables POR automatically — the planted bugs break
    the commutativity argument the reduction relies on.

    Emits one ``check_stats`` telemetry event when ``recorder`` is set.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    if mutation is not None:
        por = False
    shared = _ExplorerShared(por, dedup, max_depth, mutation)
    stats = shared.stats
    states: Set[str] = set()
    outcomes: Set[Tuple[int, int, int, str]] = set()
    violations: List[FoundViolation] = []
    algorithm_name: Optional[str] = None
    completed = True

    # DFS over choice prefixes; each entry is (prefix, sleep-set).
    stack: List[Tuple[Tuple[int, ...], Dict[int, object]]] = [((), {})]
    while stack:
        if stats.schedules >= max_schedules or len(states) >= max_states:
            completed = False
            break
        prefix, sleep = stack.pop()
        ctl = _DfsController(shared, prefix, sleep)
        ctl.laziness = laziness
        setup, adversary, result = run_schedule(
            world, ctl, seed=seed, trace=True
        )
        algorithm_name = result.algorithm
        if invariants is None:
            invariants = default_invariants(algorithm_name)
        log = ctl.log
        states.update(log.states)
        states.add(log.final_state)
        if len(log.choices) > stats.max_depth:
            stats.max_depth = len(log.choices)
        if log.completed:
            stats.schedules += 1
            outcomes.add(
                (
                    result.messages,
                    result.bits,
                    result.metrics.awake_count(),
                    log.final_state,
                )
            )
            for name, problem in find_violations(
                invariants, setup, adversary, result, log
            ):
                stats.violations += 1
                if len(violations) < max_violations:
                    violations.append(
                        FoundViolation(
                            name,
                            problem,
                            tuple(log.choices),
                            stats.schedules - 1,
                        )
                    )
        # Enqueue unexplored siblings (reversed: deepest-first pop).
        for pos, enabled, candidates, sleep_at in reversed(ctl.records):
            done: List[EnabledEvent] = [enabled[candidates[0]]]
            for ci in candidates[1:]:
                ev = enabled[ci]
                child = _child_sleep(por, sleep_at, done, ev)
                stack.append((tuple(log.choices[:pos]) + (ci,), child))
                done.append(ev)
    stats.states = len(states)

    from repro.obs.metrics import get_registry

    mreg = get_registry()
    if mreg.enabled:
        algo = algorithm_name or "?"
        mreg.counter(
            "repro_check_schedules_total", algorithm=algo
        ).inc(stats.schedules)
        mreg.counter(
            "repro_check_states_total", algorithm=algo
        ).inc(stats.states)
        mreg.counter(
            "repro_check_dedup_hits_total", algorithm=algo
        ).inc(stats.pruned_state)
        mreg.counter(
            "repro_check_sleep_prunes_total", algorithm=algo
        ).inc(stats.pruned_sleep)

    if rec.enabled:
        rec.emit(
            "check_stats",
            algorithm=algorithm_name or "?",
            schedules=stats.schedules,
            states=stats.states,
            pruned_sleep=stats.pruned_sleep,
            pruned_state=stats.pruned_state,
            violations=stats.violations,
            max_depth=stats.max_depth,
            completed=completed,
        )
    return ExploreResult(
        stats=stats,
        violations=violations,
        states=states,
        outcomes=outcomes,
        completed=completed,
    )


def random_probe(
    world: World,
    *,
    seed: int = 0,
    laziness: float = 0.0,
) -> Tuple[Set[str], Tuple[int, int, int, str]]:
    """One random-controller run: (visited fingerprints, outcome).

    The containment test asserts both land inside the exhaustive
    explorer's reachable set.
    """
    from repro.check.controller import RandomController

    ctl = RandomController(seed=seed, laziness=laziness,
                           record_states=True)
    result = run_schedule(world, ctl, seed=0)[2]
    log = ctl.log
    visited = set(log.states)
    visited.add(log.final_state)
    outcome = (
        result.messages,
        result.bits,
        result.metrics.awake_count(),
        log.final_state,
    )
    return visited, outcome
