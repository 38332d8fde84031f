"""Worst-case schedule search for sizes exhaustion cannot reach.

The explorer's tree explodes past n ~ 4; here the adversary is built
instead of enumerated.  Two stages:

1. **greedy policies** — hand-written heuristics choosing one enabled
   event per free choice point (e.g. *feed-awake*: prefer deliveries to
   already-awake destinations, so messages are wasted before any new
   node wakes).  Each policy is one controlled run; the best seeds the
   beam.
2. **beam search** — branch over the first ``horizon`` free choice
   points (``branch_cap`` children per point, ``beam_width`` survivors
   per depth), completing every prefix with the winning greedy policy.
   Scoring a prefix costs one run, so the budget is
   ``horizon * beam_width * branch_cap`` runs.

Delivery *timing* is handled by the controller's laziness knob, not
the search: for the time objective every delivery is stretched to the
top of its legality envelope (laziness 1.0), which dominates any
intermediate timing for makespan.  The search therefore only explores
event *orderings*.

The returned schedule is replayable two ways — bit-exactly through
:class:`~repro.check.controller.ReplayController`, and through the
*plain* engine via :class:`~repro.check.controller.ReplayDelay` — so a
found adversarial frontier is a first-class, checkable artifact next
to the analytic lower bounds (``benchmarks/bench_theorem*_lb.py``).
:func:`random_baseline` gives the comparison point: the best score a
plain ``UniformRandomDelay`` sweep finds at the same size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.check.controller import (
    ChoicePoint,
    EnabledEvent,
    ScheduleController,
    ScheduleLog,
)
from repro.check.worlds import run_schedule
from repro.errors import SimulationError
from repro.obs.recorder import NULL_RECORDER
from repro.sim.adversary import UniformRandomDelay
from repro.sim.runner import WakeUpResult

#: policy name -> chooser(enabled) -> index.  Wakes sort first in
#: ``enabled``; a policy that wants to starve wake-ups cannot (wake
#: postponement beyond the guard window is not in the adversary's
#: power — see controller._wake_enabled), but it can order deliveries.
PolicyFn = Callable[[Sequence[EnabledEvent]], int]


def _head(enabled: Sequence[EnabledEvent]) -> int:
    return 0


def _fifo(enabled: Sequence[EnabledEvent]) -> int:
    """Oldest send first (closest to the canonical engine order)."""
    best, best_key = 0, None
    for i, ev in enumerate(enabled):
        key = (ev.sent_at, ev.seq)
        if best_key is None or key < best_key:
            best, best_key = i, key
    return best


def _lifo(enabled: Sequence[EnabledEvent]) -> int:
    """Newest send first — starves old messages toward their tau
    deadline."""
    best, best_key = 0, None
    for i, ev in enumerate(enabled):
        if ev.kind != "deliver":
            continue
        key = (ev.sent_at, ev.seq)
        if best_key is None or key > best_key:
            best, best_key = i, key
    return best if best_key is not None else 0


def _feed_awake(enabled: Sequence[EnabledEvent]) -> int:
    """Deliver to already-awake nodes first: wasted messages pile up
    while fresh wake-ups are deferred as long as legality allows."""
    for i, ev in enumerate(enabled):
        if ev.kind == "deliver" and ev.dst_awake:
            return i
    # No wasted delivery available: fall back to the oldest send.
    return _fifo(enabled)


GREEDY_POLICIES: Dict[str, PolicyFn] = {
    "head": _head,
    "fifo": _fifo,
    "lifo": _lifo,
    "feed-awake": _feed_awake,
}


class PolicyController(ScheduleController):
    """Applies one greedy policy at every free choice point, after
    replaying an optional choice prefix (the beam's branch decisions).
    """

    def __init__(self, policy: PolicyFn, prefix: Sequence[int] = (),
                 laziness: float = 0.0):
        self._policy = policy
        self._prefix = [int(c) for c in prefix]
        self._i = 0
        self.laziness = laziness

    def choose(self, cp: ChoicePoint) -> int:
        if not cp.free:
            return 0
        if self._i < len(self._prefix):
            idx = self._prefix[self._i]
            self._i += 1
            if not 0 <= idx < len(cp.enabled):
                raise SimulationError(
                    f"beam prefix choice {idx} out of range for "
                    f"{len(cp.enabled)} enabled events"
                )
            return idx
        self._i += 1
        return self._policy(cp.enabled)


@dataclass
class WorstCaseResult:
    """The best adversarial schedule found, fully replayable."""

    objective: str
    score: float
    policy: str
    choices: Tuple[int, ...]
    delays: Dict[int, float]
    laziness: float
    result: WakeUpResult
    log: ScheduleLog
    evaluations: int
    greedy_scores: Dict[str, float] = field(default_factory=dict)


def _score(objective: str, result: WakeUpResult) -> float:
    if objective == "time":
        return float(result.time)
    if objective == "messages":
        return float(result.messages)
    if objective == "bits":
        return float(result.bits)
    raise SimulationError(f"unknown worst-case objective {objective!r}")


def worstcase_search(
    world,
    objective: str = "time",
    *,
    beam_width: int = 4,
    horizon: int = 12,
    branch_cap: int = 3,
    laziness: Optional[float] = None,
    seed: int = 0,
    recorder=None,
) -> WorstCaseResult:
    """Greedy + beam search for the worst schedule of one workload.

    ``world`` is a fresh-(setup, algorithm, adversary) factory as in
    :func:`repro.check.explorer.explore`.  ``laziness`` defaults to 1.0
    for the time objective (maximal legal delivery times) and 0.0
    otherwise — message counts depend on orderings, not timings, and
    eager runs keep more deliveries concurrently in flight, giving the
    beam more orderings to branch over.

    Emits one ``worstcase_stats`` telemetry event when ``recorder`` is
    set.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    if laziness is None:
        laziness = 1.0 if objective == "time" else 0.0

    evaluations = 0

    def evaluate(policy: PolicyFn, prefix: Sequence[int]):
        nonlocal evaluations
        evaluations += 1
        ctl = PolicyController(policy, prefix, laziness=laziness)
        result = run_schedule(world, ctl, seed=seed)[2]
        return _score(objective, result), ctl.log, result

    # Stage 1: greedy policies.
    greedy_scores: Dict[str, float] = {}
    best = None  # (score, policy_name, log, result)
    for name, policy in GREEDY_POLICIES.items():
        score, log, result = evaluate(policy, ())
        greedy_scores[name] = score
        if best is None or score > best[0]:
            best = (score, name, log, result)
    assert best is not None
    base_policy_name = best[1]
    base_policy = GREEDY_POLICIES[base_policy_name]

    # Stage 2: beam over the first `horizon` free choice points, each
    # prefix completed by the winning greedy policy.
    if beam_width > 0 and horizon > 0:
        beam: List[Tuple[float, Tuple[int, ...], ScheduleLog]] = [
            (best[0], (), best[2])
        ]
        tried: Set[Tuple[int, ...]] = {()}
        for depth in range(horizon):
            children: List[Tuple[float, Tuple[int, ...], ScheduleLog]] = []
            for score, prefix, log in beam:
                if depth >= len(log.branch_sizes):
                    continue  # run ended before this choice point
                width = min(log.branch_sizes[depth], branch_cap)
                taken = log.choices[depth]
                for ci in range(width):
                    # The child pins choices 0..depth-1 to what this
                    # run actually took and branches at `depth`.
                    child = tuple(log.choices[:depth]) + (ci,)
                    if ci == taken or child in tried:
                        continue
                    tried.add(child)
                    c_score, c_log, c_result = evaluate(base_policy, child)
                    children.append((c_score, child, c_log))
                    if c_score > best[0]:
                        best = (c_score, base_policy_name, c_log, c_result)
            if not children:
                # Keep deepening along the incumbents only.
                continue
            merged = beam + children
            merged.sort(key=lambda t: (-t[0], t[1]))
            beam = merged[:beam_width]

    score, policy_name, log, result = best
    algorithm_name = result.algorithm
    out = WorstCaseResult(
        objective=objective,
        score=score,
        policy=policy_name,
        choices=tuple(log.choices),
        delays=dict(log.delays),
        laziness=laziness,
        result=result,
        log=log,
        evaluations=evaluations,
        greedy_scores=greedy_scores,
    )
    from repro.obs.metrics import get_registry

    mreg = get_registry()
    if mreg.enabled:
        mreg.counter(
            "repro_worstcase_evaluations_total",
            algorithm=algorithm_name,
            objective=objective,
        ).inc(evaluations)
    if rec.enabled:
        rec.emit(
            "worstcase_stats",
            algorithm=algorithm_name,
            objective=objective,
            evaluations=evaluations,
            best_score=score,
            policy=policy_name,
        )
    return out


def baseline_trial_specs(base_spec, *, trials: int = 32, seed: int = 0):
    """The ``trials`` CellSpecs one random baseline decomposes into.

    Each trial pins the delay spec to the serial path's
    ``UniformRandomDelay(seed=seed + t)`` (default ``lo``) and the
    execution seed to the serial path's ``run_schedule(seed=seed)``, so a
    cell built from a faithful ``base_spec`` reproduces the serial
    trial bit-exactly.  Exposed separately so callers (the atlas CLI,
    benches) can count or pre-warm baseline cells.
    """
    from dataclasses import replace

    return [
        replace(
            base_spec,
            trial=t,
            delay={"kind": "uniform", "seed": seed + t, "lo": 0.05},
            exec_seed=seed,
            require_all_awake=False,
        )
        for t in range(trials)
    ]


def random_baseline(
    world,
    objective: str = "time",
    *,
    trials: int = 32,
    seed: int = 0,
    executor=None,
    base_spec=None,
) -> float:
    """Best score a plain UniformRandomDelay sweep finds.

    The comparison point for :func:`worstcase_search`: the searched
    adversary must meet or beat the best of ``trials`` random-delay
    samples on the same workload (asserted by the worst-case tests and
    reported next to the frontier in the lower-bound benches).

    When ``executor`` (a
    :class:`~repro.experiments.parallel.ParallelSweepExecutor`) and
    ``base_spec`` (a :class:`~repro.experiments.parallel.CellSpec`
    describing the same world ``world`` builds — workload, schedule,
    knowledge, bandwidth, ``setup_seed``) are both given, the trials
    run as executor cells instead of a serial loop: parallel across
    workers, cached on disk, and bit-identical to the serial path
    because each cell rebuilds the identical world and runs the same
    ``(setup_seed, exec_seed, delay-seed)`` triple
    (:func:`baseline_trial_specs`; conformance-tested in
    ``tests/test_opt_evaluate.py``).  ``world`` may then be ``None``.
    """
    if executor is not None or base_spec is not None:
        if executor is None or base_spec is None:
            raise SimulationError(
                "random_baseline needs both executor and base_spec, "
                "or neither"
            )
        best = float("-inf")
        specs = baseline_trial_specs(base_spec, trials=trials, seed=seed)
        for out in executor.run(specs):
            if out.result is None:
                raise SimulationError(
                    f"random baseline cell {out.key[:12]} failed: "
                    f"{out.error}"
                )
            best = max(best, _score(objective, out.result))
        return best
    best = float("-inf")
    for t in range(trials):
        result = run_schedule(
            world, seed=seed, delays=UniformRandomDelay(seed=seed + t)
        )[2]
        best = max(best, _score(objective, result))
    return best
