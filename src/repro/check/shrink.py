"""Counterexample shrinking: delta-debug a violating schedule.

A violation found by the explorer or a fuzz run arrives as a choice
sequence (one index per free choice point).  The raw witness is often
long and full of irrelevant decisions; the shrinker minimizes it while
preserving the *same invariant violation*:

1. **ddmin chunk removal** — delete contiguous chunks of choices,
   halving chunk size until single choices, classic delta debugging.
   A :class:`~repro.check.controller.ReplayController` in lenient mode
   pads exhausted/out-of-range positions with choice 0, so any
   truncated or spliced sequence still denotes a valid schedule.
2. **point lowering** — drive each surviving choice toward 0 (smaller
   indices mean "deliver the oldest head", the canonical schedule), so
   the final witness reads as "canonical except at these points".
3. **trailing-zero strip** — choices equal to the canonical default
   carry no information at the tail; drop them.

Every candidate costs one fresh controlled run, so ``max_tests``
bounds the work.  The result replays deterministically:
``ReplayController(outcome.choices)`` on a fresh world reproduces the
violation (the mutation-smoke test asserts exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.check.controller import ReplayController
from repro.check.invariants import Invariant, find_violations
from repro.check.worlds import run_schedule
from repro.obs.recorder import NULL_RECORDER


@dataclass
class ShrinkOutcome:
    """The minimized witness plus shrink-loop accounting."""

    choices: Tuple[int, ...]
    invariant: str
    detail: str
    tests: int
    initial_length: int
    final_length: int

    @property
    def reduction(self) -> float:
        """Fraction of the witness removed (0.0 when nothing shrank)."""
        if self.initial_length == 0:
            return 0.0
        return 1.0 - self.final_length / self.initial_length


class _Oracle:
    """Runs one candidate choice sequence; remembers the last detail."""

    def __init__(self, world, invariants, *, seed, laziness, mutation,
                 max_tests):
        self._world = world
        self._invariants = invariants
        self._seed = seed
        self._laziness = laziness
        self._mutation = mutation
        self._budget = max_tests
        self.tests = 0
        self.last_detail = ""

    @property
    def exhausted(self) -> bool:
        return self.tests >= self._budget

    def fails(self, choices: Sequence[int], invariant_name: str) -> bool:
        """True when replaying ``choices`` violates ``invariant_name``."""
        if self.exhausted:
            return False
        self.tests += 1
        ctl = ReplayController(
            list(choices),
            strict=False,
            laziness=self._laziness,
            mutation=self._mutation,
        )
        setup, adversary, result = run_schedule(
            self._world, ctl, seed=self._seed, trace=True
        )
        watched = [i for i in self._invariants if i.name == invariant_name]
        found = find_violations(watched, setup, adversary, result, ctl.log)
        if found:
            self.last_detail = found[0][1]
        return bool(found)


def _ddmin(choices: List[int], oracle: _Oracle, invariant: str) -> List[int]:
    """Classic ddmin: remove chunks while the violation persists."""
    chunk = max(1, len(choices) // 2)
    while chunk >= 1 and choices:
        i = 0
        shrunk = False
        while i < len(choices):
            candidate = choices[:i] + choices[i + chunk:]
            if oracle.fails(candidate, invariant):
                choices = candidate
                shrunk = True
                # Same index now holds the next chunk; don't advance.
            else:
                i += chunk
            if oracle.exhausted:
                return choices
        if shrunk:
            continue  # retry removals at the same granularity
        if chunk == 1:
            break
        chunk //= 2
    return choices


def _lower_points(choices: List[int], oracle: _Oracle,
                  invariant: str) -> List[int]:
    """Drive each choice toward the canonical 0."""
    for i in range(len(choices)):
        while choices[i] > 0 and not oracle.exhausted:
            candidate = list(choices)
            candidate[i] = choices[i] - 1
            if oracle.fails(candidate, invariant):
                choices = candidate
            else:
                break
    return choices


def shrink_violation(
    world,
    choices: Sequence[int],
    invariant_name: str,
    *,
    invariants: List[Invariant],
    seed: int = 0,
    laziness: float = 0.0,
    mutation: Optional[str] = None,
    max_tests: int = 2_000,
    recorder=None,
) -> ShrinkOutcome:
    """Minimize ``choices`` while ``invariant_name`` still fires.

    ``world``/``seed``/``laziness``/``mutation`` must match the run
    that produced the witness — the shrinker re-executes candidates
    under identical conditions.  Raises ``ValueError`` if the original
    witness does not reproduce (a non-reproducing witness means the
    caller's world factory is not deterministic).

    Emits one ``shrink_stats`` telemetry event when ``recorder`` is
    set.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    oracle = _Oracle(
        world,
        invariants,
        seed=seed,
        laziness=laziness,
        mutation=mutation,
        max_tests=max_tests,
    )
    original = list(choices)
    if not oracle.fails(original, invariant_name):
        raise ValueError(
            f"witness does not reproduce invariant {invariant_name!r}; "
            "the world factory must be deterministic"
        )
    detail = oracle.last_detail

    current = _ddmin(original, oracle, invariant_name)
    current = _lower_points(current, oracle, invariant_name)
    # Canonical tail choices (0) are implied by lenient padding.
    while current and current[-1] == 0:
        candidate = current[:-1]
        if oracle.fails(candidate, invariant_name):
            current = candidate
        else:
            break
    if oracle.fails(current, invariant_name):
        detail = oracle.last_detail

    outcome = ShrinkOutcome(
        choices=tuple(current),
        invariant=invariant_name,
        detail=detail,
        tests=oracle.tests,
        initial_length=len(original),
        final_length=len(current),
    )
    from repro.obs.metrics import get_registry

    mreg = get_registry()
    if mreg.enabled:
        mreg.counter(
            "repro_shrink_iterations_total", invariant=invariant_name
        ).inc(outcome.tests)
    if rec.enabled:
        rec.emit(
            "shrink_stats",
            invariant=invariant_name,
            tests=outcome.tests,
            from_len=outcome.initial_length,
            to_len=outcome.final_length,
            reduction=round(outcome.reduction, 4),
        )
    return outcome
