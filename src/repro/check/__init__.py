"""repro.check — adversarial schedule explorer.

Bounded model checking (:mod:`~repro.check.explorer`), worst-case
schedule search (:mod:`~repro.check.worstcase`), counterexample
shrinking (:mod:`~repro.check.shrink`), all built on the controlled
async engine loop (:mod:`~repro.check.controller`).  See
``docs/modelcheck.md``.
"""

from repro.check.controller import (
    ABORT,
    DEFAULT_REPLAY_DIR,
    MUTATION_SKIP_FIFO,
    ChoicePoint,
    EnabledEvent,
    RandomController,
    ReplayController,
    ReplayDelay,
    ScheduleController,
    ScheduleLog,
    load_replay,
    make_replay,
    replay_mismatch,
    save_replay,
)
from repro.check.explorer import (
    ExploreResult,
    ExploreStats,
    FoundViolation,
    explore,
    random_probe,
)
from repro.check.invariants import (
    CLAIMED_MESSAGE_BOUNDS,
    Invariant,
    InvariantContext,
    default_invariants,
)
from repro.check.shrink import ShrinkOutcome, shrink_violation
from repro.check.worstcase import (
    GREEDY_POLICIES,
    PolicyController,
    WorstCaseResult,
    baseline_trial_specs,
    random_baseline,
    worstcase_search,
)

__all__ = [
    "ABORT",
    "DEFAULT_REPLAY_DIR",
    "MUTATION_SKIP_FIFO",
    "ChoicePoint",
    "EnabledEvent",
    "RandomController",
    "ReplayController",
    "ReplayDelay",
    "ScheduleController",
    "ScheduleLog",
    "load_replay",
    "make_replay",
    "replay_mismatch",
    "save_replay",
    "ExploreResult",
    "ExploreStats",
    "FoundViolation",
    "explore",
    "random_probe",
    "CLAIMED_MESSAGE_BOUNDS",
    "Invariant",
    "InvariantContext",
    "default_invariants",
    "ShrinkOutcome",
    "shrink_violation",
    "GREEDY_POLICIES",
    "PolicyController",
    "WorstCaseResult",
    "baseline_trial_specs",
    "random_baseline",
    "worstcase_search",
]
