"""Monte-Carlo success-probability estimation.

The paper distinguishes Las Vegas algorithms (Theorems 3/4: always
correct, randomized cost) from schemes that can *fail* (the Sec-1.3
star sampling; push gossip under a round budget).  For the latter, the
right experimental object is the success probability with a confidence
interval.  This module estimates it with Wilson score intervals —
better behaved than the normal approximation at the extreme rates these
experiments produce (failure probabilities near 0 or 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from repro.errors import ReproError


@dataclass
class SuccessEstimate:
    """Estimated success probability with a Wilson confidence interval."""

    successes: int
    trials: int
    confidence: float
    low: float
    high: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"{self.rate:.3f} "
            f"[{self.low:.3f}, {self.high:.3f}] "
            f"@{self.confidence:.0%} ({self.successes}/{self.trials})"
        )


# z-scores for the confidence levels the benches use.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ReproError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ReproError("successes out of range")
    try:
        z = _Z[confidence]
    except KeyError:
        raise ReproError(
            f"unsupported confidence {confidence}; pick from {sorted(_Z)}"
        ) from None
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    spread = (
        z
        * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - spread), min(1.0, center + spread)


def estimate_success(
    trial: Callable[[int], bool],
    trials: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> SuccessEstimate:
    """Run ``trial(seed_i)`` for ``trials`` derived seeds and wrap the
    outcome counts in a Wilson interval."""
    if trials <= 0:
        raise ReproError("trials must be positive")
    successes = sum(
        1 for i in range(trials) if trial(seed * 100_003 + i)
    )
    low, high = wilson_interval(successes, trials, confidence)
    return SuccessEstimate(
        successes=successes,
        trials=trials,
        confidence=confidence,
        low=low,
        high=high,
    )


def trials_for_separation(p0: float, p1: float, confidence: float = 0.95) -> int:
    """Rough number of trials needed to separate success rates p0 < p1
    (intervals of half-width ~(p1-p0)/2).  Planning helper for benches."""
    if not 0 <= p0 < p1 <= 1:
        raise ReproError("need 0 <= p0 < p1 <= 1")
    z = _Z.get(confidence)
    if z is None:
        raise ReproError(f"unsupported confidence {confidence}")
    gap = (p1 - p0) / 2
    worst_var = 0.25  # p(1-p) maximized at 1/2
    return math.ceil((z**2 * worst_var) / gap**2)
