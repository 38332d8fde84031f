"""Fault injection — robustness testing beyond the paper's model.

The paper assumes error-free FIFO channels (Sec 1.1); every guarantee
in Table 1 is stated under that assumption.  Real Wake-on-LAN networks
drop packets, so a library an operator would adopt should let them ask:
*which of these algorithms degrade gracefully when the channel model is
violated?*  This module adds an optional message-loss layer:

* :class:`DropStrategy` — decides, per send, whether the message is
  lost.  Like delays, drops are **oblivious**: pure functions of
  (edge, sequence number, construction seed), never of node state.
* :class:`FaultyAdversary` — an :class:`~repro.sim.adversary.Adversary`
  carrying a drop strategy; both engines consult it at send time (a
  dropped message is charged to the sender and never delivered).

Findings the tests encode: flooding tolerates substantial loss on
dense graphs (every node has many wake chances), while the tree-based
advice schemes are single-path fragile — one lost probe strands a
subtree.  That redundancy/efficiency trade is invisible in the paper's
model and is exactly what fault injection is for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from repro.errors import SimulationError
from repro.sim.adversary import (
    Adversary,
    DelayStrategy,
    UnitDelay,
    WakeSchedule,
    _stable_unit,
)

Vertex = Hashable


class DropStrategy:
    """Decides whether a given send is lost in transit."""

    def drops(self, src: Vertex, dst: Vertex, seq: int) -> bool:
        """Whether the ``seq``-th send over src->dst is lost."""
        raise NotImplementedError


class NoDrops(DropStrategy):
    def drops(self, src, dst, seq) -> bool:
        return False


class BernoulliDrops(DropStrategy):
    """Each message is lost independently with probability p, derived
    from a deterministic per-(edge, seq) hash (replayable)."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p < 1.0:
            raise SimulationError("drop probability must be in [0, 1)")
        self.p = p
        self._seed = seed

    def drops(self, src, dst, seq) -> bool:
        if self.p == 0.0:
            return False
        return _stable_unit(self._seed, repr(src), repr(dst), seq) < self.p


class TargetedDrops(DropStrategy):
    """Lose every message on a chosen set of directed edges — the
    adversarial cut scenario."""

    def __init__(self, edges):
        self._edges = {(repr(a), repr(b)) for a, b in edges}

    def drops(self, src, dst, seq) -> bool:
        return (repr(src), repr(dst)) in self._edges


@dataclass
class FaultyAdversary(Adversary):
    """Adversary with message loss (both engines)."""

    drops: DropStrategy = field(default_factory=NoDrops)
