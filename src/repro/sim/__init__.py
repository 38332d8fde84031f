"""Simulation layer: engines, adversary, metrics, node API, runner."""

from repro.sim.adversary import (
    Adversary,
    DelayStrategy,
    PerEdgeDelay,
    SlowEdgeDelay,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.async_engine import AsyncEngine
from repro.sim.messages import Message, bit_size
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm, NodeContext
from repro.sim.runner import WakeUpResult, run_wakeup
from repro.sim.sync_engine import SyncEngine
from repro.sim.trace import Trace, TraceEvent

__all__ = [
    "Adversary",
    "DelayStrategy",
    "PerEdgeDelay",
    "SlowEdgeDelay",
    "UniformRandomDelay",
    "UnitDelay",
    "WakeSchedule",
    "AsyncEngine",
    "Message",
    "bit_size",
    "Metrics",
    "NodeAlgorithm",
    "NodeContext",
    "WakeUpResult",
    "run_wakeup",
    "SyncEngine",
    "Trace",
    "TraceEvent",
]
