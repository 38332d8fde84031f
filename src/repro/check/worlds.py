"""Deterministic world factories for ``check`` / ``worstcase``.

A *world* is a zero-argument callable returning a fresh
``(setup, algorithm, adversary)`` triple.  The explorer, shrinker, and
worst-case search re-execute runs and need bit-equal starting states,
so topology, wake set, and stagger are resolved exactly once and the
factory rebuilds an identical world per call.

Extracted from the CLI so the :mod:`repro.serve` daemon (whose job
specs arrive as plain dicts over a socket) and the ``repro check`` /
``repro worstcase`` subcommands share one construction path.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule

#: Topologies :func:`build_check_world` accepts for ``graph``.
CHECK_GRAPHS = ("complete", "path", "cycle", "star", "er")

World = Callable[[], Tuple[object, object, Adversary]]


def build_check_world(
    algo,
    n: int,
    graph: str = "cycle",
    awake: int = 1,
    stagger: float = 0.0,
    degree: float = 3.0,
    seed: int = 0,
) -> Tuple[World, Dict]:
    """World factory over a named small topology.

    Returns ``(world, times)`` where ``times`` is the resolved wake
    schedule (vertex -> wake time) — callers embed it in replay
    artifacts.  The graph and the ordered woken sample come from the
    ``check_world`` workload (:mod:`repro.graphs.workloads`), which
    executor cells over checker worlds build too.
    """
    from repro.graphs.workloads import check_world

    g, woken = check_world(graph, awake, degree, seed)(n)
    times = {v: i * stagger for i, v in enumerate(woken)}
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    bandwidth = "CONGEST" if algo.congest_safe else "LOCAL"
    setup_seed = seed + 2

    def world():
        setup = make_setup(
            g, knowledge=knowledge, bandwidth=bandwidth, seed=setup_seed
        )
        return (
            setup,
            algo,
            Adversary(WakeSchedule(dict(times)), UnitDelay()),
        )

    return world, times


def build_class_g_world(algo, n: int, seed: int = 0) -> Tuple[World, Dict]:
    """World factory over the Theorem-1 lower-bound topology."""
    from repro.lowerbounds.graph_g import build_class_g

    cg = build_class_g(n)
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    times = {v: 0.0 for v in cg.centers}

    def world():
        setup = cg.make_setup(
            seed=seed + 2, bandwidth="LOCAL", knowledge=knowledge
        )
        return (
            setup,
            algo,
            Adversary(WakeSchedule(dict(times)), UnitDelay()),
        )

    return world, times
