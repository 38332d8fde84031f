"""Deterministic worlds for ``check`` / ``worstcase``, and their runner.

A *world* is a zero-argument callable returning a fresh
``(setup, algorithm, adversary)`` triple.  The explorer, shrinker, and
worst-case search re-execute runs and need bit-equal starting states,
so topology, wake set, and stagger are resolved exactly once and the
factory rebuilds an identical world per call.

:func:`build_world` reads the world out of request fields — the
``repro check`` / ``repro worstcase`` flags, the :mod:`repro.serve`
daemon's job specs and a saved replay's ``n`` plus ``workload`` alike;
:func:`world_fields` picks out the fields that name it.
:func:`run_schedule` runs one schedule of a world: every controlled
run, random-delay trial and plain replay in :mod:`repro.check` and
the CLI's check commands goes through it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup

#: Topologies :func:`build_check_world` accepts for ``graph``.
CHECK_GRAPHS = ("complete", "path", "cycle", "star", "er")

#: The request fields, and their types, that each check workload's
#: world reads besides ``n``: ``er`` is a named small topology
#: (:func:`build_check_world`), ``class-g`` the Theorem-1 topology
#: (:func:`build_class_g_world`).
WORKLOAD_FIELDS = {
    "er": {"graph": str, "awake": int, "stagger": float, "degree": float,
           "seed": int},
    "class-g": {"seed": int},
}

#: The ``workload`` names :func:`build_world` accepts.
CHECK_WORKLOADS = tuple(WORKLOAD_FIELDS)

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


def world_fields(fields: Mapping[str, Any]) -> Dict[str, Any]:
    """The fields of ``fields`` that name its world besides ``n``.

    They are ``workload`` when given (``"er"`` when not) and the
    fields that workload's world reads, cast to their
    :data:`WORKLOAD_FIELDS` types.  :func:`build_world` reads only
    these, and a replay artifact records them as its ``workload``.
    An unknown workload or graph raises ``ValueError``.
    """
    workload = fields.get("workload", "er")
    if workload not in WORKLOAD_FIELDS:
        raise ValueError(f"workload {workload!r} not in {CHECK_WORKLOADS}")
    types = WORKLOAD_FIELDS[workload]
    named = {k: cast(fields[k]) for k, cast in types.items()}
    if named.get("graph", "er") not in CHECK_GRAPHS:
        raise ValueError(f"graph {named['graph']!r} not in {CHECK_GRAPHS}")
    return {"workload": workload, **named} if "workload" in fields else named


def build_world(algo, fields: Mapping[str, Any]) -> Tuple[World, Dict]:
    """``(world, times)`` for the world that request ``fields`` name:
    ``n`` and the :func:`world_fields` of its workload."""
    named = world_fields(fields)
    if named.pop("workload", "er") == "class-g":
        return build_class_g_world(algo, int(fields["n"]), **named)
    return build_check_world(algo, int(fields["n"]), **named)


def run_schedule(
    world: World,
    controller=None,
    *,
    seed: int,
    delays=None,
    trace: bool = False,
):
    """Run one schedule of a fresh ``world`` on the async lane.

    Returns ``(setup, adversary, result)``.  Nodes may stay asleep.
    ``controller`` resolves the engine's nondeterminism (its
    ``log`` records the schedule); ``delays`` replaces the world's
    delay strategy (a random-delay trial, a
    :class:`~repro.check.controller.ReplayDelay` replay);
    ``trace=True`` records ``result.trace``, which only the invariants
    read.
    """
    setup, algorithm, adversary = world()
    if delays is not None:
        adversary = Adversary(adversary.schedule, delays)
    result = run_wakeup(
        setup,
        algorithm,
        adversary,
        engine="async",
        seed=seed,
        require_all_awake=False,
        record_trace=trace,
        controller=controller,
    )
    return setup, adversary, result
