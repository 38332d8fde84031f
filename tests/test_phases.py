"""Phase attribution through ``@phased`` node methods.

The pinned profiles are the per-phase ``(entries, messages)`` the
instrumented algorithms reported when their phases were ``with``-block
spans; the decorated methods must reproduce them exactly on every lane.
Wall-times are not deterministic and are only checked for shape.
"""

import pytest

from repro.analysis.telemetry import phase_profile_table
from repro.apps.leader_election import LeaderElection
from repro.check.controller import RandomController
from repro.core.registry import get_algorithm
from repro.core.spanner_advice import SpannerAdvice
from repro.graphs.generators import connected_erdos_renyi
from repro.lowerbounds.graph_g import build_class_g
from repro.lowerbounds.nih import NIHWrapper
from repro.models.knowledge import Knowledge, make_setup
from repro.obs import phases as phases_mod
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.obs.phases import PhaseTracker, phased
from repro.sim.adversary import (
    Adversary,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
)
from repro.sim.metrics import Metrics
from repro.sim.node import NodeAlgorithm, NodeContext
from repro.sim.runner import run_wakeup

# (algorithm, lane) -> (messages, {phase: (entries, messages)})
PINNED = {
    ("spanner-advice", "async"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("spanner-advice", "sync"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("spanner-advice", "controlled"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("log-spanner-advice", "async"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("log-spanner-advice", "sync"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("log-spanner-advice", "controlled"): (180, {
        "advice-decode": (24, 0), "engine": (1, 180),
        "spanner-probe": (204, 180)}),
    ("dfs-rank", "async"): (56, {
        "dfs-token": (59, 56), "engine": (1, 56), "rank-draw": (3, 0)}),
    ("dfs-rank", "sync"): (56, {
        "dfs-token": (59, 56), "engine": (1, 56), "rank-draw": (3, 0)}),
    ("dfs-rank", "controlled"): (46, {
        "dfs-token": (47, 46), "engine": (1, 46), "rank-draw": (1, 0)}),
    # Leader election answers ANNOUNCE before the DFS node's phase, so
    # only the leader's first announcements (sent from inside the
    # token's completion) count as dfs-token messages.
    ("leader-election", "async"): (79, {
        "dfs-token": (59, 57), "engine": (1, 79), "rank-draw": (3, 0)}),
    ("leader-election", "sync"): (79, {
        "dfs-token": (59, 57), "engine": (1, 79), "rank-draw": (3, 0)}),
    ("leader-election", "controlled"): (69, {
        "dfs-token": (47, 47), "engine": (1, 69), "rank-draw": (1, 0)}),
}


def _profiled(run):
    """``run()`` under a fresh registry: ``(result, {phase: (entries,
    messages)})`` read from its ``repro_phase_*`` series."""
    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        result = run()
    finally:
        set_global_registry(previous)
    rows = phase_profile_table(registry.snapshot())
    return result, {
        row["phase"]: (row["entries"], row["messages"]) for row in rows
    }


def _run(name, lane):
    algo = LeaderElection() if name == "leader-election" else get_algorithm(name)
    graph = connected_erdos_renyi(24, 4.0 / 23, seed=3)
    setup = make_setup(
        graph,
        knowledge=Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0,
        bandwidth="CONGEST" if algo.congest_safe else "LOCAL",
        seed=5,
    )
    vs = list(graph.vertices())
    adversary = Adversary(
        WakeSchedule({vs[0]: 0.0, vs[5]: 1.0, vs[11]: 2.0}),
        UniformRandomDelay(seed=7),
    )
    return run_wakeup(
        setup,
        algo,
        adversary,
        engine="sync" if lane == "sync" else "async",
        seed=9,
        controller=RandomController(seed=4) if lane == "controlled" else None,
    )


@pytest.mark.parametrize("name,lane", sorted(PINNED))
def test_profile_matches_the_span_era_values(name, lane):
    result, profile = _profiled(lambda: _run(name, lane))
    messages, phases = PINNED[(name, lane)]
    assert result.messages == messages
    assert profile == phases


def test_nih_wrapped_spanner_keeps_its_phases():
    """The wrappers hand the real context to the inner node: every
    inner send is a spanner-probe message, every inner delivery and
    every first probe a spanner-probe entry, every node decodes once."""
    inst = build_class_g(12)
    setup = inst.make_setup(seed=3)
    adversary = Adversary(
        WakeSchedule.all_at_once(inst.centers), UnitDelay()
    )
    wrap = NIHWrapper(SpannerAdvice(), inst)
    result, profile = _profiled(
        lambda: run_wakeup(setup, wrap, adversary, engine="async", seed=1)
    )
    n = setup.n
    responses = len(inst.pendants)  # one Lemma-1 reply per pendant
    assert profile["engine"] == (1, result.messages)
    assert profile["advice-decode"] == (n, 0)
    inner_messages = result.messages - responses
    assert profile["spanner-probe"] == (inner_messages + n, inner_messages)
    assert wrap.correctness(setup) == 1.0


# ----------------------------------------------------------------------
# The decorator itself
# ----------------------------------------------------------------------
class _Toy(NodeAlgorithm):
    @phased("outer")
    def outer(self, ctx, fail=False):
        ctx.send(1, ("a",))
        self.inner(ctx)
        if fail:
            raise RuntimeError("boom")
        return "done"

    @phased("inner")
    def inner(self, ctx):
        ctx.send(1, ("b",))
        ctx.send(1, ("c",))


def _tracked_context():
    graph = connected_erdos_renyi(6, 0.6, seed=1)
    setup = make_setup(graph, knowledge=Knowledge.KT0, seed=2)
    registry = MetricsRegistry()
    tracker = PhaseTracker(Metrics(), registry, n=6)
    ctx = NodeContext(next(iter(graph.vertices())), setup, 0)
    ctx._phases = tracker
    return ctx, tracker, registry


def _counters(registry, phase):
    counters = registry.snapshot()["counters"]
    return (
        counters[f'repro_phase_entries_total{{n="6",phase="{phase}"}}'],
        counters[f'repro_phase_messages_total{{n="6",phase="{phase}"}}'],
    )


def test_nested_calls_attribute_inclusively():
    ctx, tracker, registry = _tracked_context()
    tracker._start("engine")
    assert _Toy().outer(ctx) == "done"
    tracker._stop()
    assert _counters(registry, "outer") == (1, 3)
    assert _counters(registry, "inner") == (1, 2)
    seconds = registry.snapshot()["histograms"]
    outer = seconds['repro_phase_seconds{n="6",phase="outer"}']["sum"]
    inner = seconds['repro_phase_seconds{n="6",phase="inner"}']["sum"]
    assert outer >= inner >= 0.0


def test_a_call_that_raises_still_counts_its_entry():
    ctx, tracker, registry = _tracked_context()
    tracker._start("engine")
    with pytest.raises(RuntimeError, match="boom"):
        _Toy().outer(ctx, True)
    tracker._stop()
    assert _counters(registry, "outer") == (1, 3)
    assert _counters(registry, "inner") == (1, 2)


@pytest.mark.parametrize(
    "name", ["dfs-rank", "log-spanner-advice", "leader-election"]
)
def test_untracked_calls_never_touch_a_tracker(monkeypatch, name):
    """Without a registry a decorated method is a plain call: no clock
    read and no tracker method, on any lane."""
    touched = []
    monkeypatch.setattr(
        phases_mod, "perf_counter", lambda: touched.append("clock") or 0.0
    )
    monkeypatch.setattr(
        PhaseTracker, "add", lambda *a: touched.append("add")
    )
    for lane in ("async", "sync", "controlled"):
        assert _run(name, lane).messages == PINNED[(name, lane)][0]
    assert touched == []
