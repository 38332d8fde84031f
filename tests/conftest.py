"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs.generators import (
    connected_erdos_renyi,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.models.knowledge import Knowledge, make_setup
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``bulk``-marked tests when the repro[bulk] extras
    (numpy + scipy) are not installed — the dependency-light seed
    environment stays green without them."""
    from repro.sim.bulk import HAS_BULK

    if HAS_BULK:
        return
    skip = pytest.mark.skip(
        reason="repro[bulk] extras not installed (pip install repro[bulk])"
    )
    for item in items:
        if "bulk" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def live_registry():
    """Install a fresh global metrics registry — the one the executor
    counts into — and restore the previous one on exit (also when the
    test installs further registries itself)."""
    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        yield registry
    finally:
        set_global_registry(previous)


@pytest.fixture
def small_graphs():
    """A zoo of small named graphs covering the structural corner cases."""
    return {
        "path10": path_graph(10),
        "cycle8": cycle_graph(8),
        "star12": star_graph(12),
        "grid4x4": grid_graph(4, 4),
        "tree20": random_tree(20, seed=7),
        "er30": connected_erdos_renyi(30, 0.15, seed=11),
    }


@pytest.fixture
def kt1_setup():
    """A KT1 LOCAL setup on a 30-node connected ER graph."""
    g = connected_erdos_renyi(30, 0.15, seed=5)
    return make_setup(g, knowledge=Knowledge.KT1, bandwidth="LOCAL", seed=2)


@pytest.fixture
def kt0_setup():
    """A KT0 CONGEST setup on the same topology."""
    g = connected_erdos_renyi(30, 0.15, seed=5)
    return make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=2)


@pytest.fixture
def single_wake_adversary():
    def make(graph, vertex=None):
        if vertex is None:
            vertex = next(iter(graph.vertices()))
        return Adversary(WakeSchedule.singleton(vertex), UnitDelay())

    return make


@pytest.fixture
def rng():
    return random.Random(1234)
