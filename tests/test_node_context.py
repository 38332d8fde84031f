"""Property tests on the NodeContext contract (the knowledge API every
algorithm sees)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelViolation, SimulationError
from repro.graphs.generators import connected_erdos_renyi
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.async_engine import AsyncEngine
from repro.sim.node import NodeAlgorithm

SETTINGS = dict(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ContextProbe(NodeAlgorithm):
    """Inspects its context on wake and records consistency facts."""

    def __init__(self, kt1: bool):
        self._kt1 = kt1
        self.facts = {}

    def on_wake(self, ctx):
        self.facts["degree"] = ctx.degree
        self.facts["ports"] = list(ctx.ports)
        self.facts["node_id"] = ctx.node_id
        self.facts["log_bound"] = ctx.log2_n_bound
        if self._kt1:
            nids = ctx.neighbor_ids()
            self.facts["neighbor_ids"] = nids
            self.facts["roundtrip"] = all(
                ctx.port_of(ctx.neighbor_id(p)) == p for p in ctx.ports
            )
            self.facts["list_matches_ports"] = nids == [
                ctx.neighbor_id(p) for p in ctx.ports
            ]
        else:
            try:
                ctx.neighbor_ids()
                self.facts["kt0_leak"] = True
            except ModelViolation:
                self.facts["kt0_leak"] = False
        # send API validation
        try:
            ctx.send(0, ("x",))
            self.facts["port_zero_allowed"] = True
        except SimulationError:
            self.facts["port_zero_allowed"] = False
        try:
            ctx.send(ctx.degree + 1, ("x",))
            self.facts["port_over_allowed"] = True
        except SimulationError:
            self.facts["port_over_allowed"] = False


def run_probe(seed: int, knowledge: Knowledge):
    g = connected_erdos_renyi(15, 0.25, seed=seed)
    setup = make_setup(g, knowledge=knowledge, seed=seed)
    nodes = {v: ContextProbe(knowledge is Knowledge.KT1) for v in g.vertices()}
    adversary = Adversary(
        WakeSchedule.all_at_once(list(g.vertices())), UnitDelay()
    )
    AsyncEngine(setup, nodes, adversary, seed=seed).run()
    return g, setup, nodes


def test_lazy_rng_stream_matches_eager_random():
    """Contexts built with a seed (the engines' fast path) must expose
    the identical random stream as one built with a ready generator."""
    from repro.sim.node import NodeContext

    g = connected_erdos_renyi(6, 0.5, seed=1)
    setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
    v = next(iter(g.vertices()))
    lazy = NodeContext(v, setup, 12345)
    eager = NodeContext(v, setup, random.Random(12345))
    assert [lazy.rng.random() for _ in range(20)] == [
        eager.rng.random() for _ in range(20)
    ]
    # The constructed generator is kept, not rebuilt per access.
    assert lazy.rng is lazy.rng


@given(seed=st.integers(0, 5000))
@settings(**SETTINGS)
def test_kt1_context_consistency(seed):
    g, setup, nodes = run_probe(seed, Knowledge.KT1)
    for v, node in nodes.items():
        assert node.facts["degree"] == g.degree(v)
        assert node.facts["ports"] == list(range(1, g.degree(v) + 1))
        assert node.facts["node_id"] == setup.id_of(v)
        assert node.facts["roundtrip"]
        assert node.facts["list_matches_ports"]
        assert sorted(node.facts["neighbor_ids"]) == sorted(
            setup.id_of(u) for u in g.neighbors(v)
        )


@given(seed=st.integers(0, 5000))
@settings(**SETTINGS)
def test_kt0_context_blocks_ids_and_validates_ports(seed):
    g, setup, nodes = run_probe(seed, Knowledge.KT0)
    for node in nodes.values():
        assert node.facts["kt0_leak"] is False
        assert node.facts["port_zero_allowed"] is False
        assert node.facts["port_over_allowed"] is False


@given(seed=st.integers(0, 5000))
@settings(**SETTINGS)
def test_log_bound_known_to_all(seed):
    g, setup, nodes = run_probe(seed, Knowledge.KT0)
    bounds = {node.facts["log_bound"] for node in nodes.values()}
    assert len(bounds) == 1
    (bound,) = bounds
    assert 2 ** bound >= g.num_vertices


# ----------------------------------------------------------------------
# KT1 lookups come from one table per context, built on the first query
# ----------------------------------------------------------------------
def _context(knowledge: Knowledge):
    from repro.sim.node import NodeContext

    g = connected_erdos_renyi(12, 0.3, seed=4)
    setup = make_setup(g, knowledge=knowledge, seed=4)
    v = next(iter(g.vertices()))
    return g, setup, v, NodeContext(v, setup, 0)


def _error_text(call):
    with pytest.raises(SimulationError) as info:
        call()
    return str(info.value)


def test_kt0_refuses_every_kt1_query_every_time():
    g, setup, v, ctx = _context(Knowledge.KT0)
    some_id = setup.id_of(v)
    for _ in range(2):
        with pytest.raises(ModelViolation):
            ctx.neighbor_id(1)
        with pytest.raises(ModelViolation):
            ctx.neighbor_ids()
        with pytest.raises(ModelViolation):
            ctx.port_of(some_id)


def test_kt1_lookups_match_the_setup():
    g, setup, v, ctx = _context(Knowledge.KT1)
    expected = setup.neighbor_ids(v)
    assert ctx.neighbor_ids() == expected
    for p in ctx.ports:
        assert ctx.neighbor_id(p) == expected[p - 1]
        assert ctx.port_of(expected[p - 1]) == p


@pytest.mark.parametrize("port", [0, -1, "degree+1"])
def test_bad_port_raises_the_port_maps_error(port):
    g, setup, v, ctx = _context(Knowledge.KT1)
    if port == "degree+1":
        port = ctx.degree + 1
    ctx.neighbor_ids()  # the table exists before the bad query
    assert _error_text(lambda: ctx.neighbor_id(port)) == _error_text(
        lambda: setup.ports.neighbor(v, port)
    )


def test_neighbor_ids_returns_a_fresh_list():
    g, setup, v, ctx = _context(Knowledge.KT1)
    first = ctx.neighbor_ids()
    first.append(-1)
    second = ctx.neighbor_ids()
    assert second is not first
    assert second == setup.neighbor_ids(v)


def test_port_of_a_non_neighbour_raises_as_before():
    g, setup, v, ctx = _context(Knowledge.KT1)
    stranger = next(
        u for u in g.vertices() if u != v and not g.has_edge(u, v)
    )
    unknown = max(setup.ids.values()) + 1
    assert _error_text(lambda: ctx.port_of(setup.id_of(stranger))) == (
        _error_text(lambda: setup.ports.port(v, stranger))
    )
    assert _error_text(lambda: ctx.port_of(unknown)) == _error_text(
        lambda: setup.vertex_of(unknown)
    )
    assert _error_text(lambda: ctx.port_of(setup.id_of(v))) == _error_text(
        lambda: setup.ports.port(v, v)
    )
