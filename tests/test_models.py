"""Tests for the model layer: ports, knowledge enforcement, CONGEST."""

import random

import pytest

from repro.errors import ModelViolation, SimulationError
from repro.graphs.generators import (
    complete_graph,
    connected_erdos_renyi,
    path_graph,
    star_graph,
)
from repro.models.congest import congest_model, local_model
from repro.models.knowledge import (
    Knowledge,
    NetworkSetup,
    assign_ids,
    make_setup,
)
from repro.models.ports import PortAssignment


class TestPortAssignment:
    def test_canonical_matches_adjacency(self):
        g = path_graph(4)
        pa = PortAssignment.canonical(g)
        assert pa.neighbor(1, 1) == 0
        assert pa.neighbor(1, 2) == 2
        assert pa.port(1, 0) == 1

    def test_bijection(self):
        g = complete_graph(6)
        pa = PortAssignment.random(g, seed=3)
        for v in g.vertices():
            nbrs = [pa.neighbor(v, p) for p in pa.ports(v)]
            assert sorted(nbrs) == sorted(g.neighbors(v))
            for p in pa.ports(v):
                assert pa.port(v, pa.neighbor(v, p)) == p

    def test_ports_one_based(self):
        g = star_graph(5)
        pa = PortAssignment.canonical(g)
        assert list(pa.ports(0)) == [1, 2, 3, 4]
        with pytest.raises(SimulationError):
            pa.neighbor(0, 0)
        with pytest.raises(SimulationError):
            pa.neighbor(0, 5)

    def test_non_neighbor_port_raises(self):
        g = path_graph(3)
        pa = PortAssignment.canonical(g)
        with pytest.raises(SimulationError):
            pa.port(0, 2)

    def test_table_matches_per_port_lookups(self):
        """The engines' per-vertex send tables must agree with the
        checked single-lookup API, for every vertex and port."""
        g = complete_graph(6)
        pa = PortAssignment.random(g, seed=3)
        for v in g.vertices():
            neighbors, back_ports = pa.table(v)
            assert len(neighbors) == len(back_ports) == pa.degree(v)
            for p in pa.ports(v):
                u = neighbors[p - 1]
                assert u == pa.neighbor(v, p)
                assert back_ports[p - 1] == pa.port(u, v)
        # The table is cached: repeated queries return the same tuple.
        v0 = next(iter(g.vertices()))
        assert pa.table(v0) is pa.table(v0)

    def test_table_unknown_vertex_raises(self):
        g = path_graph(3)
        pa = PortAssignment.canonical(g)
        with pytest.raises(SimulationError):
            pa.table(99)

    def test_random_is_seed_deterministic(self):
        g = complete_graph(8)
        a = PortAssignment.random(g, seed=5)
        b = PortAssignment.random(g, seed=5)
        for v in g.vertices():
            assert a.neighbors_in_port_order(v) == b.neighbors_in_port_order(v)

    def test_random_actually_shuffles(self):
        g = complete_graph(10)
        a = PortAssignment.canonical(g)
        b = PortAssignment.random(g, seed=1)
        diffs = sum(
            a.neighbors_in_port_order(v) != b.neighbors_in_port_order(v)
            for v in g.vertices()
        )
        assert diffs > 0

    def test_invalid_order_rejected(self):
        g = path_graph(3)
        with pytest.raises(SimulationError):
            PortAssignment(g, {0: [1], 1: [0, 0], 2: [1]})
        with pytest.raises(SimulationError):
            PortAssignment(g, {0: [1]})


class TestBandwidthModels:
    def test_local_unbounded(self):
        m = local_model()
        m.check(10**9)  # no exception
        assert not m.is_congest

    def test_congest_cap(self):
        m = congest_model(1024, factor=2)
        assert m.cap_bits == 2 * 10
        assert m.is_congest
        m.check(20)
        with pytest.raises(ModelViolation):
            m.check(21)

    def test_congest_tiny_n(self):
        m = congest_model(1)
        assert m.cap_bits >= 1


class TestIdAssignment:
    def test_unique_and_polynomial_range(self):
        g = connected_erdos_renyi(50, 0.1, seed=2)
        ids = assign_ids(g, seed=1)
        vals = list(ids.values())
        assert len(set(vals)) == 50
        assert all(0 <= v < 50**2 for v in vals)

    def test_fixed_ids_respected(self):
        g = path_graph(5)
        ids = assign_ids(g, seed=1, fixed={0: 42})
        assert ids[0] == 42
        assert len(set(ids.values())) == 5

    def test_duplicate_fixed_rejected(self):
        g = path_graph(3)
        with pytest.raises(SimulationError):
            assign_ids(g, fixed={0: 1, 1: 1})

    def test_deterministic(self):
        g = path_graph(10)
        assert assign_ids(g, seed=3) == assign_ids(g, seed=3)


class TestNetworkSetup:
    def test_id_lookup_roundtrip(self):
        g = path_graph(6)
        setup = make_setup(g, seed=1)
        for v in g.vertices():
            assert setup.vertex_of(setup.id_of(v)) == v

    def test_unknown_id_raises(self):
        setup = make_setup(path_graph(3), seed=1)
        with pytest.raises(SimulationError):
            setup.vertex_of(-12345)

    def test_neighbor_ids_in_port_order(self):
        g = star_graph(5)
        setup = make_setup(g, seed=2)
        nids = setup.neighbor_ids(0)
        expected = [
            setup.id_of(setup.ports.neighbor(0, p))
            for p in setup.ports.ports(0)
        ]
        assert nids == expected

    def test_log2_bound_default(self):
        setup = make_setup(path_graph(100), seed=1)
        assert setup.log2_n_bound == 7

    def test_with_advice_copies(self):
        from repro.advice.bits import Bits

        setup = make_setup(path_graph(3), seed=1)
        advice = {v: Bits([1]) for v in setup.graph.vertices()}
        s2 = setup.with_advice(advice)
        assert setup.advice is None
        assert s2.advice is not None

    def test_duplicate_ids_rejected(self):
        g = path_graph(2)
        from repro.models.ports import PortAssignment

        with pytest.raises(SimulationError):
            NetworkSetup(
                graph=g,
                ids={0: 7, 1: 7},
                ports=PortAssignment.canonical(g),
                knowledge=Knowledge.KT0,
                bandwidth=local_model(),
            )

    def test_unknown_bandwidth_string(self):
        with pytest.raises(SimulationError):
            make_setup(path_graph(3), bandwidth="WIDE")

    def test_knowledge_string_is_coerced(self):
        setup = make_setup(path_graph(3), knowledge="KT1", seed=1)
        assert setup.knowledge is Knowledge.KT1
        # Identity tests against the enum now see KT1: neighbor IDs
        # are available, as KT1 algorithms require.
        assert len(setup.neighbor_ids(1)) == 2

    def test_unknown_knowledge_string(self):
        with pytest.raises(SimulationError, match="knowledge"):
            make_setup(path_graph(3), knowledge="bogus")
