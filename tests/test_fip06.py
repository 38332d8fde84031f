"""Tests for the Corollary-1 [FIP06] BFS-tree advising scheme."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advice.bits import BitWriter
from repro.core.fip06 import (
    Fip06TreeAdvice,
    decode_tree_ports,
    encode_tree_ports,
)
from repro.graphs.generators import (
    complete_graph,
    connected_erdos_renyi,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.traversal import diameter
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup


def run_scheme(graph, awake, seed=0, engine="async"):
    setup = make_setup(graph, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=seed)
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    return run_wakeup(
        setup, Fip06TreeAdvice(), adversary, engine=engine, seed=seed + 1
    )


@given(
    degree=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=80)
def test_encoding_roundtrip(degree, data):
    k = data.draw(st.integers(0, degree))
    ports = sorted(
        data.draw(
            st.sets(st.integers(1, degree), min_size=k, max_size=k)
        )
    )
    bits = encode_tree_ports(ports, degree)
    assert decode_tree_ports(bits, degree) == ports


def _reference_encode(tree_ports, degree):
    """The per-bit encoder: build both forms bit by bit, keep the
    shorter (the port list on a tie)."""
    width = max(1, degree.bit_length())
    listing = BitWriter().write_bit(0)
    listing.write_uint_list([p - 1 for p in tree_ports], width)
    bitmap = BitWriter().write_bit(1)
    for p in range(1, degree + 1):
        bitmap.write_bit(1 if p in tree_ports else 0)
    return min(listing, bitmap, key=len).getvalue()


@pytest.mark.parametrize("degree", range(1, 41))
def test_encoding_matches_per_bit_reference(degree):
    rng = random.Random(degree)
    for k in sorted({0, 1, degree // 2, degree - 1, degree}):
        for _ in range(8):
            ports = sorted(rng.sample(range(1, degree + 1), k))
            bits = encode_tree_ports(ports, degree)
            assert bits == _reference_encode(ports, degree), (ports, degree)
            assert decode_tree_ports(bits, degree) == ports


def test_encoding_picks_shorter_form():
    # Tree degree 1 at a degree-100 node: list form wins.
    lone = encode_tree_ports([37], 100)
    assert len(lone) < 100
    # Tree degree = full degree at a star center: bitmap wins.
    full = encode_tree_ports(list(range(1, 101)), 100)
    assert len(full) == 101


class TestBounds:
    def test_messages_at_most_two_per_tree_edge(self):
        for seed in range(3):
            g = connected_erdos_renyi(50, 0.1, seed=seed)
            r = run_scheme(g, [0], seed=seed)
            assert r.all_awake
            assert r.messages <= 2 * (g.num_vertices - 1)

    def test_messages_linear_even_on_dense_graph(self):
        g = complete_graph(40)
        r = run_scheme(g, [0])
        assert r.messages <= 2 * 39

    def test_time_order_diameter(self):
        g = grid_graph(9, 9)
        r = run_scheme(g, [0])
        assert r.time_all_awake <= 2 * diameter(g) + 1

    def test_max_advice_linear(self):
        g = star_graph(80)
        setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
        advice = Fip06TreeAdvice().compute_advice(setup)
        assert advice.max_bits <= g.num_vertices + 2

    def test_avg_advice_logarithmic(self):
        for n in (50, 100, 200):
            g = connected_erdos_renyi(n, 6.0 / n, seed=n)
            setup = make_setup(g, knowledge=Knowledge.KT0, seed=1)
            advice = Fip06TreeAdvice().compute_advice(setup)
            assert advice.average_bits <= 8 * math.log2(n)


class TestCorrectness:
    @pytest.mark.parametrize("engine", ["async", "sync"])
    def test_all_awake_from_any_single_start(self, engine):
        g = random_tree(25, seed=2)
        for start in list(g.vertices())[::5]:
            r = run_scheme(g, [start], engine=engine)
            assert r.all_awake

    def test_multiple_wake_sources(self):
        g = grid_graph(6, 6)
        r = run_scheme(g, [0, 35, 17])
        assert r.all_awake

    def test_congest_cap_respected(self):
        g = complete_graph(30)
        r = run_scheme(g, [0])
        setup = make_setup(g, knowledge=Knowledge.KT0, bandwidth="CONGEST", seed=0)
        assert r.max_message_bits <= setup.bandwidth.cap_bits
