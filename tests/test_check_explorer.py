"""Tests for the bounded schedule-space explorer and the shrinker.

Covers the exhaustive sweeps CI relies on (zero violations on the
shipped algorithms at tiny n), the soundness of the two reductions
(POR on/off reach the same outcomes), the random-run containment
property, and the full mutation pipeline: plant a known bug, find the
violation exhaustively, shrink it, replay it.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import controller as controller_mod
from repro.check.controller import MUTATION_SKIP_FIFO, ReplayController
from repro.check.explorer import explore, random_probe
from repro.check.invariants import (
    CLAIMED_MESSAGE_BOUNDS,
    InvariantContext,
    MessageAccounting,
    default_invariants,
)
from repro.check.shrink import shrink_violation
from repro.check.worlds import build_check_world
from repro.core import get_algorithm
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace


def _world(graph_fn, n, algo, wakes, knowledge=Knowledge.KT0):
    def world():
        setup = make_setup(
            graph_fn(n), knowledge=knowledge, bandwidth="LOCAL", seed=1
        )
        return (
            setup,
            get_algorithm(algo),
            Adversary(WakeSchedule(dict(wakes)), UnitDelay()),
        )

    return world


class TestExhaustive:
    @pytest.mark.parametrize(
        "graph_fn,n,algo,wakes,knowledge",
        [
            (cycle_graph, 3, "flooding", {0: 0.0}, Knowledge.KT0),
            (cycle_graph, 4, "flooding", {0: 0.0}, Knowledge.KT0),
            (cycle_graph, 4, "flooding", {0: 0.0, 2: 0.3}, Knowledge.KT0),
            (star_graph, 4, "flooding", {1: 0.0}, Knowledge.KT0),
            (path_graph, 4, "echo-flooding", {0: 0.0}, Knowledge.KT0),
            (complete_graph, 3, "dfs-rank", {0: 0.0}, Knowledge.KT1),
        ],
    )
    def test_no_violations_at_tiny_n(self, graph_fn, n, algo, wakes,
                                     knowledge):
        result = explore(_world(graph_fn, n, algo, wakes, knowledge))
        assert result.completed
        assert result.stats.violations == 0
        assert result.stats.schedules >= 1

    def test_every_schedule_checked_against_claimed_bounds(self):
        # Guard: the workloads above actually exercise the bound
        # invariants (the registry names must still resolve).
        for name in CLAIMED_MESSAGE_BOUNDS:
            assert get_algorithm(name).name == name

    def test_budget_exhaustion_reported(self):
        world = _world(complete_graph, 4, "flooding", {0: 0.0})
        result = explore(world, max_schedules=3)
        assert not result.completed
        assert result.stats.schedules <= 3


class TestReductionSoundness:
    @pytest.mark.parametrize(
        "graph_fn,n,algo,wakes",
        [
            (cycle_graph, 4, "flooding", {0: 0.0}),
            (cycle_graph, 4, "flooding", {0: 0.0, 2: 0.3}),
            (path_graph, 4, "echo-flooding", {0: 0.0}),
        ],
    )
    def test_por_preserves_reachable_outcomes(self, graph_fn, n, algo,
                                              wakes):
        world = _world(graph_fn, n, algo, wakes)
        with_por = explore(world, por=True)
        without = explore(world, por=False)
        assert with_por.outcomes == without.outcomes
        assert with_por.states <= without.states
        assert with_por.stats.violations == without.stats.violations == 0
        # The reduction must actually reduce something on these shapes.
        assert with_por.stats.schedules < without.stats.schedules

    def test_dedup_only_prunes_revisits(self):
        world = _world(cycle_graph, 4, "flooding", {0: 0.0})
        deduped = explore(world, dedup=True)
        full = explore(world, dedup=False, por=False)
        assert deduped.outcomes <= full.outcomes


def _sha256(value):
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestGoldenPins:
    """Exact search results at world seed 0.  Any drift in state
    fingerprints, enabled-set order, or reductions moves a count or a
    digest here."""

    @pytest.mark.parametrize(
        "algo,graph,n,schedules,states,states_sha,outcomes_sha",
        [
            (
                "flooding", "star", 5, 15, 56,
                "acf8876a22fc47bc1335c5bbc79ceab1"
                "2d7bcd2f0c99091bea0bdaabf9222975",
                "c9b09d1836116d2c88e76d9698a1279e"
                "e4498af3037bfeafcad4e6ba376eb634",
            ),
            (
                "echo-flooding", "cycle", 4, 43, 948,
                "5e955fd2b585a290a82b8bc995cb1d5a"
                "391783987cd8f2da25220402e3037471",
                "eee1b93ff129e578ff33ff9543344d89"
                "c32c3597ea87008e269a1f9ddddf0d73",
            ),
        ],
    )
    def test_explore_counts_and_digests(self, algo, graph, n, schedules,
                                        states, states_sha, outcomes_sha):
        world, _ = build_check_world(get_algorithm(algo), n, graph=graph,
                                     seed=0)
        result = explore(world, max_schedules=5_000)
        assert result.completed
        assert result.stats.violations == 0
        assert result.stats.schedules == schedules
        assert len(result.states) == states
        assert _sha256(sorted(result.states)) == states_sha
        assert _sha256(sorted(result.outcomes)) == outcomes_sha

    @pytest.mark.parametrize(
        "graph_fn,n,wakes,schedules,states,states_digest,outcomes_digest",
        [
            (complete_graph, 3, {0: 0.0}, 1, 6,
             "6955532e00a091d8", "87e95b3626eac4f6"),
            (cycle_graph, 4, {0: 0.0, 2: 0.3}, 6, 32,
             "65da284c4f3f18a2", "4a6b20e80a5da5b6"),
        ],
    )
    def test_dfs_rank_explore_pins(self, graph_fn, n, wakes, schedules,
                                   states, states_digest, outcomes_digest):
        # dfs-rank's channel states hold the token's visited list, so
        # these pin its normal form in the state fingerprints.
        def digest(values):
            blob = repr(sorted(values)).encode("utf-8")
            return hashlib.sha256(blob).hexdigest()[:16]

        result = explore(
            _world(graph_fn, n, "dfs-rank", wakes, Knowledge.KT1)
        )
        assert result.completed
        assert result.stats.violations == 0
        assert result.stats.schedules == schedules
        assert len(result.states) == states
        assert digest(result.states) == states_digest
        assert digest(result.outcomes) == outcomes_digest

    def test_replayed_prefixes_are_not_refingerprinted(self, monkeypatch):
        # Every run retraces its parent's choice points up to the
        # branch point; only the rest (and final states) are hashed.
        # Re-hashing the prefixes too took 6,210 calls here.
        calls = []
        original = controller_mod._ControlledLoop.fingerprint

        def counting(loop):
            calls.append(1)
            return original(loop)

        monkeypatch.setattr(
            controller_mod._ControlledLoop, "fingerprint", counting
        )
        world, _ = build_check_world(get_algorithm("echo-flooding"), 4,
                                     graph="cycle", seed=0)
        result = explore(world, max_schedules=5_000)
        assert len(result.states) == 948
        assert len(calls) == 1_770


class TestContainment:
    """Satellite: random interleavings stay inside the exhaustive set."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        laziness=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    def test_random_runs_contained_in_exhaustive_set(self, seed,
                                                     laziness):
        world = _world(cycle_graph, 4, "flooding", {0: 0.0, 2: 0.3})
        reference = _exhaustive_reference(world)
        visited, outcome = random_probe(world, seed=seed,
                                        laziness=laziness)
        assert outcome in reference.outcomes
        assert visited <= reference.states


_REFERENCE_CACHE = {}


def _exhaustive_reference(world):
    # POR off: the containment property is against the *full* reachable
    # set, not the reduced one.  Cached — hypothesis calls this per
    # example and the workload is fixed.
    key = "cycle4-2wakes"
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = explore(world, por=False)
    return _REFERENCE_CACHE[key]


class TestMutationPipeline:
    """Satellite: plant a bug, find it, shrink it, replay it."""

    def test_skip_fifo_found_and_shrunk(self):
        world = _world(path_graph, 4, "echo-flooding", {0: 0.0})
        found = explore(world, mutation=MUTATION_SKIP_FIFO,
                        max_schedules=5_000)
        assert found.stats.violations > 0
        v = next(
            fv for fv in found.violations
            if fv.invariant == "fifo-per-channel"
        )

        outcome = shrink_violation(
            world,
            v.choices,
            v.invariant,
            invariants=default_invariants("echo-flooding"),
            mutation=MUTATION_SKIP_FIFO,
        )
        assert outcome.final_length <= len(v.choices)
        assert outcome.final_length <= 3  # tiny witness on this shape
        assert outcome.reduction >= 0.0

        # The shrunk witness replays: a fresh run under the same
        # mutation violates the same invariant.
        setup, algo, adv = world()
        ctl = ReplayController(
            list(outcome.choices), mutation=MUTATION_SKIP_FIFO
        )
        trace = Trace()
        result = run_wakeup(
            setup, algo, adv, engine="async", seed=0,
            require_all_awake=False, trace=trace, controller=ctl,
        )
        ictx = InvariantContext(
            setup=setup, adversary=adv, result=result, trace=trace,
            log=ctl.log,
        )
        hits = [
            inv.name
            for inv in default_invariants("echo-flooding")
            if inv.check(ictx) is not None
        ]
        assert "fifo-per-channel" in hits

    def test_mutation_free_run_has_no_fifo_violation(self):
        world = _world(path_graph, 4, "echo-flooding", {0: 0.0})
        clean = explore(world, max_schedules=5_000)
        assert clean.stats.violations == 0

    def test_shrink_rejects_non_reproducing_witness(self):
        world = _world(cycle_graph, 4, "flooding", {0: 0.0})
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_violation(
                world,
                (0, 0),
                "fifo-per-channel",
                invariants=default_invariants("flooding"),
            )


class TestMessageAccounting:
    """The invariant holds the metrics' message and bit totals to the
    traced sends, and every delivery to a traced send."""

    def _ctx(self):
        setup, algo, adv = _world(path_graph, 4, "flooding", {0: 0.0})()
        trace = Trace()
        result = run_wakeup(
            setup, algo, adv, engine="async", seed=0, trace=trace
        )
        return InvariantContext(
            setup=setup, adversary=adv, result=result, trace=trace
        )

    def test_honest_run_passes(self):
        assert MessageAccounting().check(self._ctx()) is None

    def test_forged_message_total_flagged(self):
        ctx = self._ctx()
        ctx.result.metrics.messages_total += 1
        assert "sends but metrics charge" in MessageAccounting().check(ctx)

    def test_forged_bit_total_flagged(self):
        ctx = self._ctx()
        ctx.result.metrics.bits_total += 1
        assert "bits but metrics charge" in MessageAccounting().check(ctx)

    def test_delivery_of_unsent_seq_flagged(self):
        ctx = self._ctx()
        msg = ctx.trace.deliveries()[-1]
        ctx.trace.deliver(msg.sent_at + 1.0, msg._replace(seq=10_000))
        assert MessageAccounting().check(ctx) == (
            "delivered message seq 10000 was never sent"
        )


class TestTelemetry:
    def test_check_stats_event_emitted(self):
        events = []

        class Capture:
            enabled = True

            def emit(self, kind, **fields):
                events.append((kind, fields))

        world = _world(cycle_graph, 3, "flooding", {0: 0.0})
        explore(world, recorder=Capture())
        kinds = [k for k, _ in events]
        assert kinds == ["check_stats"]
        _, fields = events[0]
        assert fields["violations"] == 0
        assert fields["completed"] is True
        assert fields["schedules"] >= 1
