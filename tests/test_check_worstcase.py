"""Tests for the worst-case schedule search (repro.check.worstcase).

The acceptance bar: on a lower-bound topology the searched adversary
meets or beats the best UniformRandomDelay sample at the same size,
and the found schedule replays bit-identically through the plain
engine (satellite: worst schedule as a first-class artifact).
"""

import hashlib
import json

import pytest

from repro.check.controller import (
    ReplayController,
    ReplayDelay,
    replay_mismatch,
)
from repro.check.worlds import build_class_g_world
from repro.check.worstcase import (
    GREEDY_POLICIES,
    random_baseline,
    worstcase_search,
)
from repro.core import get_algorithm
from repro.errors import SimulationError
from repro.graphs.generators import cycle_graph
from repro.lowerbounds.graph_g import build_class_g
from repro.models.knowledge import Knowledge, make_setup
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace


def _classg_world(n, algo="flooding"):
    def world():
        cg = build_class_g(n)
        setup = cg.make_setup(
            seed=1, bandwidth="LOCAL", knowledge=Knowledge.KT0
        )
        sched = WakeSchedule({v: 0.0 for v in cg.centers})
        return (
            setup,
            get_algorithm(algo),
            Adversary(sched, UnitDelay()),
        )

    return world


def _cycle_world(n):
    def world():
        setup = make_setup(
            cycle_graph(n), knowledge=Knowledge.KT0, bandwidth="LOCAL",
            seed=1,
        )
        return (
            setup,
            get_algorithm("flooding"),
            Adversary(WakeSchedule({0: 0.0}), UnitDelay()),
        )

    return world


class TestSearch:
    def test_beats_random_baseline_on_classg(self):
        world = _classg_world(6)
        wc = worstcase_search(world, "time", beam_width=3, horizon=8,
                              branch_cap=2)
        baseline = random_baseline(world, "time", trials=24, seed=5)
        assert wc.score >= baseline

    def test_beats_random_baseline_on_cycle(self):
        world = _cycle_world(8)
        wc = worstcase_search(world, "time")
        baseline = random_baseline(world, "time", trials=24, seed=5)
        assert wc.score >= baseline
        # A lazy adversary on a cycle approaches one tau per hop:
        # time close to the n/2 eccentricity, far beyond random delays.
        assert wc.score > 0.9 * 4

    def test_greedy_scores_reported_for_all_policies(self):
        wc = worstcase_search(_cycle_world(6), "time", beam_width=0)
        assert set(wc.greedy_scores) == set(GREEDY_POLICIES)
        assert wc.score == max(wc.greedy_scores.values())

    def test_messages_objective_uses_eager_times(self):
        wc = worstcase_search(_classg_world(4), "messages",
                              beam_width=2, horizon=4)
        assert wc.laziness == 0.0
        assert wc.score == wc.result.messages

    def test_unknown_objective_rejected(self):
        with pytest.raises(SimulationError, match="objective"):
            worstcase_search(_cycle_world(4), "latency")


class TestGoldenPin:
    def test_classg8_search_is_exact(self):
        # World seed 0; any drift in enabled-set order, dst_awake
        # flags or lazy delivery times moves one of these.
        world, _ = build_class_g_world(get_algorithm("flooding"), 8,
                                       seed=0)
        wc = worstcase_search(world, "time", beam_width=4, horizon=8,
                              branch_cap=2)
        assert wc.score == 2.0
        assert wc.policy == "feed-awake"
        assert wc.evaluations == 57
        assert wc.greedy_scores == {
            "head": 1.999000069999998,
            "fifo": 1.999000069999998,
            "lifo": 1.0,
            "feed-awake": 2.0,
        }
        assert len(wc.choices) == 142
        blob = json.dumps(list(wc.choices), separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
            "729efbe38a061be3e4e7a6703e290919"
            "16658cde00ee81c5629b78b1fac04fd6"
        )


class TestWorstScheduleReplay:
    """Satellite: the worst schedule is a replayable artifact."""

    @pytest.mark.parametrize("objective", ["time", "messages"])
    def test_plain_engine_replay_is_bit_identical(self, objective):
        world = _classg_world(6)
        wc = worstcase_search(world, objective, beam_width=3,
                              horizon=6, branch_cap=2)

        setup, algo, adv = world()
        trace = Trace()
        replayed = run_wakeup(
            setup, algo,
            Adversary(adv.schedule, ReplayDelay(wc.delays)),
            engine="async", seed=0, require_all_awake=False,
            trace=trace,
        )
        assert replayed.messages == wc.result.messages
        assert replayed.bits == wc.result.bits
        assert replayed.time == wc.result.time
        assert (
            replayed.metrics.events_processed
            == wc.result.metrics.events_processed
        )

    def test_strict_choice_replay_reproduces_score(self):
        world = _cycle_world(8)
        wc = worstcase_search(world, "time")
        setup, algo, adv = world()
        ctl = ReplayController(
            list(wc.choices), strict=True, laziness=wc.laziness
        )
        replayed = run_wakeup(
            setup, algo, adv, engine="async", seed=0,
            require_all_awake=False, controller=ctl,
        )
        assert replayed.time == wc.score

    def test_replay_mismatch_names_what_diverged(self):
        want = {"messages": 12, "bits": 96, "time": 2.5}
        assert replay_mismatch(dict(want), want) == ""
        assert replay_mismatch({**want, "time": 2.5 + 5e-13}, want) == ""
        assert replay_mismatch({**want, "bits": 97}, want).startswith(
            "bits diverged"
        )
        assert replay_mismatch({**want, "time": 2.5 + 1e-9}, want).startswith(
            "time diverged"
        )


class TestTelemetry:
    def test_worstcase_stats_event(self):
        events = []

        class Capture:
            enabled = True

            def emit(self, kind, **fields):
                events.append((kind, fields))

        wc = worstcase_search(
            _cycle_world(6), "time", beam_width=2, horizon=4,
            recorder=Capture(),
        )
        assert [k for k, _ in events] == ["worstcase_stats"]
        _, fields = events[0]
        assert fields["best_score"] == wc.score
        assert fields["evaluations"] == wc.evaluations
        assert fields["objective"] == "time"
