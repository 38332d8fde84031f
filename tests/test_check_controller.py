"""Tests for the controlled async engine loop (repro.check.controller).

The load-bearing property is *bit-identical replay*: a schedule chosen
by any controller must reproduce exactly — through a strict
ReplayController (choice replay) and through the plain, uncontrolled
engine fed the recorded per-seq delays (delay replay).  Everything the
explorer and worst-case search conclude rests on this.
"""

import pytest

from repro.check.controller import (
    DEFAULT_REPLAY_DIR,
    GUARD,
    MUTATION_SKIP_FIFO,
    STEP,
    EnabledEvent,
    RandomController,
    ReplayController,
    ReplayDelay,
    ScheduleLog,
    load_replay,
    make_replay,
    replay_is_stale,
    save_replay,
)
from repro.core import get_algorithm
from repro.errors import SimulationError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.models.knowledge import Knowledge, make_setup
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup
from repro.sim.trace import Trace


def _world(graph_fn=cycle_graph, n=4, algo="flooding", wakes=None,
           knowledge=Knowledge.KT0):
    wakes = wakes if wakes is not None else {0: 0.0}

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


def _controlled(world, ctl, trace=None):
    setup, algo, adv = world()
    return run_wakeup(
        setup, algo, adv, engine="async", seed=0,
        require_all_awake=False, trace=trace, controller=ctl,
    )


class TestControlledRun:
    def test_matches_plain_run_totals(self):
        world = _world()
        ctl = RandomController(seed=3)
        controlled = _controlled(world, ctl)
        setup, algo, adv = world()
        plain = run_wakeup(setup, algo, adv, engine="async", seed=0)
        # The schedule differs but conserved quantities must agree:
        # flooding broadcasts exactly once per node.
        assert controlled.messages == plain.messages
        assert controlled.bits == plain.bits
        assert controlled.all_awake

    def test_log_records_every_send_delay(self):
        world = _world()
        ctl = RandomController(seed=5)
        result = _controlled(world, ctl)
        # The engine's seq counter is shared: the single wake takes
        # seq 0, sends take 1..messages.
        assert set(ctl.log.delays) == set(range(1, result.messages + 1))
        assert all(0.0 < d <= 1.0 for d in ctl.log.delays.values())

    def test_controlled_run_counts_in_engine_totals(self):
        registry = MetricsRegistry()
        previous = set_global_registry(registry)
        try:
            ctl = RandomController(seed=3)
            result = _controlled(_world(), ctl)
        finally:
            set_global_registry(previous)
        counters = registry.snapshot()["counters"]
        assert counters['repro_engine_runs_total{engine="async"}'] == 1
        assert (
            counters['repro_engine_events_total{engine="async"}']
            == ctl.log.steps
        )
        assert (
            counters['repro_engine_messages_total{engine="async"}']
            == result.messages
        )

    def test_controller_rejected_on_sync_engine(self):
        world = _world(algo="flooding")
        setup, algo, adv = world()
        with pytest.raises(SimulationError, match="async"):
            run_wakeup(
                setup, algo, adv, engine="sync",
                controller=RandomController(),
            )

    def test_silent_wakes_count_against_the_event_budget(self):
        # Vertex 1 is woken by vertex 0's message long before its
        # scheduled wake at t=2, which then fires silently as the
        # controlled run's fourth event.
        world = _world(path_graph, 2, wakes={0: 0.0, 1: 2.0})
        setup, algo, adv = world()
        with pytest.raises(SimulationError, match="event budget of 3"):
            run_wakeup(setup, algo, adv, engine="async", seed=0,
                       max_events=3)
        setup, algo, adv = world()
        with pytest.raises(SimulationError, match="event budget of 3"):
            run_wakeup(
                setup, algo, adv, engine="async", seed=0,
                require_all_awake=False, max_events=3,
                controller=ReplayController([]),
            )
        setup, algo, adv = world()
        result = run_wakeup(
            setup, algo, adv, engine="async", seed=0,
            require_all_awake=False, max_events=4,
            controller=ReplayController([]),
        )
        assert result.metrics.events_processed == 4


# ----------------------------------------------------------------------
# Conformance of the incremental enabled set
# ----------------------------------------------------------------------


def _reference_oldest_deadline(loop):
    """Deadline of the oldest pending send, from a scan of every
    channel."""
    oldest = None
    for q in loop._channels.values():
        if q and (oldest is None or q[0].sent_at < oldest):
            oldest = q[0].sent_at
    return None if oldest is None else oldest + 1.0


def _reference_enabled(loop):
    """The enabled set rebuilt from scratch out of the channels and
    the wake schedule: the reference the loop's head index must
    reproduce exactly."""
    vstate = loop._engine._vstate
    if loop._mutation == MUTATION_SKIP_FIFO:
        msgs = [m for q in loop._channels.values() for m in q]
    else:
        msgs = [q[0] for q in loop._channels.values() if q]
    msgs.sort(key=lambda m: m.seq)
    enabled = []
    if loop._wake_i < len(loop._wakes):
        t_w, s_w, v_w = loop._wakes[loop._wake_i]
        d_min = _reference_oldest_deadline(loop)
        if d_min is None or d_min > t_w + GUARD:
            enabled.append(
                EnabledEvent(
                    "wake", v_w, None, s_w, t_w, t_w, None,
                    vstate[v_w][0]._awake,
                )
            )
        if loop._now + STEP >= t_w:
            return tuple(enabled)
    for m in msgs:
        enabled.append(
            EnabledEvent(
                "deliver", m.dst, m.src, m.seq, m.sent_at,
                m.sent_at + 1.0, m.payload, vstate[m.dst][0]._awake,
            )
        )
    return tuple(enabled)


class _ConformanceController(RandomController):
    """Random choices, checking every choice point against the
    from-scratch reference."""

    def __init__(self, seed, laziness, mutation):
        super().__init__(seed=seed, laziness=laziness)
        self.mutation = mutation
        self.points = 0
        self.wake_points = 0
        self.asleep_heads = 0

    def choose(self, cp):
        loop = self.loop
        expected = _reference_enabled(loop)
        assert cp.enabled == expected
        assert [ev.dst_awake for ev in cp.enabled] == [
            ev.dst_awake for ev in expected
        ]
        assert loop._oldest_deadline() == _reference_oldest_deadline(loop)
        self.points += 1
        self.wake_points += any(ev.kind == "wake" for ev in cp.enabled)
        self.asleep_heads += sum(
            ev.kind == "deliver" and not ev.dst_awake for ev in cp.enabled
        )
        return super().choose(cp)


_CONFORMANCE_WORLDS = {
    "complete4-staggered": (complete_graph, 4, "flooding",
                            {0: 0.0, 2: 0.4}),
    "cycle6-three-wakes": (cycle_graph, 6, "flooding",
                           {0: 0.0, 3: 0.5, 5: 1.5}),
    "star5-same-instant": (star_graph, 5, "flooding",
                           {1: 0.0, 2: 0.0, 3: 0.7}),
    "path5-echo": (path_graph, 5, "echo-flooding", {0: 0.0, 4: 0.9}),
    "cycle5-echo-late": (cycle_graph, 5, "echo-flooding",
                         {0: 0.0, 2: 2.5}),
}


class TestIncrementalEnabledSet:
    @pytest.mark.parametrize("mutation", [None, MUTATION_SKIP_FIFO])
    @pytest.mark.parametrize("laziness", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("world_name", sorted(_CONFORMANCE_WORLDS))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_from_scratch_reference(self, seed, world_name,
                                            laziness, mutation):
        graph_fn, n, algo, wakes = _CONFORMANCE_WORLDS[world_name]
        world = _world(graph_fn, n, algo=algo, wakes=wakes)
        ctl = _ConformanceController(seed, laziness, mutation)
        _controlled(world, ctl)
        assert ctl.points > 0
        assert ctl.log.completed

    def test_reference_exercises_wakes_and_sleeping_heads(self):
        # Guard on the matrix above: choice points offering a wake and
        # deliveries to still-asleep vertices both occur.
        wake_points = asleep_heads = 0
        for graph_fn, n, algo, wakes in _CONFORMANCE_WORLDS.values():
            ctl = _ConformanceController(0, 0.5, None)
            _controlled(_world(graph_fn, n, algo=algo, wakes=wakes), ctl)
            wake_points += ctl.wake_points
            asleep_heads += ctl.asleep_heads
        assert wake_points > 0
        assert asleep_heads > 0


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("laziness", [0.0, 0.5, 1.0])
    def test_plain_engine_replays_recorded_delays(self, laziness):
        world = _world(complete_graph, 4, wakes={0: 0.0, 2: 0.4})
        ctl = RandomController(seed=7, laziness=laziness)
        t1 = Trace()
        controlled = _controlled(world, ctl, trace=t1)

        setup, algo, adv = world()
        t2 = Trace()
        replayed = run_wakeup(
            setup, algo,
            Adversary(adv.schedule, ReplayDelay(ctl.log.delays)),
            engine="async", seed=0, require_all_awake=False, trace=t2,
        )
        assert replayed.messages == controlled.messages
        assert replayed.bits == controlled.bits
        assert replayed.time == controlled.time
        assert replayed.wake_time == controlled.wake_time
        a, b = replayed.metrics, controlled.metrics
        assert a.events_processed == b.events_processed
        assert a.wake_cause == b.wake_cause
        assert a.max_message_bits == b.max_message_bits
        assert a.first_wake == b.first_wake
        assert a.last_activity == b.last_activity
        assert t2.events
        assert list(t2.events) == list(t1.events)

    def test_strict_choice_replay_reproduces_run(self):
        world = _world(path_graph, 5, algo="echo-flooding")
        ctl = RandomController(seed=11, record_states=True)
        controlled = _controlled(world, ctl)

        replay = ReplayController(list(ctl.log.choices), strict=True)
        replay.record_states = True
        again = _controlled(world, replay)
        assert replay.log.choices == ctl.log.choices
        assert replay.log.delays == ctl.log.delays
        assert replay.log.final_state == ctl.log.final_state
        assert again.messages == controlled.messages

    def test_replay_counts_match_telemetry_event_totals(self):
        from repro.obs.recorder import Recorder

        class Capture(Recorder):
            enabled = True

            def __init__(self):
                self.events = []

            def emit(self, kind, **fields):
                self.events.append(kind)

            def close(self):
                pass

        world = _world(cycle_graph, 5)
        ctl = RandomController(seed=2)
        rec1 = Capture()
        setup, algo, adv = world()
        run_wakeup(
            setup, algo, adv, engine="async", seed=0,
            require_all_awake=False, controller=ctl, recorder=rec1,
        )
        rec2 = Capture()
        setup, algo, adv = world()
        run_wakeup(
            setup, algo,
            Adversary(adv.schedule, ReplayDelay(ctl.log.delays)),
            engine="async", seed=0, require_all_awake=False,
            recorder=rec2,
        )
        from collections import Counter

        assert Counter(rec1.events) == Counter(rec2.events)


class TestReplayControllerModes:
    def test_strict_raises_on_exhausted_choices(self):
        world = _world(complete_graph, 4)
        rand = RandomController(seed=1)
        _controlled(world, rand)
        assert len(rand.log.choices) > 1
        short = ReplayController(list(rand.log.choices)[:1], strict=True)
        with pytest.raises(SimulationError, match="exhausted"):
            _controlled(world, short)

    def test_lenient_pads_with_canonical_choice(self):
        world = _world(complete_graph, 4)
        rand = RandomController(seed=1)
        _controlled(world, rand)
        lenient = ReplayController(list(rand.log.choices)[:1])
        result = _controlled(world, lenient)
        assert result.all_awake

    def test_lenient_tolerates_out_of_range(self):
        world = _world(cycle_graph, 4)
        ctl = ReplayController([999, 999, 999])
        result = _controlled(world, ctl)
        assert result.all_awake

    def test_replay_delay_raises_on_unknown_seq(self):
        rd = ReplayDelay({0: 0.5})
        assert rd.delay(0, 1, 0.0, 0) == 0.5
        with pytest.raises(SimulationError, match="seq 1"):
            rd.delay(0, 1, 0.0, 1)


class TestLazinessKnob:
    def test_lazy_runs_stretch_time(self):
        world = _world(cycle_graph, 6)
        eager = RandomController(seed=4, laziness=0.0)
        r_eager = _controlled(world, eager)
        lazy = RandomController(seed=4, laziness=1.0)
        r_lazy = _controlled(world, lazy)
        assert r_lazy.time > r_eager.time
        assert r_lazy.messages == r_eager.messages


class TestReplayArtifacts:
    def test_roundtrip(self, tmp_path):
        world = _world()
        ctl = RandomController(seed=9)
        _controlled(world, ctl)
        _, _, adv = world()
        replay = make_replay(
            algorithm="flooding", n=4, log=ctl.log,
            schedule_times=adv.schedule.times(), seed=0,
            objective="time", score=1.5,
            workload={"graph": "cycle"},
        )
        path = save_replay(replay, tmp_path / "r.json")
        loaded = load_replay(path)
        assert loaded["choices"] == list(ctl.log.choices)
        assert loaded["delays"] == dict(ctl.log.delays)
        assert loaded["algorithm"] == "flooding"
        assert not replay_is_stale(path)
        path.write_text('{"salts": {"engine": "0"}}')
        assert replay_is_stale(path)

    @pytest.mark.parametrize(
        "algorithm", [None, "no-such-algorithm"], ids=["missing", "unknown"]
    )
    def test_replay_without_a_known_algorithm_is_stale(
        self, tmp_path, algorithm
    ):
        replay = make_replay(
            algorithm="flooding", n=4, log=ScheduleLog(),
            schedule_times={0: 0.0},
        )
        if algorithm is None:
            del replay["algorithm"]
        else:
            replay["algorithm"] = algorithm
        path = save_replay(replay, tmp_path / "r.json")
        assert replay_is_stale(path)

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"kind": "something-else"}')
        with pytest.raises(SimulationError, match="artifact"):
            load_replay(p)

    def test_default_replay_dir_is_under_results(self):
        assert "results" in str(DEFAULT_REPLAY_DIR)
