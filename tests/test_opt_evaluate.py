"""Executor-cell candidate evaluation (repro.opt.evaluate) and the
cell-routed random baseline (repro.check.worstcase).

The load-bearing properties:

* a ``check_world`` cell is bit-compatible with the checker's own
  world builder + ``run_wakeup`` at the same seeds;
* the cell-routed ``random_baseline`` path is bit-identical to the
  serial loop it replaces;
* candidate populations actually flow through the executor (dedup, the
  on-disk cache, metrics).
"""

import pytest

from repro.check.worlds import build_check_world
from repro.check.worstcase import (
    _score,
    baseline_trial_specs,
    random_baseline,
)
from repro.core.registry import get_algorithm
from repro.errors import SimulationError
from repro.experiments.parallel import ParallelSweepExecutor, cell_key
from repro.obs.metrics import MetricsRegistry, set_global_registry
from repro.opt.evaluate import (
    CellEvaluator,
    check_world_spec,
    controlled_log_for,
    optimize,
    workload_spec,
)
from repro.opt.genomes import (
    ChoicePrefixGenome,
    DelayVectorGenome,
    DelayVectorSpace,
)
from repro.opt.optimizers import make_optimizer
from repro.sim.adversary import Adversary, UniformRandomDelay
from repro.sim.runner import run_wakeup


def serial_executor(tmp_path, **kw):
    return ParallelSweepExecutor(
        workers=0, cache_dir=tmp_path / "cache",
        topology_dir=tmp_path / "topo", **kw
    )


class TestCheckWorldSpec:
    @pytest.mark.parametrize("graph", ["star", "cycle", "er"])
    def test_cell_matches_direct_check_world_run(self, graph, tmp_path):
        """One executor cell == build_check_world + run_wakeup, bit
        for bit, under the shared seed convention."""
        algo = get_algorithm("flooding")
        n, seed = 12, 5
        world, _times = build_check_world(
            algo, n, graph=graph, awake=2, stagger=0.25, seed=seed
        )
        setup, algorithm, adversary = world()
        randomized = Adversary(
            adversary.schedule, UniformRandomDelay(seed=99)
        )
        direct = run_wakeup(
            setup, algorithm, randomized, engine="async", seed=seed,
            require_all_awake=False,
        )

        spec = check_world_spec(
            "flooding", n, graph=graph, awake=2, stagger=0.25,
            seed=seed,
        )
        # build_check_world folds the stagger into the wake schedule;
        # the spec carries it in the schedule field.
        from dataclasses import replace

        spec = replace(
            spec,
            schedule={"kind": "staggered", "stagger": 0.25},
            delay={"kind": "uniform", "seed": 99},
        )
        out = serial_executor(tmp_path).run([spec])[0]
        assert out.result is not None, out.error
        assert out.result.messages == direct.messages
        assert out.result.bits == direct.bits
        assert out.result.time == direct.time

    def test_workload_spec_traits_follow_algorithm(self):
        spec = workload_spec(
            "dfs-rank", {"kind": "er_graph", "degree": 3.0}, 32
        )
        assert spec.knowledge == "KT1"  # dfs-rank requires KT1
        assert spec.bandwidth == "LOCAL"
        assert spec.engine == "async"
        assert spec.setup_seed == spec.seed + 2
        assert spec.exec_seed == spec.seed


class TestCellRoutedBaseline:
    @pytest.mark.parametrize("graph", ["star", "cycle", "er"])
    @pytest.mark.parametrize("objective", ["time", "messages"])
    def test_bit_identical_to_serial_loop(
        self, graph, objective, tmp_path
    ):
        algo = get_algorithm("flooding")
        n, seed = 10, 3
        world, _ = build_check_world(algo, n, graph=graph, seed=seed)
        serial = random_baseline(
            world, objective, trials=6, seed=seed
        )
        routed = random_baseline(
            None,
            objective,
            trials=6,
            seed=seed,
            executor=serial_executor(tmp_path),
            base_spec=check_world_spec(
                "flooding", n, graph=graph, seed=seed
            ),
        )
        assert routed == serial

    def test_needs_both_executor_and_spec(self, tmp_path):
        with pytest.raises(SimulationError):
            random_baseline(
                None, "time", executor=serial_executor(tmp_path)
            )
        with pytest.raises(SimulationError):
            random_baseline(
                None, "time",
                base_spec=check_world_spec("flooding", 8),
            )

    def test_trial_specs_share_the_world(self):
        base = check_world_spec("flooding", 16, seed=4)
        specs = baseline_trial_specs(base, trials=5, seed=4)
        assert len(specs) == 5
        assert len({s.delay["seed"] for s in specs}) == 5
        for s in specs:
            assert s.setup_seed == base.setup_seed
            assert s.exec_seed == 4
            assert s.delay["kind"] == "uniform"
            assert not s.require_all_awake
        # Distinct trials are distinct cells (no accidental cache
        # collapse).
        assert len({cell_key(s) for s in specs}) == 5


class TestCellEvaluator:
    def test_in_generation_dedup(self, tmp_path):
        base = check_world_spec("flooding", 8)
        ev = CellEvaluator(serial_executor(tmp_path), base, "time")
        g = DelayVectorGenome((0.5, 0.9))
        h = DelayVectorGenome((0.9, 0.5))
        scores = ev.evaluate([g, h, g, g])
        assert ev.evaluations == 2
        assert ev.dedup_hits == 2
        assert scores[0] == scores[2] == scores[3]
        assert all(s is not None for s in scores)

    def test_controlled_genomes_fold_check_salt(self):
        from repro.experiments.parallel import _cell_salts

        base = check_world_spec("flooding", 8)
        ev = CellEvaluator(
            ParallelSweepExecutor(workers=0, use_cache=False),
            base,
            "time",
        )
        plain = ev.spec_for(DelayVectorGenome((0.5,)))
        controlled = ev.spec_for(ChoicePrefixGenome((0, 1, 0)))
        assert "check" not in _cell_salts(plain)
        assert "check" in _cell_salts(controlled)

    def test_controlled_log_matches_cell_score(self, tmp_path):
        base = check_world_spec("flooding", 8)
        ev = CellEvaluator(serial_executor(tmp_path), base, "time")
        genome = ChoicePrefixGenome((1, 0, 2, 1), laziness=1.0)
        (score,) = ev.evaluate([genome])
        result, log = controlled_log_for(ev.spec_for(genome))
        assert _score("time", result) == score
        assert log.delays  # the replay contract's raw material


class TestOptimizeLoop:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        """The acceptance property: candidate evaluation demonstrably
        runs through the executor — a warm second run of the same
        search touches only the on-disk cell cache."""
        base = check_world_spec("flooding", 10)

        def search():
            registry = MetricsRegistry()
            previous = set_global_registry(registry)
            try:
                opt = make_optimizer(
                    "cem", DelayVectorSpace(length=8), seed=6
                )
                ev = CellEvaluator(
                    serial_executor(tmp_path), base, "time"
                )
                outcome = optimize(
                    opt, ev, generations=3, population=6
                )
            finally:
                set_global_registry(previous)
            snap = registry.snapshot()["counters"]
            hits = misses = 0
            for key, value in snap.items():
                if key.startswith('repro_executor_cells_total{cached="yes"'):
                    hits += value
                elif key.startswith('repro_executor_cells_total{cached="no"'):
                    misses += value
            return outcome, hits, misses

        cold, cold_hits, cold_misses = search()
        warm, warm_hits, warm_misses = search()
        assert cold_misses > 0
        assert warm_hits > 0
        assert warm_misses == 0  # deterministic search, warm cache
        assert warm.best_score == cold.best_score
        assert warm.best_genome == cold.best_genome

    def test_metrics_and_telemetry(self, tmp_path):
        from repro.obs.recorder import JsonlRecorder

        base = check_world_spec("flooding", 8)
        registry = MetricsRegistry()
        previous = set_global_registry(registry)
        telemetry = tmp_path / "events.jsonl"
        try:
            recorder = JsonlRecorder(telemetry)
            opt = make_optimizer(
                "sa", DelayVectorSpace(length=4), seed=0
            )
            ev = CellEvaluator(serial_executor(tmp_path), base, "time")
            outcome = optimize(
                opt, ev, generations=2, population=4,
                recorder=recorder,
            )
            recorder.close()
        finally:
            set_global_registry(previous)
        assert outcome.generations == 2
        counters = registry.snapshot()["counters"]
        assert (
            counters['repro_opt_generations_total{optimizer="sa"}'] == 2
        )
        assert (
            counters['repro_opt_evaluations_total{optimizer="sa"}'] == 8
        )
        import json

        events = [
            json.loads(line)
            for line in telemetry.read_text().splitlines()
        ]
        gens = [e for e in events if e["kind"] == "opt_generation"]
        assert [e["generation"] for e in gens] == [0, 1]
        assert all(e["optimizer"] == "sa" for e in gens)

    def test_rejects_degenerate_budgets(self, tmp_path):
        from repro.errors import ReproError

        base = check_world_spec("flooding", 8)
        opt = make_optimizer("cem", DelayVectorSpace(length=4))
        ev = CellEvaluator(serial_executor(tmp_path), base, "time")
        with pytest.raises(ReproError):
            optimize(opt, ev, generations=0)
        with pytest.raises(ReproError):
            optimize(opt, ev, population=0)
