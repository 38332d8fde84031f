"""Tests for the metrics layer (`repro.obs.metrics`) and integrations.

The guarantees under test, matching docs/observability.md:

* **instruments** — counters only go up, gauges keep last/max,
  histograms bucket with `le` semantics into fixed bounds;
* **determinism** — two identical runs produce bit-identical
  ``snapshot(deterministic_only=True)`` dicts, and enabling metrics
  never changes a run's result rows (metrics observe, they never
  participate);
* **merge / fork-exactness** — worker registry deltas shipped through
  the ``CellOutcome`` path sum to exactly the inline-execution
  registry, including sweeps with crashed and timed-out cells, and
  cached cells contribute nothing;
* **exporters** — the Prometheus rendering is cumulative and
  self-consistent, quantile estimation interpolates buckets, and
  ``validate_snapshot`` rejects malformed payloads;
* **dashboard** — ``render_top`` summarizes executor/cache/engine
  series; ``TopView`` speaks the executor progress protocol.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core.registry import get_algorithm
from repro.experiments.parallel import CellSpec, ParallelSweepExecutor
from repro.graphs.compile import clear_memory_cache
from repro.graphs.generators import connected_erdos_renyi
from repro.models.knowledge import Knowledge, make_setup
from repro.obs.metrics import (
    CATALOG,
    NULL_REGISTRY,
    ROUND_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
    histogram_quantile,
    is_timing,
    parse_series_key,
    render_prometheus,
    series_key,
    set_global_registry,
    validate_snapshot,
)
from repro.obs.top import TopView, render_top
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup

FAULT_ALGOS = "tests.test_parallel_executor"


def _small_run(engine="async", algorithm="flooding", n=24):
    algo = get_algorithm(algorithm)
    graph = connected_erdos_renyi(n, 4.0 / (n - 1), seed=3)
    knowledge = Knowledge.KT1 if algo.requires_kt1 else Knowledge.KT0
    bandwidth = "CONGEST" if algo.congest_safe else "LOCAL"
    setup = make_setup(graph, knowledge=knowledge, bandwidth=bandwidth,
                       seed=5)
    v0 = next(iter(graph.vertices()))
    adversary = Adversary(WakeSchedule.all_at_once([v0]), UnitDelay())
    return run_wakeup(setup, algo, adversary, engine=engine, seed=9)


def _cells(count=4, algorithm="flooding", **kw):
    return [
        CellSpec(
            algorithm=algorithm,
            n=16 + 8 * (i % 2),
            trial=i // 2,
            seed=1,
            engine="async",
            knowledge="KT0",
            bandwidth="CONGEST",
            workload={"kind": "er_single_wake", "avg_degree": 3.0,
                      "seed": 1},
            **kw,
        )
        for i in range(count)
    ]


def _fault_cell(algorithm, **kw):
    return CellSpec(
        algorithm=algorithm,
        n=12,
        seed=1,
        engine="async",
        knowledge="KT0",
        bandwidth="CONGEST",
        workload={"kind": "er_single_wake", "avg_degree": 3.0, "seed": 1},
        **kw,
    )


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_engine_messages_total", engine="async")
        c.inc()
        c.inc(41.0)
        assert c.value == 42.0
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_gauge_set_and_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_executor_workers")
        g.set(4)
        g.max(2)
        assert g.value == 4.0
        g.max(8)
        assert g.value == 8.0

    def test_histogram_le_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_engine_frontier_size", engine="sync")
        assert h.bounds == SIZE_BUCKETS
        h.observe(1)      # == bounds[0] -> first bucket (le semantics)
        h.observe(1.5)    # -> (1, 2] bucket
        h.observe(2**21)  # beyond the last bound -> +Inf bucket
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[-1] == 1
        assert h.count == 3

    def test_same_labels_return_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_runs_total", algorithm="flooding",
                        engine="async")
        b = reg.counter("repro_runs_total", engine="async",
                        algorithm="flooding")
        assert a is b  # label order never splits a series

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("x_total")

    def test_series_key_round_trip(self):
        key = series_key("m", {"b": "2", "a": "1"})
        assert key == 'm{a="1",b="2"}'
        assert parse_series_key(key) == ("m", {"a": "1", "b": "2"})
        assert parse_series_key("bare") == ("bare", {})

    def test_null_registry_is_inert(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x_total").inc()
        NULL_REGISTRY.gauge("y").set(3)
        NULL_REGISTRY.histogram("z").observe(1)
        snap = NULL_REGISTRY.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_catalog_names_follow_conventions(self):
        for name, meta in CATALOG.items():
            if meta["type"] == "counter":
                assert name.endswith("_total"), name
            if is_timing(name):
                assert meta["type"] in ("histogram", "gauge")


# ----------------------------------------------------------------------
# Snapshot & merge
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def test_snapshot_round_trips_through_merge(self):
        reg = MetricsRegistry()
        reg.counter("a_total", k="v").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        other = MetricsRegistry()
        other.merge_snapshot(json.loads(json.dumps(reg.snapshot())))
        assert other.snapshot() == reg.snapshot()

    def test_merge_adds_counters_and_buckets_maxes_gauges(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        reg.merge_snapshot(snap)
        merged = reg.snapshot()
        assert merged["counters"]["a_total"] == 6.0
        assert merged["gauges"]["g"] == 7.0  # max, not sum
        assert merged["histograms"]["h"]["counts"] == [0, 2, 0]
        assert merged["histograms"]["h"]["count"] == 2

    def test_merge_rejects_mismatched_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            reg.merge_snapshot(
                {"histograms": {"h": {"le": [1.0, 4.0],
                                      "counts": [0, 0, 1],
                                      "sum": 3.0, "count": 1}}}
            )

    def test_deterministic_only_drops_seconds_families(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.histogram("repro_phase_seconds", phase="engine").observe(0.1)
        reg.gauge("repro_executor_wall_seconds").set(0.5)
        snap = reg.snapshot(deterministic_only=True)
        assert "a_total" in snap["counters"]
        assert snap["histograms"] == {}
        assert snap["gauges"] == {}

    def test_global_registry_swap_returns_previous(self):
        reg = MetricsRegistry()
        prev = set_global_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            assert set_global_registry(prev) is reg
        assert get_registry() is prev


# ----------------------------------------------------------------------
# Determinism: bit-identical snapshots, untouched result rows
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("engine,algorithm", [
        ("async", "flooding"),
        ("sync", "fast-wakeup"),
    ])
    def test_identical_runs_snapshot_identically(self, engine, algorithm):
        snaps = []
        for _ in range(2):
            registry = MetricsRegistry()
            previous = set_global_registry(registry)
            try:
                _small_run(engine=engine, algorithm=algorithm)
            finally:
                set_global_registry(previous)
            snaps.append(registry.snapshot(deterministic_only=True))
        assert json.dumps(snaps[0], sort_keys=True) == json.dumps(
            snaps[1], sort_keys=True
        )
        # and the run actually registered
        runs = {
            k: v for k, v in snaps[0]["counters"].items()
            if k.startswith("repro_engine_runs_total")
        }
        assert sum(runs.values()) == 1

    @pytest.mark.parametrize("engine,algorithm", [
        ("async", "flooding"),
        ("sync", "fast-wakeup"),
        ("async", "dfs-rank"),
    ])
    def test_metrics_never_change_result_rows(self, engine, algorithm):
        baseline = _small_run(engine=engine, algorithm=algorithm)
        registry = MetricsRegistry()
        previous = set_global_registry(registry)
        try:
            observed = _small_run(engine=engine, algorithm=algorithm)
        finally:
            set_global_registry(previous)
        for field in ("messages", "bits", "time", "time_all_awake",
                      "all_awake", "advice_max_bits"):
            assert getattr(observed, field) == getattr(baseline, field)
        assert registry.snapshot()["counters"]  # metrics were live


# ----------------------------------------------------------------------
# Fork aggregation through the executor
# ----------------------------------------------------------------------
class TestExecutorAggregation:
    def _run(self, cells, registry, **kw):
        """Run ``cells`` uncached, counting into ``registry`` (installed
        as the global registry; the ``live_registry`` fixture restores
        the previous one)."""
        clear_memory_cache()
        set_global_registry(registry)
        return ParallelSweepExecutor(use_cache=False, **kw).run(cells)

    def test_fork_deltas_match_inline_exactly(self, live_registry):
        cells = _cells(4)
        inline, forked = live_registry, MetricsRegistry()
        self._run(cells, inline, workers=0)
        self._run(cells, forked, workers=2)

        def engine_series(reg):
            return {
                k: v
                for k, v in reg.snapshot(
                    deterministic_only=True
                )["counters"].items()
                if k.startswith(("repro_engine_", "repro_runs_total",
                                 "repro_run_"))
            }

        assert engine_series(forked) == engine_series(inline)
        assert engine_series(inline)  # non-empty

    def test_crash_and_timeout_cells_are_counted(self, live_registry):
        cells = (
            _cells(2)
            + [_fault_cell(f"{FAULT_ALGOS}:KillerAlgo")]
            + [_fault_cell(f"{FAULT_ALGOS}:SleeperAlgo", trial=1)]
        )
        registry = live_registry
        out = self._run(
            cells, registry, workers=2, cell_timeout=1.0
        )
        assert sorted(o.status for o in out) == [
            "crashed", "ok", "ok", "timeout"
        ]
        counters = registry.snapshot()["counters"]

        def total(name, **labels):
            acc = 0.0
            for key, value in counters.items():
                n, lbl = parse_series_key(key)
                if n == name and all(
                    lbl.get(k) == v for k, v in labels.items()
                ):
                    acc += value
            return acc

        assert total("repro_executor_cells_total") == 4
        assert total("repro_executor_cells_total", status="ok") == 2
        assert total("repro_executor_cells_total", status="crashed") == 1
        assert total("repro_executor_cells_total", status="timeout") == 1
        assert total("repro_executor_cell_retries_total") >= 1
        # only the two good cells completed an engine run; the crashed
        # worker shipped no delta and the timed-out cell never finished
        assert total("repro_engine_runs_total") == 2

    def test_cached_cells_contribute_no_engine_counters(
        self, tmp_path, live_registry
    ):
        cells = _cells(4)
        kw = dict(workers=0, cache_dir=tmp_path / "cache",
                  use_cache=True)
        clear_memory_cache()
        ParallelSweepExecutor(**kw).run(cells)
        clear_memory_cache()
        warm = MetricsRegistry()
        set_global_registry(warm)
        ex = ParallelSweepExecutor(**kw)
        out = ex.run(cells)
        assert all(o.cached for o in out)
        counters = warm.snapshot()["counters"]
        assert not any(
            k.startswith("repro_engine_") for k in counters
        )
        # hit-rate series match the executor's own stats exactly
        hit_key = 'repro_cellcache_fetch_total{outcome="hit"}'
        miss_key = 'repro_cellcache_fetch_total{outcome="miss"}'
        assert counters[hit_key] == ex.stats["cached"] == len(cells)
        assert counters.get(miss_key, 0) == 0
        cached_key = (
            'repro_executor_cells_total{cached="yes",status="ok"}'
        )
        assert counters[cached_key] == len(cells)

    def test_results_identical_with_metrics_on_and_off(
        self, live_registry
    ):
        cells = _cells(4)
        plain = self._run(cells, NULL_REGISTRY, workers=2)
        metered = self._run(cells, live_registry, workers=2)
        assert [o.status for o in plain] == [o.status for o in metered]
        # Deterministic result scalars are bit-identical; only the
        # wall-clock phase profile may differ between any two runs.
        for a, b in zip(plain, metered):
            for field in ("messages", "bits", "max_message_bits",
                          "time", "time_all_awake", "all_awake",
                          "advice_max_bits", "wake_time"):
                assert getattr(a.result, field) == getattr(
                    b.result, field
                )
            assert (a.result.metrics.messages_total
                    == b.result.metrics.messages_total)
            assert (a.result.metrics.edge_messages
                    == b.result.metrics.edge_messages)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("repro_engine_messages_total", engine="async").inc(64)
        reg.gauge("repro_executor_workers").set(2)
        h = reg.histogram("repro_run_time", algorithm="flooding",
                          engine="async")
        for v in (1.0, 3.0, 5.0):
            h.observe(v)
        return reg

    def test_prometheus_rendering_shape(self):
        text = render_prometheus(self._populated().snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_engine_messages_total counter" in lines
        assert "# TYPE repro_executor_workers gauge" in lines
        assert "# TYPE repro_run_time histogram" in lines
        assert 'repro_engine_messages_total{engine="async"} 64' in lines
        # buckets are cumulative and end at +Inf == _count
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("repro_run_time_bucket")
        ]
        assert buckets == sorted(buckets)
        assert buckets[-1] == 3
        assert any(
            'le="+Inf"' in line
            for line in lines
            if line.startswith("repro_run_time_bucket")
        )
        count_line = [
            line for line in lines
            if line.startswith("repro_run_time_count")
        ]
        assert count_line and count_line[0].endswith(" 3")
        # HELP text comes from the catalog
        assert any(
            line.startswith("# HELP repro_engine_messages_total")
            for line in lines
        )

    def test_quantiles_interpolate_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_run_messages", buckets=ROUND_BUCKETS)
        for v in (1, 3, 900, 2**21):
            h.observe(v)
        snap = reg.snapshot()["histograms"]["repro_run_messages"]
        assert histogram_quantile(snap, 0.50) == pytest.approx(4.0)
        # +Inf observations clamp to the largest finite bound
        assert histogram_quantile(snap, 1.0) == ROUND_BUCKETS[-1]
        assert histogram_quantile(
            {"le": [1.0], "counts": [0, 0], "sum": 0, "count": 0}, 0.5
        ) == 0.0

    def test_validate_snapshot_accepts_real_and_rejects_broken(self):
        snap = self._populated().snapshot()
        assert validate_snapshot(json.loads(json.dumps(snap))) == []
        assert validate_snapshot([]) != []
        assert validate_snapshot({}) != []
        bad = json.loads(json.dumps(snap))
        bad["counters"]["x_total"] = -1
        assert any("negative" in e for e in validate_snapshot(bad))
        bad = json.loads(json.dumps(snap))
        key = next(iter(bad["histograms"]))
        bad["histograms"][key]["counts"].append(7)
        assert validate_snapshot(bad) != []
        bad = json.loads(json.dumps(snap))
        bad["histograms"][key]["count"] = 999
        assert any("bucket sum" in e for e in validate_snapshot(bad))


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
class TestTop:
    def _sweep_snapshot(self, tmp_path, registry):
        clear_memory_cache()
        ParallelSweepExecutor(
            workers=0, cache_dir=tmp_path / "cache", use_cache=True,
        ).run(_cells(2))
        return registry.snapshot()

    def test_render_top_summarizes_sweep(self, tmp_path, live_registry):
        frame = render_top(self._sweep_snapshot(tmp_path, live_registry))
        assert "executor   cells 2 (ok 2" in frame
        assert "caches" in frame
        assert "engines    runs 2" in frame

    def test_render_top_rates_against_previous_frame(
        self, tmp_path, live_registry
    ):
        snap = self._sweep_snapshot(tmp_path, live_registry)
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        frame = render_top(snap, prev=empty, dt=2.0)
        assert "rate 1.0/s" in frame

    def test_topview_speaks_progress_protocol(self, live_registry):
        buf = io.StringIO()
        view = TopView(
            stream=buf, registry=live_registry, min_interval=0.0
        )
        clear_memory_cache()
        ParallelSweepExecutor(
            workers=0, use_cache=False, progress=view,
        ).run(_cells(2))
        out = buf.getvalue()
        assert "executor   cells 2" in out
        assert out.endswith("\n")
