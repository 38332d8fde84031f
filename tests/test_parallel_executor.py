"""Cross-engine conformance and robustness tests for the parallel
sweep executor (`repro.experiments.parallel`).

The contract under test:

* **conformance** — for a grid of algorithms × n × seeds, the summary
  scalars coming out of worker processes are bit-identical to the
  serial in-process path (``workers=0``);
* **caching** — a warm re-run executes zero cells yet produces an
  identical merged JSON artifact; any changed input changes the key;
* **robustness** — a ``WakeUpFailure``, a worker killed mid-task, and a
  per-cell timeout each become a structured failed-cell record while
  the rest of the sweep completes.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.core.base import WakeUpAlgorithm
from repro.experiments.parallel import (
    CellSpec,
    ParallelSweepExecutor,
    cell_key,
    run_cell,
)
from repro.experiments.storage import load_records, merge_records
from repro.graphs.compile import clear_memory_cache
from repro.experiments.sweeps import (
    parallel_sweep,
    rows_from_outcomes,
    sweep_cells,
)
from repro.sim.node import NodeAlgorithm

# The conformance grid: algorithms spanning engines (async/sync),
# knowledge (KT0/KT1), bandwidth (LOCAL/CONGEST), and advice usage.
GRID_ALGORITHMS = [
    ("flooding", "async", "KT0", "CONGEST"),
    ("dfs-rank", "async", "KT1", "LOCAL"),
    ("fast-wakeup", "sync", "KT1", "LOCAL"),
    ("child-encoding", "async", "KT0", "CONGEST"),
]
GRID_SIZES = [16, 24]
GRID_SEEDS = [0, 1]


def _grid_cells():
    cells = []
    for name, engine, knowledge, bandwidth in GRID_ALGORITHMS:
        for seed in GRID_SEEDS:
            cells.extend(
                sweep_cells(
                    name,
                    {"kind": "er_single_wake", "avg_degree": 4.0,
                     "seed": seed},
                    sizes=GRID_SIZES,
                    engine=engine,
                    knowledge=knowledge,
                    bandwidth=bandwidth,
                    trials=2,
                    seed=seed,
                    delay={"kind": "uniform", "seed": seed}
                    if engine == "async"
                    else {"kind": "unit"},
                )
            )
    return cells


class TestConformance:
    @pytest.fixture(scope="class")
    def grid(self):
        cells = _grid_cells()
        serial = ParallelSweepExecutor(workers=0, use_cache=False).run(cells)
        return cells, serial

    def test_grid_is_large_enough(self, grid):
        cells, _ = grid
        assert len(cells) >= 32  # algorithms x seeds x sizes x trials

    def test_parallel_matches_serial_bit_for_bit(self, grid):
        cells, serial = grid
        parallel = ParallelSweepExecutor(
            workers=2, use_cache=False
        ).run(cells)
        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            assert p.ok and s.ok
            assert p.result.summary() == s.result.summary()
            assert p.result.time_all_awake == s.result.time_all_awake
            assert p.rho_awk == s.rho_awk

    def test_chunked_submission_matches_unchunked(self, grid):
        cells, serial = grid
        chunked = ParallelSweepExecutor(
            workers=2, use_cache=False, chunk_size=5
        ).run(cells)
        for s, c in zip(serial, chunked):
            assert c.result.summary() == s.result.summary()


class TestCache:
    def _sweep(self, executor):
        return parallel_sweep(
            "flooding",
            {"kind": "er_single_wake", "avg_degree": 4.0, "seed": 2},
            sizes=[16, 24],
            executor=executor,
            knowledge="KT0",
            bandwidth="CONGEST",
            trials=2,
            seed=5,
        )

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        cold = ParallelSweepExecutor(workers=2, cache_dir=tmp_path / "c")
        rows_cold, out_cold = self._sweep(cold)
        assert cold.stats["executed"] == len(out_cold)

        warm = ParallelSweepExecutor(workers=2, cache_dir=tmp_path / "c")
        rows_warm, out_warm = self._sweep(warm)
        assert warm.stats["executed"] == 0
        assert warm.stats["cached"] == len(out_warm)
        assert rows_warm == rows_cold
        for a, b in zip(out_cold, out_warm):
            assert a.result.summary() == b.result.summary()

    def test_warm_cache_merged_artifact_identical(self, tmp_path):
        cold = ParallelSweepExecutor(workers=2, cache_dir=tmp_path / "c")
        _, out_cold = self._sweep(cold)
        art = tmp_path / "cells.json"
        merge_records(art, [o.record() for o in out_cold], "sweep/flooding")
        first = art.read_text()

        warm = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        _, out_warm = self._sweep(warm)
        records = [o.record() for o in out_warm]
        for r in records:
            assert r["cached"] is True
            r["cached"] = False  # provenance differs; measurements may not
        merge_records(art, records, "sweep/flooding")
        assert art.read_text() == first

    def test_merge_replaces_changed_cells_only(self, tmp_path):
        art = tmp_path / "m.json"
        merge_records(
            art,
            [{"key": "a", "v": 1}, {"key": "b", "v": 2}],
            "exp",
        )
        merged = merge_records(
            art,
            [{"key": "b", "v": 99}, {"key": "c", "v": 3}],
            "exp",
        )
        assert [r["key"] for r in merged] == ["a", "b", "c"]
        assert merged[1]["v"] == 99
        assert load_records(art)["records"] == merged

    def test_purge_cache_forces_cold_run(self, tmp_path):
        ex = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        self._sweep(ex)
        assert ex.purge_cache() == ex.stats["cells"]
        again = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        self._sweep(again)
        assert again.stats["executed"] == again.stats["cells"]

    def test_no_cache_flag_skips_disk(self, tmp_path):
        ex = ParallelSweepExecutor(
            workers=0, cache_dir=tmp_path / "c", use_cache=False
        )
        self._sweep(ex)
        assert not (tmp_path / "c").exists()

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        ex = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        self._sweep(ex)
        for f in (tmp_path / "c").rglob("*.json"):
            f.write_text("{not json")
        again = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        self._sweep(again)
        assert again.stats["executed"] == again.stats["cells"]


class TestCacheKeys:
    BASE = dict(
        algorithm="flooding",
        n=32,
        trial=0,
        seed=7,
        engine="async",
        knowledge="KT0",
        bandwidth="CONGEST",
        workload={"kind": "er_single_wake", "avg_degree": 4.0, "seed": 7},
        delay={"kind": "uniform", "seed": 7},
    )

    def test_key_is_stable(self):
        assert cell_key(CellSpec(**self.BASE)) == cell_key(
            CellSpec(**self.BASE)
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"n": 33},
            {"trial": 1},
            {"seed": 8},
            {"algorithm": "dfs-rank"},
            {"engine": "sync"},
            {"delay": {"kind": "uniform", "seed": 8}},
            {"delay": {"kind": "unit"}},
            {"workload": {"kind": "er_single_wake", "avg_degree": 6.0,
                          "seed": 7}},
            {"algo_params": {"k": 3}},
            {"max_events": 10},
            {"require_all_awake": False},
        ],
    )
    def test_any_changed_input_changes_key(self, change):
        base = cell_key(CellSpec(**self.BASE))
        assert cell_key(CellSpec(**{**self.BASE, **change})) != base


# ----------------------------------------------------------------------
# Fault injection: test-only algorithms resolved via dotted path
# ----------------------------------------------------------------------
class _SilentNode(NodeAlgorithm):
    pass


class SilentAlgo(WakeUpAlgorithm):
    """Wakes up, says nothing: every other node stays asleep, so the
    runner raises WakeUpFailure."""

    name = "test-silent"
    congest_safe = True

    def make_node(self, vertex, setup):
        return _SilentNode()


class KillerAlgo(WakeUpAlgorithm):
    """Takes its worker process down mid-task (simulates a segfault)."""

    name = "test-killer"
    congest_safe = True

    def build_nodes(self, setup):
        os.kill(os.getpid(), signal.SIGKILL)

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


class SleeperAlgo(WakeUpAlgorithm):
    """Burns wall-clock past any sane per-cell budget.

    Sleeps in small increments rather than one blocking call: the
    watchdog's async exception lands at a bytecode boundary, so a
    single 30s C-level sleep would only time out on return.
    """

    name = "test-sleeper"
    congest_safe = True

    def build_nodes(self, setup):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            time.sleep(0.005)
        raise AssertionError("timeout did not fire")

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


class BusyAlgo(WakeUpAlgorithm):
    """Pure-Python busy loop — the CPU-bound runaway a real engine hang
    looks like; only an async-exception watchdog can interrupt it off
    the main thread."""

    name = "test-busy"
    congest_safe = True

    def build_nodes(self, setup):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pass
        raise AssertionError("timeout did not fire")

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


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


GOOD = "flooding"
HERE = "tests.test_parallel_executor"


class TestFaultInjection:
    def test_wakeup_failure_is_structured_record(self):
        cells = [
            _fault_cell(GOOD),
            _fault_cell(f"{HERE}:SilentAlgo"),
            _fault_cell(GOOD, trial=1),
        ]
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(cells)
        assert [o.status for o in out] == ["ok", "failed", "ok"]
        assert "never woke up" in out[1].error
        assert out[1].result is None
        # aggregation survives the failed cell
        assert len(rows_from_outcomes(out)) == 1

    def test_worker_killed_mid_task_is_retried_then_crashed(self):
        cells = [
            _fault_cell(GOOD),
            _fault_cell(f"{HERE}:KillerAlgo"),
            _fault_cell(GOOD, trial=1),
            _fault_cell(GOOD, trial=2),
        ]
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(cells)
        by_algo = {o.spec.algorithm: o for o in out}
        crashed = by_algo[f"{HERE}:KillerAlgo"]
        assert crashed.status == "crashed"
        assert crashed.attempts == 2  # initial + one retry
        assert "worker process died" in crashed.error
        good = [o for o in out if o.spec.algorithm == GOOD]
        assert all(o.ok for o in good)

    def test_cell_timeout_is_structured_record(self):
        cells = [
            _fault_cell(GOOD),
            _fault_cell(f"{HERE}:SleeperAlgo"),
        ]
        out = ParallelSweepExecutor(
            workers=2, use_cache=False, cell_timeout=0.5
        ).run(cells)
        assert out[0].ok
        assert out[1].status == "timeout"
        assert "budget" in out[1].error

    def test_cell_timeout_enforced_off_main_thread(self):
        # Regression: the budget used to be armed with SIGALRM, gated on
        # threading.current_thread() is threading.main_thread() — so a
        # cell_timeout passed from any worker thread (exactly what the
        # serve daemon's job workers do) was silently never enforced and
        # a hanging cell ran to its natural end.
        box = {}

        def work():
            box["payload"] = run_cell(
                _fault_cell(f"{HERE}:SleeperAlgo"), cell_timeout=0.5
            )

        t = threading.Thread(target=work, daemon=True)
        start = time.monotonic()
        t.start()
        t.join(timeout=15.0)
        assert not t.is_alive(), "hanging cell was never timed out"
        assert time.monotonic() - start < 15.0
        assert box["payload"]["status"] == "timeout"
        assert "budget" in box["payload"]["error"]

    def test_cell_timeout_interrupts_cpu_bound_loop_off_main_thread(self):
        box = {}

        def work():
            box["payload"] = run_cell(
                _fault_cell(f"{HERE}:BusyAlgo"), cell_timeout=0.5
            )

        t = threading.Thread(target=work, daemon=True)
        t.start()
        t.join(timeout=15.0)
        assert not t.is_alive()
        assert box["payload"]["status"] == "timeout"

    def test_near_zero_timeout_never_escapes_run_cell(self):
        # Regression: the alarm used to be armed before the try block,
        # so a budget short enough to fire in that gap leaked a raw
        # _CellTimeout out of the "never raises" worker entry point.
        for _ in range(20):
            payload = run_cell(_fault_cell(GOOD), cell_timeout=1e-6)
            assert payload["status"] in ("timeout", "ok")
            assert "duration" in payload

    def test_failures_are_never_cached(self, tmp_path):
        ex = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        ex.run([_fault_cell(f"{HERE}:SilentAlgo")])
        again = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        again.run([_fault_cell(f"{HERE}:SilentAlgo")])
        assert again.stats["executed"] == 1

    def test_inline_run_cell_never_raises(self):
        payload = run_cell(_fault_cell(f"{HERE}:SilentAlgo"))
        assert payload["ok"] is False
        assert payload["error_kind"] == "WakeUpFailure"
        assert payload["asleep"]


# ----------------------------------------------------------------------
# Topology store conformance: the compiled-topology cache is a pure
# speedup — rows are bit-identical with the store on, off, or warm.
# ----------------------------------------------------------------------
class TestTopologyStoreConformance:
    def _run(self, cells, tmp_path=None, workers=0, store=False):
        clear_memory_cache()
        ex = ParallelSweepExecutor(
            workers=workers,
            use_cache=False,
            use_topology_store=store,
            topology_dir=(tmp_path or "unused") / "topo"
            if tmp_path
            else "unused/topo",
        )
        return ex, ex.run(cells)

    @staticmethod
    def _assert_identical(a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.ok and y.ok
            assert y.result.summary() == x.result.summary()
            assert y.result.time_all_awake == x.result.time_all_awake
            assert y.rho_awk == x.rho_awk

    def test_store_on_off_and_warm_rows_bit_identical(self, tmp_path):
        cells = _grid_cells()
        _, off = self._run(cells)
        on_ex, on = self._run(cells, tmp_path, store=True)
        self._assert_identical(off, on)
        # One build per distinct (workload, n): 2 workload seeds x 2
        # sizes, shared across all algorithms and trials.
        distinct = {(c.workload["seed"], c.n) for c in cells}
        assert on_ex.stats["topology.build"] == len(distinct)
        # Warm rerun: everything replays from disk, still identical.
        warm_ex, warm = self._run(cells, tmp_path, store=True)
        self._assert_identical(off, warm)
        assert warm_ex.stats["topology.build"] == 0
        assert warm_ex.stats["topology.hit_disk"] == len(distinct)

    def test_store_with_worker_pool_matches_serial(self, tmp_path):
        cells = _grid_cells()
        _, serial = self._run(cells)
        pool_ex, pooled = self._run(
            cells, tmp_path, workers=2, store=True
        )
        self._assert_identical(serial, pooled)
        # Fork workers still account one build per distinct topology
        # at most (racing workers may disk-hit instead).
        distinct = {(c.workload["seed"], c.n) for c in cells}
        assert 0 < pool_ex.stats["topology.build"] <= len(distinct)
