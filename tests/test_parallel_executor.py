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
  the rest of the sweep completes; a timeout ends its cell on schedule
  whatever the cell is doing, by ending the worker.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time

import pytest

from repro.core.base import WakeUpAlgorithm
from repro.core.registry import get_algorithm
from repro.errors import ReproError
from repro.experiments.parallel import (
    CellSpec,
    ParallelSweepExecutor,
    cell_key,
    classify_cell_envelope,
    run_cell,
)
from repro.experiments.storage import load_records, merge_records
from repro.graphs.compile import clear_memory_cache
from repro.experiments.sweeps import (
    algorithm_model,
    parallel_sweep,
    rows_from_outcomes,
    sweep_cells,
)
from repro.experiments.table1 import table1_cells
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


#: sha256 over the space-joined cell keys of each grid in
#: :func:`_pinned_grid`, with the salt vector fixed.
PINNED_KEY_DIGESTS = {
    "table1-seed4":
        "7aad5893a23cea4cc17e5e0d480c283f69f7c2a35a349050f3925a977a9120f9",
    "table1-seed5":
        "25ab1b872c541a7c0a8e1f1a5e2eaf1c5ad65b9370e9e2cf56bd3369750e4157",
    "fip06-tree-advice":
        "b286ad104475694a02557a7ff217004a0fa66fa2ed9ada876555bd5d4ba93db6",
    "sqrt-threshold-advice":
        "9136738ce6601004a2a6bf39b4b8d131a119536cc4b99734f0500b9684860c65",
    "child-encoding":
        "b78331315fc33cfa276b722ad65383e64f05f90aeed3f435d3a3752830c6f6ab",
    "log-spanner-advice":
        "69b9721bba9a88e7c1f3453775a5e19f75f2fd92e16c322d502b700aef9f6b5a",
    "dfs-rank":
        "98fddfdf91db0984717c23e3073883f609a3c5ff8997a9e423526acab2d7d20a",
    "controlled-vector":
        "bfb80c540f663ee6f30137878cb4d1f20dd8d8d86c7ef46d7a32c725cf63ae35",
}


def _pinned_grid(name):
    """The Table-1 cells (seeds 4 and 5), a theorem sweep's grid as
    scripts/regen_experiments.py builds it, or one controlled cell
    whose vector delay and choices are tuples."""
    if name.startswith("table1-seed"):
        return table1_cells(n=200, seed=int(name[len("table1-seed"):]))
    if name == "controlled-vector":
        return [
            CellSpec(
                algorithm="flooding", n=12, seed=3, knowledge="KT0",
                workload={"kind": "er_single_wake", "avg_degree": 3.0,
                          "seed": 3},
                delay={"kind": "vector", "values": (0.25, 0.5, 1.0)},
                controller={"kind": "replay", "choices": (0, 2, 1),
                            "laziness": 0.5},
            )
        ]
    knowledge, bandwidth, engine = algorithm_model(get_algorithm(name))
    return sweep_cells(
        name,
        {"kind": "er_single_wake", "avg_degree": 6.0, "seed": 13},
        sizes=[64, 128, 256, 512],
        engine=engine,
        knowledge=knowledge,
        bandwidth=bandwidth,
        trials=3,
        seed=2,
    )


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

    @pytest.mark.parametrize(
        "content",
        [b"null", b"[1, 2]", b"\xff\xfe", None],
        ids=["null", "list", "not-utf8", "list-payload"],
    )
    def test_malformed_cache_file_is_a_miss(self, tmp_path, content):
        # Valid JSON of the wrong shape and bytes that are not UTF-8
        # used to escape run() and `repro cache info` as exceptions.
        cell = _fault_cell(GOOD)
        cold = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        clean = [o.record() for o in cold.run([cell])]
        (path,) = (tmp_path / "c").rglob("*.json")
        if content is None:
            data = json.loads(path.read_text())
            data["payload"] = [1, 2]
            content = json.dumps(data).encode()
        path.write_bytes(content)
        assert classify_cell_envelope(path) == ("stale", "unreadable")
        again = ParallelSweepExecutor(workers=0, cache_dir=tmp_path / "c")
        rows = [o.record() for o in again.run([cell])]
        assert again.stats["executed"] == 1
        assert rows == clean
        assert classify_cell_envelope(path) == ("live", "")


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

    @pytest.mark.parametrize("grid", sorted(PINNED_KEY_DIGESTS))
    def test_keys_match_pinned_digests(self, grid, monkeypatch):
        # The digests were computed when cell_key still deep-copied the
        # spec through dataclasses.asdict; the salts are fixed so only
        # the spec serialization is pinned.
        import repro.experiments.parallel as parallel

        monkeypatch.setattr(
            parallel, "_cell_salts",
            lambda spec: {"algorithms": "a", "engine": "e", "graphs": "g"},
        )
        keys = " ".join(cell_key(c) for c in _pinned_grid(grid))
        digest = hashlib.sha256(keys.encode()).hexdigest()
        assert digest == PINNED_KEY_DIGESTS[grid]

    @pytest.mark.parametrize(
        "field, value",
        [("algo_params", {"k": object()}), ("workload", {"kind": {1, 2}})],
    )
    def test_unencodable_field_raises_naming_it(self, field, value):
        spec = CellSpec(**{**self.BASE, field: value})
        with pytest.raises(ReproError, match=repr(field)):
            cell_key(spec)


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
    """Burns wall-clock past any sane per-cell budget, in small
    sleeps."""

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
    looks like."""

    name = "test-busy"
    congest_safe = True

    def build_nodes(self, setup):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pass
        raise AssertionError("timeout did not fire")

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


class BlockedAlgo(WakeUpAlgorithm):
    """Blocks in one 30-s C call, which no bytecode-level interrupt can
    reach before it returns."""

    name = "test-blocked"
    congest_safe = True

    def build_nodes(self, setup):
        time.sleep(30.0)
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

    @staticmethod
    def _run_off_main_thread(algorithm):
        box = {}

        def work():
            (box["outcome"],) = ParallelSweepExecutor(
                workers=0, use_cache=False, cell_timeout=0.5
            ).run([_fault_cell(algorithm)])

        t = threading.Thread(target=work, daemon=True)
        start = time.monotonic()
        t.start()
        t.join(timeout=15.0)
        assert not t.is_alive(), "hanging cell was never timed out"
        assert time.monotonic() - start < 15.0
        return box["outcome"]

    def test_cell_timeout_enforced_off_main_thread(self):
        # Regression: the budget used to be armed with SIGALRM, gated on
        # threading.current_thread() is threading.main_thread() — so a
        # cell_timeout passed from any worker thread (exactly what the
        # serve daemon's job runner did) was silently never enforced
        # and a hanging cell ran to its natural end.
        outcome = self._run_off_main_thread(f"{HERE}:SleeperAlgo")
        assert outcome.status == "timeout"
        assert "budget" in outcome.error

    def test_cell_timeout_interrupts_cpu_bound_loop_off_main_thread(self):
        outcome = self._run_off_main_thread(f"{HERE}:BusyAlgo")
        assert outcome.status == "timeout"

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cell_blocked_in_one_call_times_out_on_schedule(self, workers):
        # A budget raised into the cell's thread waited for the 30-s
        # sleep to return (about 30 s); ending the worker does not.
        start = time.monotonic()
        (outcome,) = ParallelSweepExecutor(
            workers=workers, use_cache=False, cell_timeout=0.5
        ).run([_fault_cell(f"{HERE}:BlockedAlgo")])
        assert time.monotonic() - start < 3.0
        assert outcome.status == "timeout"
        assert outcome.duration >= 0.5

    @pytest.mark.bulk
    def test_bulk_cell_times_out_on_schedule(self):
        # Flooding on a 50,000-vertex path runs 50,000 bulk rounds, each
        # a scipy matvec over every vertex: about 10 s on a 2-vCPU host,
        # over 30x its budget.  The pool ends it on time wherever it is.
        import repro.sim.bulk  # noqa: F401 — workers fork with scipy loaded

        spec = CellSpec(
            algorithm=GOOD, n=50_000, engine="bulk", knowledge="KT0",
            bandwidth="CONGEST",
            workload={"kind": "check_world", "graph": "path"},
        )
        start = time.monotonic()
        (outcome,) = ParallelSweepExecutor(
            workers=2, use_cache=False, cell_timeout=0.3
        ).run([spec])
        assert time.monotonic() - start < 1.3
        assert outcome.status == "timeout"

    def test_near_zero_timeout_is_a_structured_outcome(self):
        # Regression: the alarm used to be armed before the try block,
        # so a budget short enough to fire in that gap leaked a raw
        # exception out of the "never raises" cell entry point.
        for _ in range(5):
            (outcome,) = ParallelSweepExecutor(
                workers=0, use_cache=False, cell_timeout=1e-6
            ).run([_fault_cell(GOOD)])
            assert outcome.status in ("timeout", "ok")
            assert outcome.duration > 0

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
