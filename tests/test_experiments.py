"""Tests for the experiment drivers (Table-1 runner and sweeps)."""

import math

import pytest

from repro.core.registry import get_algorithm
from repro.experiments.sweeps import algorithm_model, parallel_sweep
from repro.experiments.table1 import (
    measure_table1,
    render_table1,
    table1_cells,
    workload_context,
)
from repro.graphs.compile import TopologyStore, compiled_topology
from repro.graphs.traversal import awake_distance, diameter
from repro.graphs.workloads import (
    dense_er_all_awake,
    er_fraction_wake,
    er_shared_wake,
    er_single_wake,
    grid_corner_wake,
    tree_random_wake,
)


class TestSweep:
    def test_flooding_sweep_shape(self):
        rows, _ = parallel_sweep(
            "flooding",
            {"kind": "er_single_wake", "avg_degree": 4.0, "seed": 1},
            sizes=[20, 40],
            knowledge="KT0",
            trials=2,
            seed=3,
        )
        assert [r.n for r in rows] == [20, 40]
        assert all(r.messages > 0 for r in rows)
        assert rows[1].messages > rows[0].messages
        assert all(r.trials == 2 for r in rows)

    def test_sweep_records_rho(self):
        rows, _ = parallel_sweep(
            "flooding",
            {"kind": "grid_corner_wake"},
            sizes=[16, 36],
            knowledge="KT0",
            trials=1,
        )
        # corner wake on a side x side grid: rho = 2 (side - 1)
        assert rows[0].rho_awk == 6
        assert rows[1].rho_awk == 10

    def test_sweep_row_dict(self):
        rows, _ = parallel_sweep(
            "flooding",
            {"kind": "tree_random_wake", "seed": 2},
            sizes=[15],
            knowledge="KT0",
            trials=1,
        )
        d = rows[0].as_dict()
        assert {"n", "rho", "messages", "time"} <= set(d)

    def test_workloads_produce_connected_graphs(self):
        from repro.graphs.traversal import is_connected

        for workload in (
            er_single_wake(seed=1),
            er_fraction_wake(seed=2),
            dense_er_all_awake(seed=3),
            grid_corner_wake(),
            tree_random_wake(seed=4),
        ):
            g, awake = workload(30)
            assert is_connected(g)
            assert awake
            assert all(v in g for v in awake)


class TestAlgorithmModel:
    def test_model_follows_declared_requirements(self):
        assert algorithm_model(get_algorithm("dfs-rank")) == (
            "KT1", "LOCAL", "async"
        )
        assert algorithm_model(get_algorithm("fast-wakeup")) == (
            "KT1", "LOCAL", "sync"
        )
        assert algorithm_model(get_algorithm("flooding")) == (
            "KT0", "CONGEST", "async"
        )

    def test_bulk_backend_runs_both_synchrony_algorithms_sync(self):
        assert algorithm_model(get_algorithm("flooding"), "bulk")[2] == "sync"
        assert algorithm_model(get_algorithm("fast-wakeup"), "bulk")[2] == "sync"


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return measure_table1(n=60, avg_degree=6.0, seed=2)

    def test_all_rows_present(self, rows):
        labels = [r.row for r in rows]
        assert labels == [
            "Thm 3", "Thm 4", "Cor 1", "Thm 5A", "Thm 5B", "Thm 6",
            "Cor 2", "baseline",
        ]

    def test_all_rows_completed(self, rows):
        assert all(r.messages > 0 for r in rows)
        assert all(r.time > 0 for r in rows)

    def test_advice_rows_have_advice(self, rows):
        by_label = {r.row: r for r in rows}
        for label in ("Cor 1", "Thm 5A", "Thm 5B", "Thm 6", "Cor 2"):
            assert by_label[label].advice_max_bits > 0
        for label in ("Thm 3", "Thm 4", "baseline"):
            assert by_label[label].advice_max_bits == 0

    def test_who_wins_orderings(self, rows):
        """The qualitative Table-1 story on a shared workload."""
        by_label = {r.row: r for r in rows}
        # Advice schemes with O(n) message bounds beat flooding:
        assert by_label["Cor 1"].messages < by_label["baseline"].messages
        assert by_label["Thm 5B"].messages < by_label["baseline"].messages
        # Flooding is the fastest (time-optimal baseline):
        assert by_label["baseline"].time <= min(
            by_label["Thm 3"].time, by_label["Thm 5B"].time
        )
        # Thm 5B trades time for advice against Cor 1:
        assert (
            by_label["Thm 5B"].advice_max_bits
            < by_label["Cor 1"].advice_max_bits + 64
        )

    def test_render(self, rows):
        text = render_table1(rows)
        assert "Thm 3" in text and "paper_msgs" in text

    def test_workload_context(self):
        ctx = workload_context(n=60, seed=2)
        assert ctx["n"] == 60
        assert ctx["rho_awk"] >= 1
        assert ctx["diameter"] >= ctx["rho_awk"]

    @pytest.mark.parametrize("n,seed", [(40, 0), (60, 2), (96, 5), (128, 1)])
    def test_workload_context_matches_raw_graph(self, n, seed):
        """The header read off the compiled topology equals the values
        the raw workload graph gives."""
        graph, awake = er_shared_wake(8.0, 0.05, seed)(n)
        ctx = workload_context(n=n, seed=seed)
        assert ctx == {
            "n": float(n),
            "m": float(graph.num_edges),
            "diameter": float(diameter(graph)),
            "rho_awk": float(awake_distance(graph, awake)),
            "log2n": math.log2(n),
        }

    def test_warm_store_header_runs_no_bfs(self, tmp_path, monkeypatch):
        """The diameter is kept in the stored topology's extras: a warm
        store answers the header without one BFS, and the Table-1
        cells then fetch that topology from memory."""
        import repro.graphs.compile as compile_mod

        calls = []
        real = compile_mod.diameter

        def spy(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(compile_mod, "diameter", spy)
        store = TopologyStore(tmp_path)
        compile_mod.clear_memory_cache()
        cold = workload_context(n=80, seed=3, store=store)
        assert len(calls) == 1
        compile_mod.clear_memory_cache()
        assert workload_context(n=80, seed=3, store=store) == cold
        assert len(calls) == 1
        fetched = []
        monkeypatch.setattr(
            compile_mod, "_bump", lambda stats, what: fetched.append(what)
        )
        cell = table1_cells(n=80, seed=3)[0]
        compiled_topology(cell.workload, cell.n, store=store)
        assert fetched == ["hit_mem"]
