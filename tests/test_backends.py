"""The worker pool (`repro.experiments.backends`).

The contract:

* **conformance** — the inline path and the work-stealing pool produce
  bit-identical sweep rows at any worker count;
* **scheduling is plumbing** — the pool dispatches one cell per task,
  largest `n` first, so a big cell starts before any small one ends,
  yet outcomes come back in input order;
* **fault isolation** — a worker SIGKILL becomes a structured
  crashed-cell record, and a cell over its budget a ``timeout`` record
  that ends only its own worker, while every other cell completes;
* **migration** — legacy (pre-salt-vector) cache envelopes are
  classified stale, re-executed transparently, and produce identical
  rows; `purge --stale` removes exactly them.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.flooding import Flooding
from repro.experiments.backends import BACKENDS, WorkStealingBackend
from repro.experiments.parallel import (
    CellSpec,
    ParallelSweepExecutor,
    cell_cache_report,
    classify_cell_envelope,
)
from repro.experiments.sweeps import sweep_cells

HERE = "tests.test_backends"
GOOD = "flooding"


def _cells(trials: int = 2):
    return sweep_cells(
        GOOD,
        {"kind": "er_single_wake", "avg_degree": 4.0, "seed": 3},
        sizes=[16, 24],
        engine="async",
        knowledge="KT0",
        bandwidth="CONGEST",
        trials=trials,
        seed=3,
        delay={"kind": "uniform", "seed": 3},
    )


def _fault_cell(algorithm, n=12, **kw):
    return CellSpec(
        algorithm=algorithm,
        n=n,
        seed=1,
        engine="async",
        knowledge="KT0",
        bandwidth="CONGEST",
        workload={"kind": "er_single_wake", "avg_degree": 3.0, "seed": 1},
        **kw,
    )


# ----------------------------------------------------------------------
# Path selection: `workers` and the cell budget, no backend knob
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_known_backends(self):
        # One pool, and no executor parameter to pick another.
        assert set(BACKENDS) == {"steal"}
        with pytest.raises(TypeError):
            ParallelSweepExecutor(backend="steal")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "flooding", "--exec-backend", "steal"],
            ["serve", "--backend", "steal"],
        ],
        ids=["exec-backend", "serve-backend"],
    )
    def test_cli_has_no_backend_flags(self, capsys, argv):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_start_event_has_no_backend(self):
        from repro.obs.recorder import MemoryRecorder

        rec = MemoryRecorder()
        ParallelSweepExecutor(
            workers=0, use_cache=False, recorder=rec
        ).run(_cells(trials=1))
        (start,) = rec.of_kind("sweep_start")
        assert "backend" not in start
        assert (start["cells"], start["workers"]) == (2, 0)

    @pytest.mark.parametrize(
        "workers, cell_timeout, pool_width",
        [(0, None, None), (1, None, None), (2, None, 2),
         (0, 30.0, 1), (1, 30.0, 1), (2, 30.0, 2)],
    )
    def test_workers_and_budget_choose_the_path(
        self, monkeypatch, workers, cell_timeout, pool_width
    ):
        # workers 0/1 run inline, unless a budget needs a worker to end.
        widths = []
        drain = WorkStealingBackend.drain

        def spy(self, specs):
            widths.append(self.workers)
            return drain(self, specs)

        monkeypatch.setattr(WorkStealingBackend, "drain", spy)
        out = ParallelSweepExecutor(
            workers=workers, use_cache=False, cell_timeout=cell_timeout
        ).run(_cells(trials=1))
        assert all(o.ok for o in out)
        assert widths == ([] if pool_width is None else [pool_width])


# ----------------------------------------------------------------------
# Cross-backend conformance: rows must be bit-identical
# ----------------------------------------------------------------------
class TestConformance:
    def test_rows_identical_across_backends_and_workers(self):
        cells = _cells()
        baseline = [
            o.record()
            for o in ParallelSweepExecutor(
                workers=0, use_cache=False
            ).run(cells)
        ]
        for workers in (0, 2, 4):
            out = ParallelSweepExecutor(
                workers=workers, use_cache=False
            ).run(cells)
            rows = [o.record() for o in out]
            assert rows == baseline, f"rows diverged at workers={workers}"

    def test_each_cell_drains_exactly_once_under_contention(self):
        # Six workers race for the shared cursor over 120 tiny cells; a
        # lost update would run a cell twice or skip one.
        specs = [_fault_cell(GOOD, n=8, trial=t) for t in range(120)]
        drained = [
            i for i, payload in WorkStealingBackend(6).drain(specs)
            if payload is not None and payload["ok"]
        ]
        assert sorted(drained) == list(range(len(specs)))

    def test_outcomes_stay_in_input_order_despite_lpt(self):
        # Stealing runs the largest cell first; outcomes must still
        # come back in submission order.
        cells = [
            _fault_cell(GOOD, n=12),
            _fault_cell(GOOD, n=48),
            _fault_cell(GOOD, n=12, trial=1),
        ]
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(cells)
        assert [(o.spec.n, o.spec.trial) for o in out] == [
            (12, 0), (48, 0), (12, 1)
        ]
        assert all(o.ok for o in out)


class LoggedFlooding(Flooding):
    """Flooding that appends ``start N`` / ``end N`` lines to a log
    around a fixed sleep, so the log records the order in which pooled
    cells start and end."""

    name = "test-logged-flooding"

    def __init__(self, log: str, pace: float = 0.2):
        super().__init__()
        self.log = log
        self.pace = pace

    def _note(self, line: str) -> None:
        fd = os.open(self.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{line}\n".encode())
        finally:
            os.close(fd)

    def build_nodes(self, setup):
        self._note(f"start {setup.n}")
        time.sleep(self.pace)
        self._note(f"end {setup.n}")
        return super().build_nodes(setup)


class TestDispatchOrder:
    def test_largest_cell_starts_before_any_cell_ends(self, tmp_path):
        # Twelve small cells, then one large one last in input order.
        # Dispatch in input order, or of 4-cell batches ranked by
        # max(n) x size, would start it only after small ones end.
        log = tmp_path / "cells.log"
        params = {"log": str(log)}
        cells = [
            _fault_cell(f"{HERE}:LoggedFlooding", n=48, trial=t,
                        algo_params=params)
            for t in range(12)
        ]
        cells.append(
            _fault_cell(f"{HERE}:LoggedFlooding", n=96, algo_params=params)
        )
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(cells)
        assert all(o.ok for o in out)
        lines = log.read_text().splitlines()
        assert sorted(lines) == sorted(
            [f"start {n}" for n in [48] * 12 + [96]]
            + [f"end {n}" for n in [48] * 12 + [96]]
        )
        first_end = next(
            i for i, line in enumerate(lines) if line.startswith("end")
        )
        assert lines.index("start 96") < first_end, lines


# ----------------------------------------------------------------------
# Fault isolation under the stealing backend
# ----------------------------------------------------------------------
class TestStealFaults:
    def test_worker_kill_is_isolated_and_retried(self):
        cells = [
            _fault_cell(GOOD),
            _fault_cell(f"{HERE}:KillerAlgo"),
            _fault_cell(GOOD, trial=1),
            _fault_cell(GOOD, trial=2),
        ]
        out = ParallelSweepExecutor(
            workers=2, use_cache=False, retries=1
        ).run(cells)
        by_algo = {o.spec.algorithm: o for o in out}
        crashed = by_algo[f"{HERE}:KillerAlgo"]
        assert crashed.status == "crashed"
        good = [o for o in out if o.spec.algorithm == GOOD]
        assert len(good) == 3 and all(o.ok for o in good)

    def test_wakeup_failure_is_structured_not_crash(self):
        out = ParallelSweepExecutor(workers=2, use_cache=False).run(
            [_fault_cell(GOOD), _fault_cell(f"{HERE}:SilentAlgo")]
        )
        assert [o.status for o in out] == ["ok", "failed"]
        assert "never woke up" in out[1].error

    def test_timeout_ends_only_its_worker(self):
        # One worker: the n=48 cell runs first and hangs.  Its worker is
        # killed at the budget and a fresh one runs the three small
        # cells, each once, with no retry.
        from repro.obs.recorder import MemoryRecorder

        rec = MemoryRecorder()
        cells = [
            _fault_cell(GOOD, trial=t) for t in range(3)
        ] + [_fault_cell(f"{HERE}:BlockedAlgo", n=48)]
        start = time.monotonic()
        out = ParallelSweepExecutor(
            workers=1, use_cache=False, cell_timeout=1.0, recorder=rec
        ).run(cells)
        assert time.monotonic() - start < 10.0
        assert [o.status for o in out] == ["ok", "ok", "ok", "timeout"]
        assert [o.attempts for o in out[:3]] == [1, 1, 1]
        assert rec.of_kind("cell_retry") == []


# The fault algorithms live in tests.test_parallel_executor; re-export
# them under this module's dotted path so fork workers resolve them.
from tests.test_parallel_executor import (  # noqa: E402,F401
    BlockedAlgo,
    KillerAlgo,
    SilentAlgo,
)


# ----------------------------------------------------------------------
# Legacy envelope migration
# ----------------------------------------------------------------------
class TestEnvelopeMigration:
    def _executor(self, tmp_path, **kw):
        return ParallelSweepExecutor(
            workers=0,
            cache_dir=tmp_path / "cells",
            topology_dir=tmp_path / "topo",
            **kw,
        )

    def _downgrade(self, cache_dir):
        """Rewrite every envelope to the pre-PR-9 v1 shape (global
        CODE_SALT baked into the key, no salt vector)."""
        paths = list(cache_dir.rglob("*.json"))
        for path in paths:
            data = json.loads(path.read_text())
            path.write_text(
                json.dumps(
                    {
                        "key": data["key"],
                        "salt": "repro-cells-v1",
                        "payload": data["payload"],
                    }
                )
            )
        return paths

    def test_legacy_envelopes_are_stale_and_reexecuted(self, tmp_path):
        cells = _cells(trials=1)
        cold = self._executor(tmp_path)
        rows = [o.record() for o in cold.run(cells)]
        assert cold.stats["executed"] == len(cells)

        paths = self._downgrade(cold.cache_dir)
        assert paths, "cold run cached nothing"
        for path in paths:
            assert classify_cell_envelope(path) == ("stale", "legacy")
        report = cell_cache_report(cold.cache_dir)
        assert report["live"] == 0
        assert report["stale_by"] == {"legacy": len(paths)}

        # A legacy envelope is a miss, not an error: cells re-execute
        # and the rows come out identical.
        warm = self._executor(tmp_path)
        rows_again = [o.record() for o in warm.run(cells)]
        assert warm.stats["executed"] == len(cells)
        assert rows_again == rows

        # ...and the rewrite healed the cache.
        healed = cell_cache_report(cold.cache_dir)
        assert healed["live"] == len(paths)
        assert healed["stale"] == 0

    def test_purge_stale_keeps_live_entries(self, tmp_path):
        cells = _cells(trials=1)
        ex = self._executor(tmp_path)
        ex.run(cells)
        # Downgrade one envelope, leave the rest live.
        victim = next(iter(ex.cache_dir.rglob("*.json")))
        data = json.loads(victim.read_text())
        victim.write_text(
            json.dumps({"key": data["key"], "payload": data["payload"]})
        )
        assert ex.purge_cache(stale_only=True) == 1
        report = cell_cache_report(ex.cache_dir)
        assert report["stale"] == 0
        assert report["live"] == len(cells) - 1

    def test_mismatched_salt_names_component(self, tmp_path):
        cells = _cells(trials=1)
        ex = self._executor(tmp_path)
        ex.run(cells)
        victim = next(iter(ex.cache_dir.rglob("*.json")))
        data = json.loads(victim.read_text())
        data["salts"]["engine"] = "0" * 16
        data["salts"]["algorithms"] = "0" * 16
        victim.write_text(json.dumps(data))
        assert classify_cell_envelope(victim) == (
            "stale",
            "algorithms+engine",
        )
