"""Integration tests for the serve daemon (`repro.serve`).

The contract under test, matching docs/serving.md:

* **job identity** — specs canonicalize (defaults filled, keys
  dropped/sorted) so equivalent submissions share one content-addressed
  job id; invalid specs raise before admission;
* **concurrent clients** — N clients submitting overlapping warm/cold
  jobs all get complete, schema-valid event streams and consistent
  final summaries; duplicate submissions attach to the in-flight or
  completed job (the dedup counter ticks, nothing re-runs);
* **cell economy** — across overlapping jobs, each distinct cell is
  *executed* exactly once; later jobs replay it from the cell cache;
* **fault isolation** — a timed-out cell, a hung job (wall budget), a
  worker killed mid-cell, and a job process killed by its own cell each
  produce a structured failed/timeout job while the daemon keeps
  serving subsequent requests; a job budget ends every process the job
  forked, and a job killed mid-write changes nothing in the daemon but
  its ``repro_serve_*`` entries;
* **admission** — invalid specs, oversized cell budgets, and a full
  queue are structured rejections, never hangs or daemon deaths.

Each server binds a unix socket under the test's tmp dir with private
cache/topology stores, so tests are hermetic and parallel-safe.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.core.base import WakeUpAlgorithm
from repro.core.registry import register
from repro.experiments.parallel import ParallelSweepExecutor
from repro.obs import validate_event
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    ServeClient,
    ServeConfig,
    SweepServer,
    canonical_spec,
    count_cells,
    execute_job,
    job_id,
    validate_job,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_telemetry_for_serve_tests",
        REPO_ROOT / "scripts" / "check_telemetry.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CHECKER = _load_checker()


# ----------------------------------------------------------------------
# Fault-injection algorithms (registered for real, so job validation
# admits them; the executor pool forks, so workers inherit these).
# ----------------------------------------------------------------------
class HangAlgo(WakeUpAlgorithm):
    """Burns wall-clock past any budget, in small sleeps."""

    name = "test-serve-hang"
    congest_safe = True

    def build_nodes(self, setup):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            time.sleep(0.005)
        raise AssertionError("no budget ever fired")

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


class KillAlgo(WakeUpAlgorithm):
    """Takes its worker process down mid-cell (simulates a segfault)."""

    name = "test-serve-kill"
    congest_safe = True

    def build_nodes(self, setup):
        os.kill(os.getpid(), signal.SIGKILL)

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


class PidHangAlgo(WakeUpAlgorithm):
    """Appends ``"<pid> <parent pid>"`` to :attr:`log`, then blocks in
    one 30-s sleep."""

    name = "test-serve-pid-hang"
    congest_safe = True
    log = ""  # set by the test before the job process forks

    def build_nodes(self, setup):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()} {os.getppid()}\n")
        time.sleep(30.0)
        raise AssertionError("no budget ever fired")

    def make_node(self, vertex, setup):  # pragma: no cover
        raise AssertionError("unreachable")


register("test-serve-hang", HangAlgo)
register("test-serve-kill", KillAlgo)
register("test-serve-pid-hang", PidHangAlgo)


def _alive(pid):
    """A zombie has exited; only its parent's wait is missing."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def sweep_spec(algorithm="flooding", sizes=(12, 16), **kw):
    spec = {
        "kind": "sweep",
        "algorithm": algorithm,
        "sizes": list(sizes),
        "trials": 1,
        "degree": 3.0,
    }
    spec.update(kw)
    return spec


def start_server(tmp_path, name="sv", **overrides):
    cfg = dict(
        socket_path=str(tmp_path / f"{name}.sock"),
        max_queue=8,
        max_cells=64,
        job_timeout=60.0,
        cell_timeout=20.0,
        workers=0,
        cache_dir=str(tmp_path / f"{name}-cache"),
        topology_dir=str(tmp_path / f"{name}-topo"),
    )
    cfg.update(overrides)
    server = SweepServer(ServeConfig(**cfg))
    server.start()
    client = ServeClient(cfg["socket_path"], timeout=60.0)
    assert client.wait_ready(10.0)
    return server, client


def counter_value(server, status):
    counters = server.metrics.snapshot()["counters"]
    return counters.get(
        f'repro_serve_jobs_total{{status="{status}"}}', 0
    )


# ----------------------------------------------------------------------
# Job specs (pure functions, no daemon)
# ----------------------------------------------------------------------
class TestJobSpecs:
    def test_canonicalization_is_spelling_invariant(self):
        terse = {"kind": "sweep", "algorithm": "flooding"}
        spelled = {
            "kind": "sweep",
            "algorithm": "flooding",
            "sizes": [128, 64],
            "trials": 2,
            "seed": 0,
            "degree": 6.0,
            "ignored_extra_key": "dropped",
        }
        assert canonical_spec(terse) == canonical_spec(spelled)
        assert job_id(terse) == job_id(spelled)
        assert canonical_spec(terse)["sizes"] == [64, 128]

    def test_distinct_specs_get_distinct_ids(self):
        a = sweep_spec(sizes=[12, 16])
        b = sweep_spec(sizes=[12, 16, 20])
        assert job_id(a) != job_id(b)

    def test_validate_rejects_garbage(self):
        assert validate_job("not a dict")
        assert validate_job({"kind": "nope"})
        assert validate_job({"kind": "sweep", "algorithm": "missing"})
        assert validate_job(sweep_spec(sizes=[]))
        assert validate_job(sweep_spec(trials=0))
        with pytest.raises(ValueError):
            canonical_spec({"kind": "sweep", "algorithm": "missing"})

    def test_count_cells(self):
        assert count_cells(sweep_spec(sizes=[12, 16], trials=3)) == 6
        assert count_cells(
            {"kind": "check", "algorithm": "flooding"}
        ) == 1


# ----------------------------------------------------------------------
# Concurrent clients against one daemon
# ----------------------------------------------------------------------
class TestConcurrentClients:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve")
        server, client = start_server(tmp)
        yield server, client
        server.stop()

    def _run_many(self, client, specs):
        """Each spec on its own client thread; returns the (final,
        events) pairs in submission order."""
        results = [None] * len(specs)

        def work(i, spec):
            worker = ServeClient(client.socket_path, timeout=120.0)
            results[i] = worker.run_job(spec)

        threads = [
            threading.Thread(target=work, args=(i, s), daemon=True)
            for i, s in enumerate(specs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert all(r is not None for r in results), "a client hung"
        return results

    def test_identical_submissions_share_one_execution(self, served):
        server, client = served
        before = counter_value(server, "deduped")
        spec = sweep_spec(sizes=[10, 14], seed=7)
        results = self._run_many(client, [spec] * 4)
        ids = {final["job"]["id"] for final, _ in results}
        assert len(ids) == 1
        for final, events in results:
            assert final["job"]["state"] == "done"
            # every watcher saw the full stream, however late it joined
            kinds = [e["kind"] for e in events]
            assert kinds.count("job_start") == 1
            assert kinds.count("job_end") == 1
            assert kinds.count("cell_start") == 2
        assert counter_value(server, "deduped") - before == 3
        # one execution: the job ran its two cells exactly once
        stats = results[0][0]["job"]["result"]["stats"]
        assert stats["executed"] == 2

    def test_overlapping_jobs_execute_each_cell_once(self, served):
        _server, client = served
        cold = sweep_spec(sizes=[18, 22], seed=11)
        warm = sweep_spec(sizes=[18, 22, 26], seed=11)
        results = self._run_many(client, [cold, warm])
        finals = [final["job"] for final, _ in results]
        assert {f["state"] for f in finals} == {"done"}
        executed = sum(
            f["result"]["stats"]["executed"] for f in finals
        )
        cached = sum(f["result"]["stats"]["cached"] for f in finals)
        # 3 distinct cells across both jobs: each executed exactly
        # once, the overlap replayed from the cell cache.
        assert executed == 3
        assert cached == 2

    def test_completed_job_resubmission_is_deduped(self, served):
        server, client = served
        spec = sweep_spec(sizes=[10, 14], seed=7)  # warm from earlier
        before = counter_value(server, "deduped")
        final, events = ServeClient(
            client.socket_path, timeout=60.0
        ).run_job(spec)
        assert final["job"]["state"] == "done"
        assert counter_value(server, "deduped") - before == 1
        # terminal job: the stream is pure backlog replay, still whole
        assert [e["kind"] for e in events].count("job_end") == 1

    def test_streams_validate_against_obs_schema(self, served):
        _server, client = served
        final, events = client.run_job(sweep_spec(sizes=[20], seed=3))
        assert final["job"]["state"] == "done"
        for e in events:
            assert validate_event(e) == [], e
        lines = [json.dumps(e, sort_keys=True) for e in events]
        errors, summary = CHECKER.check_stream(lines)
        assert errors == []
        assert summary["census"]["job_queued"] == 1
        assert summary["census"]["job_end"] == 1

    def test_jobs_status_and_stats_ops(self, served):
        _server, client = served
        final, _ = client.run_job(sweep_spec(sizes=[10, 14], seed=7))
        jid = final["job"]["id"]
        listed = client.jobs()
        assert any(j["id"] == jid for j in listed)
        assert all("result" not in j for j in listed)  # summaries only
        status = client.status(jid)
        assert status["ok"] and status["job"]["id"] == jid
        assert status["job"]["clients"] >= 1
        missing = client.status("jnope")
        assert missing["ok"] is False
        stats = client.stats()
        assert stats["ok"]
        assert stats["jobs_by_state"].get("done", 0) >= 1
        assert "repro_serve_jobs_total" in str(stats["metrics"])


class TestDaemonLog:
    def test_daemon_log_snapshots_accumulate(self, tmp_path):
        # Each job process counts into a fresh registry; the log must
        # still read as one registry that only accumulates, with its
        # last snapshot profiling every executed cell of every job.
        from repro.obs.recorder import JsonlRecorder

        log = tmp_path / "daemon.jsonl"
        server = SweepServer(
            ServeConfig(
                socket_path=str(tmp_path / "log.sock"),
                cache_dir=str(tmp_path / "cache"),
                topology_dir=str(tmp_path / "topo"),
            ),
            recorder=JsonlRecorder(log),
        )
        server.start()
        try:
            client = ServeClient(str(tmp_path / "log.sock"), timeout=60.0)
            assert client.wait_ready(10.0)
            for sizes in ([10, 14], [12]):
                final, _ = client.run_job(sweep_spec(sizes=sizes))
                assert final["job"]["state"] == "done"
        finally:
            server.stop()
            server.log.close()
        errors, summary = CHECKER.check_stream(log.read_text().splitlines())
        assert errors == []
        assert summary["census"]["metrics_snapshot"] == 2


# ----------------------------------------------------------------------
# Fault isolation: structured failures, daemon survives
# ----------------------------------------------------------------------
class TestFaultIsolation:
    def test_timed_out_cell_is_structured_failed_job(self, tmp_path):
        server, client = start_server(tmp_path, job_timeout=60.0)
        try:
            final, events = client.run_job(
                sweep_spec("test-serve-hang", sizes=[12],
                           cell_timeout=0.5)
            )
            job = final["job"]
            assert job["state"] == "failed"
            assert "did not complete" in job["error"]
            assert "timeout" in job["error"]
            failed = job["result"]["failed_cells"]
            assert [c["status"] for c in failed] == ["timeout"]
            kinds = [e["kind"] for e in events]
            assert "cell_timeout" in kinds
            assert kinds.count("job_end") == 1
            # the daemon is still serving
            after, _ = client.run_job(sweep_spec(sizes=[12]))
            assert after["job"]["state"] == "done"
        finally:
            server.stop()

    def test_job_wall_budget_times_out_job(self, tmp_path):
        server, client = start_server(
            tmp_path, job_timeout=1.0, cell_timeout=None
        )
        try:
            final, events = client.run_job(
                sweep_spec("test-serve-hang", sizes=[12])
            )
            job = final["job"]
            assert job["state"] == "timeout"
            assert "budget" in job["error"]
            assert [e["kind"] for e in events].count("job_end") == 1
            after, _ = client.run_job(sweep_spec(sizes=[12]))
            assert after["job"]["state"] == "done"
        finally:
            server.stop()

    def test_killed_worker_is_structured_failed_job(self, tmp_path):
        # workers=2: cells must run in worker *processes* (0/1 mean
        # in-process) so the SIGKILL lands on a worker, not the daemon.
        server, client = start_server(tmp_path, workers=2)
        try:
            final, _events = client.run_job(
                sweep_spec("test-serve-kill", sizes=[12])
            )
            job = final["job"]
            assert job["state"] == "failed"
            assert "crashed" in job["error"]
            failed = job["result"]["failed_cells"]
            assert [c["status"] for c in failed] == ["crashed"]
            assert "worker process died" in failed[0]["error"]
            # daemon alive and able to run real work afterwards
            after, _ = client.run_job(sweep_spec(sizes=[12]))
            assert after["job"]["state"] == "done"
        finally:
            server.stop()

    def test_job_budget_ends_every_process_of_the_job(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "pids.log"
        monkeypatch.setattr(PidHangAlgo, "log", str(log))
        server, client = start_server(
            tmp_path, workers=2, job_timeout=1.0, cell_timeout=None
        )
        try:
            start = time.monotonic()
            final, _ = client.run_job(
                sweep_spec("test-serve-pid-hang", sizes=[12, 16], trials=2)
            )
            assert time.monotonic() - start < 3.0
            assert final["job"]["state"] == "timeout"
            lines = log.read_text().splitlines()
            workers = {int(line.split()[0]) for line in lines}
            job_process = {int(line.split()[1]) for line in lines}
            assert len(workers) == 2 and len(job_process) == 1
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if not any(map(_alive, workers | job_process)):
                    break
                time.sleep(0.02)
            assert [p for p in workers | job_process if _alive(p)] == []
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "owner, method",
        [
            (ParallelSweepExecutor, "_maybe_cache"),
            (MetricsRegistry, "merge_snapshot"),
        ],
        ids=["cache-write", "metrics-merge"],
    )
    def test_job_killed_mid_write_leaves_daemon_consistent(
        self, tmp_path, monkeypatch, owner, method
    ):
        server, client = start_server(tmp_path, cell_timeout=None)
        try:
            warm, _ = client.run_job(sweep_spec(sizes=[12]))
            assert warm["job"]["state"] == "done"
            daemon = os.getpid()
            original = getattr(owner, method)

            def stall(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                if os.getpid() != daemon:  # inside the job process only
                    time.sleep(30.0)
                return out

            monkeypatch.setattr(owner, method, stall)
            server.config.job_timeout = 1.0
            spec = sweep_spec(sizes=[14, 18], seed=5)
            before = server.metrics.snapshot()
            final, _ = client.run_job(spec)
            assert final["job"]["state"] == "timeout"
            after = server.metrics.snapshot()

            grew = {
                key: value - before["counters"].get(key, 0)
                for key, value in after["counters"].items()
                if value != before["counters"].get(key)
            }
            assert grew == {'repro_serve_jobs_total{status="timeout"}': 1}
            assert after["gauges"] == before["gauges"]
            assert set(after["histograms"]) == set(before["histograms"])
            for key, hist in after["histograms"].items():
                if key == "repro_serve_job_seconds":
                    old = before["histograms"][key]["count"]
                    assert hist["count"] == old + 1
                else:
                    assert hist == before["histograms"][key]

            for path in (tmp_path / "sv-cache").rglob("*.json"):
                json.loads(path.read_text())

            monkeypatch.undo()
            server.config.job_timeout = 60.0
            again, _ = client.run_job(spec)
            assert again["job"]["state"] == "done"
            clean = execute_job(
                canonical_spec(spec),
                ParallelSweepExecutor(workers=0, use_cache=False),
            )
            assert again["job"]["result"]["rows"] == clean["rows"]
        finally:
            server.stop()

    def test_cell_that_kills_the_job_process_fails_the_job(self, tmp_path):
        # workers=0 and no cell cap: the cell runs in the job process
        # itself, so its SIGKILL takes the job process down.
        server, client = start_server(tmp_path, workers=0, cell_timeout=None)
        try:
            final, _ = client.run_job(
                sweep_spec("test-serve-kill", sizes=[12])
            )
            job = final["job"]
            assert job["state"] == "failed"
            assert "job process died" in job["error"]
            after, _ = client.run_job(sweep_spec(sizes=[12]))
            assert after["job"]["state"] == "done"
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_invalid_and_oversized_specs_are_rejected(self, tmp_path):
        server, client = start_server(tmp_path, max_cells=4)
        try:
            bad = client.submit({"kind": "nope"})
            assert bad["ok"] is False and bad["rejected"]
            assert bad["reason"].startswith("invalid:")

            fat = client.submit(sweep_spec(sizes=[8, 12, 16], trials=9))
            assert fat["ok"] is False and fat["rejected"]
            assert "cell budget" in fat["reason"]

            # watch-mode rejection is the same structured line
            final, events = client.run_job({"kind": "nope"})
            assert final["ok"] is False and events == []

            assert counter_value(server, "rejected") == 3
            # rejected jobs are not remembered
            assert client.jobs() == []
        finally:
            server.stop()

    def test_full_queue_rejects_structurally(self, tmp_path):
        server, client = start_server(
            tmp_path, max_queue=1, job_timeout=30.0, cell_timeout=2.0
        )
        try:
            # occupy the runner...
            running = client.submit(
                sweep_spec("test-serve-hang", sizes=[12],
                           cell_timeout=2.0)
            )
            assert running["ok"]
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if client.status(running["job"])["job"]["state"] == "running":
                    break
                time.sleep(0.02)
            # ...fill the single queue slot...
            queued = client.submit(sweep_spec(sizes=[10], seed=1))
            assert queued["ok"]
            # ...and the next distinct job bounces.
            bounced = client.submit(sweep_spec(sizes=[10], seed=2))
            assert bounced["ok"] is False and bounced["rejected"]
            assert "queue full" in bounced["reason"]
            # a duplicate of a queued job still attaches, full or not
            dup = client.submit(sweep_spec(sizes=[10], seed=1))
            assert dup["ok"] and dup["deduped"]
        finally:
            server.stop()
