"""The wake-up sweep daemon.

``repro serve`` binds a local stream socket and accepts
sweep/check/worstcase jobs from many concurrent clients — the software
analogue of the paper's adversarial arrival model: work shows up at
unpredictable times and the system must stay responsive and bounded.

Architecture (one daemon process, three thread roles, one job process
at a time):

* **accept loop** — takes connections off the listener, one handler
  thread per connection (the protocol is one request per connection,
  so handlers are short-lived unless they ``watch`` a job).
* **handlers** — parse the request, run admission control, and either
  answer immediately or subscribe to a job's event stream.
* **job runner** — a single thread draining the admitted-job queue.
  Jobs execute serially; *intra*-job parallelism is the executor's
  worker pool.  Serial execution is also what makes cross-job work
  deduplication free: overlapping jobs admitted together run one after
  another against the same cell cache, so each distinct cell executes
  exactly once (the later job replays it as a cache hit).
* **job process** — the runner forks one per job, after deriving in
  the daemon what later jobs reuse (the graphs salt and, for a sweep,
  the algorithm's cell salts), so every job process inherits it.  It
  leads its own process group (its pool workers join it), installs a
  fresh metrics registry as the global one, relays its telemetry to
  the runner over a pipe, and ends by sending its result (or error)
  plus the registry snapshot.  The runner publishes the relayed
  events to the job's watchers and merges the snapshot into the
  daemon registry under the metrics lock, which guards every access
  to that registry.

Admission control — every path produces a *structured* rejection line,
never a dropped connection:

* invalid spec (``validate_job``) → ``invalid: ...``;
* cell budget (``count_cells(spec) > max_cells``) → ``cell budget``;
* bounded queue full (``max_queue``) → ``queue full`` (backpressure:
  thousands of queued jobs degrade into fast rejections, not
  unbounded memory).

Budgets end processes.  A cell over ``cell_timeout`` has its pool
worker killed by the executor (a job with a cell cap therefore runs its
cells in a worker even at ``workers`` 0).  At ``job_timeout`` the
runner kills the job's whole process group, pool workers included, and
drops whatever the job had not yet sent in full: a killed job adds
nothing to the daemon registry but its ``repro_serve_*`` entries, and
no event is half-published.

A crashed or timed-out cell is already a structured outcome at the
executor layer; a job that raises, times out, dies without its final
message, or is cancelled by shutdown becomes a structured
``failed``/``timeout`` job record — the daemon itself keeps serving
either way.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import socket
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.parallel import (
    DEFAULT_CACHE_DIR,
    ParallelSweepExecutor,
)
from repro.graphs.compile import DEFAULT_TOPOLOGY_DIR
from repro.obs.events import serialize_event
from repro.obs.metrics import (
    MetricsRegistry,
    emit_snapshot,
    set_global_registry,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.serve.jobs import (
    canonical_spec,
    count_cells,
    execute_job,
    job_id,
)
from repro.serve.protocol import (
    DEFAULT_SOCKET,
    MAX_LINE_BYTES,
    ProtocolError,
    dump_line,
    parse_request,
)
from repro.versioning import cell_salt_vector


#: States a job can be observed in; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "timeout")

#: Per-job event backlog replayed to late watchers (ring buffer).
BACKLOG_EVENTS = 10_000

#: Terminal jobs remembered for ``status``/``jobs`` queries.
HISTORY = 1024


@dataclass
class ServeConfig:
    """Daemon knobs (all surfaced as ``repro serve`` flags)."""

    socket_path: str = DEFAULT_SOCKET
    #: Bounded admission queue; a full queue rejects, never blocks.
    max_queue: int = 64
    #: Largest cell budget a single job may claim.
    max_cells: int = 512
    #: Per-job wall-clock budget in seconds (None = unbounded).
    job_timeout: Optional[float] = 120.0
    #: Per-cell budget cap; job specs may ask for less, never more.
    cell_timeout: Optional[float] = 30.0
    #: Executor worker processes (0/1 = cells in the job process,
    #: unless a cell budget applies).
    workers: int = 0
    cache_dir: str = str(DEFAULT_CACHE_DIR)
    topology_dir: str = str(DEFAULT_TOPOLOGY_DIR)
    use_cache: bool = True


class Job:
    """One admitted job: spec + state + an event stream fan-out.

    ``publish``/``subscribe``/``finish`` share one lock, so a watcher
    atomically receives the backlog-so-far and then every later event
    exactly once, in order, regardless of when it attached.
    """

    def __init__(self, jid: str, spec: Dict[str, Any], backlog: int):
        self.id = jid
        self.spec = spec
        self.state = "queued"
        self.submitted = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.duration = 0.0
        self.clients = 1
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self._lock = threading.Lock()
        self._backlog: deque = deque(maxlen=backlog)
        self._subs: List[queue.SimpleQueue] = []

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "timeout")

    def publish(self, line: bytes) -> None:
        with self._lock:
            self._backlog.append(line)
            for q in self._subs:
                q.put(line)

    def subscribe(
        self,
    ) -> Tuple[List[bytes], Optional["queue.SimpleQueue"]]:
        """Backlog snapshot + a live queue (None when already
        terminal — the backlog is the whole story)."""
        with self._lock:
            backlog = list(self._backlog)
            if self.terminal:
                return backlog, None
            q: queue.SimpleQueue = queue.SimpleQueue()
            self._subs.append(q)
            return backlog, q

    def unsubscribe(self, q: "queue.SimpleQueue") -> None:
        with self._lock:
            if q in self._subs:
                self._subs.remove(q)

    def finish(
        self,
        state: str,
        result: Optional[Dict[str, Any]],
        error: Optional[str],
        duration: float,
    ) -> None:
        with self._lock:
            self.state = state
            self.result = result
            self.error = error
            self.duration = duration
            self.finished = time.time()
            for q in self._subs:
                q.put(None)  # stream sentinel
            self._subs.clear()

    def summary(self, with_result: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.spec["kind"],
            "algorithm": self.spec["algorithm"],
            "state": self.state,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "duration": self.duration,
            "clients": self.clients,
        }
        if self.error is not None:
            out["error"] = self.error
        if with_result and self.result is not None:
            out["result"] = self.result
        return out


class _JobRecorder(Recorder):
    """Fans executor/explorer telemetry out to a job's watchers and
    tees it into the daemon-wide log (``repro serve --telemetry``)."""

    def __init__(self, job: Job, tee: Recorder):
        self._job = job
        self._tee = tee

    def write(self, event: Dict[str, Any]) -> None:
        self._job.publish(
            (serialize_event(event) + "\n").encode("ascii")
        )
        if self._tee.enabled:
            self._tee.write(event)


class _PipeRecorder(Recorder):
    """A job process's telemetry sink: every event goes to the runner,
    which publishes it through the job's :class:`_JobRecorder`."""

    def __init__(self, conn):
        self._conn = conn

    def write(self, event: Dict[str, Any]) -> None:
        self._conn.send(("event", event))


class SweepServer:
    """See the module docstring for the threading/admission model."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        recorder: Optional[Recorder] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.log = recorder if recorder is not None else NULL_RECORDER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        self._lock = threading.Lock()  # _jobs + depth bookkeeping
        self._mlock = threading.Lock()  # every daemon-registry access
        self._depth = 0  # admitted, not yet terminal
        self._shutdown = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._job_proc: Optional[Any] = None  # the running job process
        self.started_at = time.time()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        path = Path(self.config.socket_path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        for target, name in (
            (self._accept_loop, "serve-accept"),
            (self._runner_loop, "serve-runner"),
        ):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)

    def serve_forever(self) -> None:
        """Blocking entry point: :meth:`start` then wait for a
        ``shutdown`` op or KeyboardInterrupt."""
        if self._listener is None:
            self.start()
        try:
            while not self._shutdown.wait(timeout=0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting; fail queued jobs structurally; wait for the
        runner to finish the in-flight job, and kill the job's process
        group if that takes longer than 30 s."""
        self._shutdown.set()
        for t in self._threads:
            t.join(timeout=30.0)
        proc = self._job_proc
        if proc is not None:  # not daemonic: exit would wait for it
            with contextlib.suppress(OSError):
                os.killpg(proc.pid, signal.SIGKILL)
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None
        with contextlib.suppress(OSError):
            os.unlink(self.config.socket_path)
        # Jobs still queued never ran: terminal, structured, observable.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is None:
                continue
            self._finish_job(
                job, "failed", None,
                "daemon shut down before execution", 0.0,
            )

    # -- accept / handlers ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            )
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(30.0)
            try:
                req = parse_request(self._recv_line(conn))
            except ProtocolError as exc:
                self._send(conn, {"ok": False, "error": str(exc)})
                return
            handler = {
                "ping": self._op_ping,
                "submit": self._op_submit,
                "status": self._op_status,
                "jobs": self._op_jobs,
                "stats": self._op_stats,
                "shutdown": self._op_shutdown,
            }[req["op"]]
            handler(conn, req)
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            pass
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    @staticmethod
    def _recv_line(conn: socket.socket) -> bytes:
        buf = b""
        while b"\n" not in buf:
            chunk = conn.recv(65536)
            if not chunk:
                break
            buf += chunk
            if len(buf) > MAX_LINE_BYTES:
                raise ProtocolError("request exceeds MAX_LINE_BYTES")
        return buf.split(b"\n", 1)[0]

    @staticmethod
    def _send(conn: socket.socket, obj: Dict[str, Any]) -> None:
        conn.sendall(dump_line(obj))

    # -- ops -------------------------------------------------------------
    def _op_ping(self, conn, req) -> None:
        self._send(
            conn,
            {"ok": True, "pong": True,
             "uptime": time.time() - self.started_at},
        )

    def _op_status(self, conn, req) -> None:
        jid = req.get("job")
        with self._lock:
            job = self._jobs.get(jid)
        if job is None:
            self._send(
                conn, {"ok": False, "error": f"unknown job {jid!r}"}
            )
            return
        self._send(conn, {"ok": True, "job": job.summary()})

    def _op_jobs(self, conn, req) -> None:
        with self._lock:
            summaries = [
                j.summary(with_result=False)
                for j in self._jobs.values()
            ]
        self._send(conn, {"ok": True, "jobs": summaries})

    def _op_stats(self, conn, req) -> None:
        with self._lock:
            depth = self._depth
            by_state: Dict[str, int] = {}
            for j in self._jobs.values():
                by_state[j.state] = by_state.get(j.state, 0) + 1
        self._send(
            conn,
            {
                "ok": True,
                "queue_depth": depth,
                "jobs_by_state": by_state,
                "uptime": time.time() - self.started_at,
                "metrics": self._metrics_snapshot(),
            },
        )

    def _op_shutdown(self, conn, req) -> None:
        self._send(conn, {"ok": True, "stopping": True})
        self._shutdown.set()

    def _op_submit(self, conn, req) -> None:
        raw = req.get("job")
        watch = bool(req.get("watch", False))
        job, deduped, rejection = self._admit(raw)
        if rejection is not None:
            self._send(conn, rejection)
            return
        ack = {
            "ok": True,
            "job": job.id,
            "state": job.state,
            "deduped": deduped,
            "queue_depth": self._depth,
        }
        if not watch:
            self._send(conn, ack)
            return
        self._send(conn, ack)
        backlog, live = job.subscribe()
        try:
            for line in backlog:
                conn.sendall(line)
            if live is not None:
                while True:
                    line = live.get()
                    if line is None:
                        break
                    conn.sendall(line)
            self._send(conn, {"done": True, "job": job.summary()})
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass
        finally:
            if live is not None:
                job.unsubscribe(live)

    # -- admission -------------------------------------------------------
    def _admit(
        self, raw: Any
    ) -> Tuple[Optional[Job], bool, Optional[Dict[str, Any]]]:
        try:
            canon = canonical_spec(raw if raw is not None else {})
        except ValueError as exc:
            return None, False, self._reject("invalid", f"invalid: {exc}")
        jid = job_id(canon)
        cells = count_cells(canon)
        if cells > self.config.max_cells:
            return None, False, self._reject(
                jid,
                f"cell budget: job wants {cells} cells, "
                f"max_cells={self.config.max_cells}",
            )
        with self._lock:
            existing = self._jobs.get(jid)
            if existing is not None and existing.state in (
                "queued", "running", "done",
            ):
                # In-flight or completed dedup: attach, don't re-run.
                existing.clients += 1
                with self._mlock:
                    self.metrics.counter(
                        "repro_serve_jobs_total", status="deduped"
                    ).inc()
                return existing, True, None
            job = Job(jid, canon, BACKLOG_EVENTS)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                return None, False, self._reject(
                    jid,
                    f"queue full: {self.config.max_queue} jobs "
                    "already admitted",
                )
            self._jobs[jid] = job
            self._depth += 1
            depth = self._depth
            self._trim_history()
        with self._mlock:
            self.metrics.gauge("repro_serve_queue_depth").set(depth)
        _JobRecorder(job, self.log).emit(
            "job_queued", job=jid, job_kind=canon["kind"],
            queue_depth=depth,
        )
        return job, False, None

    def _reject(self, jid: str, reason: str) -> Dict[str, Any]:
        with self._mlock:
            self.metrics.counter(
                "repro_serve_jobs_total", status="rejected"
            ).inc()
        if self.log.enabled:
            self.log.emit("job_rejected", job=jid, reason=reason)
        return {
            "ok": False,
            "rejected": True,
            "job": jid,
            "reason": reason,
        }

    def _trim_history(self) -> None:
        # Under self._lock.  Evict oldest *terminal* jobs beyond the
        # history bound; live jobs are never evicted.
        excess = len(self._jobs) - HISTORY
        if excess <= 0:
            return
        for jid in [
            j.id for j in self._jobs.values() if j.terminal
        ][:excess]:
            del self._jobs[jid]

    # -- the runner ------------------------------------------------------
    def _runner_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            if job is None:
                continue
            try:
                self._run_job(job)
            except OSError as exc:  # e.g. no memory left to fork
                self._finish_job(job, "failed", None, str(exc), 0.0)

    def _make_executor(
        self, job: Job, rec: Recorder
    ) -> ParallelSweepExecutor:
        requested = job.spec.get("cell_timeout")
        cap = self.config.cell_timeout
        if requested is None:
            cell_timeout = cap
        elif cap is None:
            cell_timeout = float(requested)
        else:
            cell_timeout = min(float(requested), cap)
        return ParallelSweepExecutor(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            use_cache=self.config.use_cache,
            cell_timeout=cell_timeout,
            recorder=rec,
            topology_dir=self.config.topology_dir,
        )

    def _run_job(self, job: Job) -> None:
        rec = _JobRecorder(job, self.log)
        job.state = "running"
        job.started = time.time()
        start = time.perf_counter()
        rec.emit("job_start", job=job.id, job_kind=job.spec["kind"])
        budget = self.config.job_timeout
        ctx = get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        # Built here, so what it derives once (the graphs salt) stays
        # in the daemon for every later job.
        executor = self._make_executor(job, _PipeRecorder(send))
        if job.spec["kind"] == "sweep":
            # Likewise the algorithm's cell salts, which every cell key
            # of the job needs.  Whatever goes wrong here goes wrong
            # again, and fails the job, in the job process.
            with contextlib.suppress(Exception):
                cell_salt_vector(job.spec["algorithm"])
        # Not daemonic: a daemonic process may not fork the pool.
        proc = ctx.Process(target=_job_main, args=(job.spec, executor, send))
        proc.start()
        send.close()
        with contextlib.suppress(OSError):  # the child may have exited
            os.setpgid(proc.pid, proc.pid)
        self._job_proc = proc
        final = None
        timed_out = snapshot_due = False
        try:
            while final is None:
                left = None
                if budget is not None:
                    left = max(0.0, start + budget - time.perf_counter())
                if not recv.poll(left):
                    timed_out = True
                    break
                try:
                    msg = recv.recv()
                except (EOFError, OSError):
                    break  # exited or died before its final message
                if msg[0] != "event":
                    final = msg
                elif msg[1]["kind"] == "metrics_snapshot":
                    # Published below as the daemon registry's, once
                    # this job's metrics are merged into it, so the
                    # stream's snapshots only ever accumulate.
                    snapshot_due = True
                else:
                    rec.write(msg[1])
        finally:
            # Whatever the outcome, nothing the job forked outlives it.
            with contextlib.suppress(OSError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.join()
            recv.close()
            self._job_proc = None
        status, result, error = "failed", None, None
        if timed_out:
            status, error = "timeout", _budget_msg(budget)
        elif final is None:
            error = (
                f"job process died (exit code {proc.exitcode}) "
                "before sending its result"
            )
        else:
            _, result, error, snapshot = final
            with self._mlock:
                self.metrics.merge_snapshot(snapshot)
                if snapshot_due:
                    emit_snapshot(rec, self.metrics)
            # A sweep whose cells crashed / timed out / failed is a
            # *failed job* with the per-cell records attached — not a
            # "done" job with bad news buried in the payload.
            bad = (result or {}).get("failed_cells") or []
            if bad:
                error = "{} cell(s) did not complete ({})".format(
                    len(bad),
                    ", ".join(sorted({str(c["status"]) for c in bad})),
                )
            elif error is None:
                status = "done"
        duration = time.perf_counter() - start
        rec.emit("job_end", job=job.id, status=status, duration=duration)
        self._finish_job(job, status, result, error, duration)

    def _finish_job(
        self,
        job: Job,
        status: str,
        result: Optional[Dict[str, Any]],
        error: Optional[str],
        duration: float,
    ) -> None:
        job.finish(status, result, error, duration)
        with self._lock:
            self._depth -= 1
            depth = self._depth
        with self._mlock:
            self.metrics.counter(
                "repro_serve_jobs_total", status=status
            ).inc()
            self.metrics.histogram("repro_serve_job_seconds").observe(
                duration
            )
            self.metrics.gauge("repro_serve_queue_depth").set(depth)

    def _metrics_snapshot(self) -> Dict[str, Any]:
        with self._mlock:
            return self.metrics.snapshot()


def _job_main(
    spec: Dict[str, Any], executor: ParallelSweepExecutor, conn
) -> None:
    """Body of a job process: run the job against a fresh global
    registry, relay its events over ``conn`` (the executor's recorder
    writes there), then send the result (or the error) and the
    registry snapshot.

    The daemon forks this from a thread while other threads may hold
    the server's locks, so it takes none of them: it writes only to its
    own registry and pipe."""
    os.setpgid(0, 0)  # the runner sets it too; whichever runs first
    registry = MetricsRegistry()
    set_global_registry(registry)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    try:
        result = execute_job(spec, executor, recorder=executor.recorder)
    except Exception as exc:  # the job failed, not the daemon
        error = f"{type(exc).__name__}: {exc}"
    conn.send(("end", result, error, registry.snapshot()))


def _budget_msg(budget: Optional[float]) -> str:
    return f"job exceeded its {budget:g}s wall budget"
