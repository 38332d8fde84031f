"""The worker pool: how cache-missed cells reach worker processes.

The executor (:class:`repro.experiments.parallel.ParallelSweepExecutor`)
keeps result handling, caching and telemetry in the parent process and
hands the cells it has to run to :class:`WorkStealingBackend`: N forked
workers that take one cell at a time from a shared cursor over the
cells, ordered largest ``n`` first.  The most expensive cells therefore
start at once and the small ones fill the gaps (the LPT heuristic); no
worker sits idle while another still has a queue of its own.  The sort
is stable on input order, so the trials of one topology stay adjacent
and tend to share a worker's warm in-process topology LRU.

Each worker announces a cell before running it and sends the payload
after, both on its own pipe, which only that worker writes.  A worker
that dies (a SIGKILL'd cell, the OOM killer) therefore shows up as the
end of its pipe, after everything it sent, and costs exactly the one
cell it announced: that cell drains as ``None`` and the executor
retries it in a one-worker pool.

The pool also enforces ``cell_timeout``.  The parent notes when each
announcement arrives; a cell whose budget runs out before its payload
does has its worker killed and drains as a ``timeout`` payload.  Ending
the process is what bounds the cell, so a pure-Python loop, a blocked
``sleep`` and a long C call all stop on time.  A worker that ends while
holding a cell is replaced by a fresh one on the same cursor, so the
pool keeps its width.  Nothing a killed worker held can stall the
others: the cursor's lock is a POSIX record lock and the topology
store's per-key lock an ``flock``, and the kernel drops both with the
process.

Determinism contract: the pool only decides *where and when* a cell
runs.  Every cell still executes via
:func:`repro.experiments.parallel.run_cell` from its plain-data spec,
so rows are bit-identical inline and pooled at any worker count,
enforced by the conformance tests in ``tests/test_backends.py``.
"""

from __future__ import annotations

import fcntl
import tempfile
import time
from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


def _steal_worker(order, cursor, lock, conn, specs, topology_store, collect):
    """Worker-process loop: take the next cell, announce it, run it,
    send the payload.  ``run_cell`` is looked up on its module at call
    time, so a wrapper installed there before the fork is the one that
    runs."""
    from repro.experiments import parallel

    while True:
        # A lockf lock belongs to its process, so a worker killed while
        # holding it releases it.
        fcntl.lockf(lock, fcntl.LOCK_EX)
        at = cursor.value
        cursor.value = at + 1
        fcntl.lockf(lock, fcntl.LOCK_UN)
        if at >= len(order):
            return
        index = order[at]
        conn.send(("start", index))
        payload = parallel.run_cell(
            specs[index],
            topology_store=topology_store,
            collect_metrics=collect,
        )
        conn.send(("done", index, payload))


class WorkStealingBackend:
    """N forked workers stealing cells, largest ``n`` first."""

    def __init__(
        self,
        workers: int,
        cell_timeout: Optional[float] = None,
        topology_store: Optional[Any] = None,
        collect_metrics: bool = False,
    ):
        self.workers = max(1, workers)
        self.cell_timeout = cell_timeout
        self.topology_store = topology_store
        self.collect_metrics = collect_metrics

    def drain(
        self, specs: Sequence[Any]
    ) -> Iterator[Tuple[int, Optional[Dict[str, Any]]]]:
        """Run every spec; yield ``(index, payload)`` once per spec, in
        completion order, with ``payload=None`` for a cell whose worker
        died and a ``timeout`` payload for one that overran
        ``cell_timeout``.  Closing the generator early kills the
        workers."""
        if not specs:
            return
        ctx = get_context("fork")
        order = sorted(
            range(len(specs)), key=lambda i: specs[i].n, reverse=True
        )
        cursor = ctx.RawValue("q", 0)
        lock = tempfile.TemporaryFile()
        budget = self.cell_timeout
        # pipe -> [worker process, announced cell or None, announced at]
        running: Dict[Any, List[Any]] = {}

        def fork() -> None:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_steal_worker,
                args=(
                    order,
                    cursor,
                    lock,
                    send,
                    specs,
                    self.topology_store,
                    self.collect_metrics,
                ),
                daemon=True,
            )
            proc.start()
            # Close the parent's write end before the next fork, so the
            # worker holds the only one and its exit is EOF.
            send.close()
            running[recv] = [proc, None, 0.0]

        def retire(conn) -> None:
            """Forget an ended worker; replace it if it held a cell
            (each replacement is paid for by a consumed cell) and the
            cursor has cells left."""
            proc, index, _ = running.pop(conn)
            conn.close()
            proc.join()
            if index is not None and cursor.value < len(order):
                fork()

        try:
            for _ in range(min(self.workers, len(specs))):
                fork()
            unfinished = set(range(len(specs)))
            while running:
                timeout = None
                if budget is not None:
                    starts = [
                        since for _, index, since in running.values()
                        if index is not None
                    ]
                    if starts:
                        timeout = max(
                            0.0, min(starts) + budget - time.monotonic()
                        )
                for conn in wait(list(running), timeout):
                    worker = running[conn]
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # The worker is gone; a cell it announced but
                        # never finished died with it.
                        index = worker[1]
                        retire(conn)
                        if index is not None:
                            unfinished.discard(index)
                            yield index, None
                        continue
                    if msg[0] == "start":
                        worker[1], worker[2] = msg[1], time.monotonic()
                    else:
                        worker[1] = None
                        unfinished.discard(msg[1])
                        yield msg[1], msg[2]
                if budget is None:
                    continue
                now = time.monotonic()
                for conn, (proc, index, since) in list(running.items()):
                    if index is None or now - since < budget or conn.poll():
                        continue
                    # Over budget with no payload waiting: the cell ends
                    # with its worker.
                    proc.kill()
                    retire(conn)
                    unfinished.discard(index)
                    yield index, {
                        "ok": False,
                        "status": "timeout",
                        "error": f"cell exceeded {budget}s budget",
                        "error_kind": "Timeout",
                        "duration": now - since,
                    }
            # Cells no worker announced (one died between claiming and
            # announcing a cell, or every worker died before the cursor
            # ran out) can no longer run here.
            for index in sorted(unfinished):
                yield index, None
        finally:
            for conn, (proc, _, _) in running.items():
                proc.kill()  # the caller stopped early
                proc.join()
                conn.close()
            lock.close()


#: Every pool class, by name.  Instrumentation (perfbench's tracer)
#: finds the pool's ``drain`` through this map.
BACKENDS = {"steal": WorkStealingBackend}
