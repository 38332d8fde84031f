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
retries it in its isolated single-worker pool.  The survivors keep
taking cells.

``backend="serial"`` (``--exec-backend serial``) is not a pool: the
executor runs cells inline, as it does for ``workers`` 0 and 1.

Determinism contract: the pool only decides *where and when* a cell
runs.  Every cell still executes via
:func:`repro.experiments.parallel.run_cell` from its plain-data spec,
so rows are bit-identical inline and pooled at any worker count,
enforced by the conformance tests in ``tests/test_backends.py``.
"""

from __future__ import annotations

from multiprocessing import get_context
from multiprocessing.connection import wait
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


def _steal_worker(order, cursor, conn, specs, cell_timeout, topology_store,
                  collect):
    """Worker-process loop: take the next cell, announce it, run it,
    send the payload.  ``run_cell`` is looked up on its module at call
    time, so a wrapper installed there before the fork is the one that
    runs."""
    from repro.experiments import parallel

    while True:
        with cursor.get_lock():
            at = cursor.value
            cursor.value = at + 1
        if at >= len(order):
            return
        index = order[at]
        conn.send(("start", index))
        payload = parallel.run_cell(
            specs[index],
            cell_timeout,
            topology_store=topology_store,
            collect_metrics=collect,
        )
        conn.send(("done", index, payload))


class WorkStealingBackend:
    """N forked workers stealing cells, largest ``n`` first."""

    #: Longest wait for a worker message.  A bounded wait lets an
    #: exception raised into this thread (the serve daemon's job
    #: budget) land promptly; it cannot land inside a blocking call.
    _POLL_S = 0.1

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
        died.  Closing the generator early kills the workers."""
        if not specs:
            return
        ctx = get_context("fork")
        order = sorted(
            range(len(specs)), key=lambda i: specs[i].n, reverse=True
        )
        cursor = ctx.Value("q", 0)
        holding: Dict[Any, Optional[int]] = {}  # pipe -> announced cell
        procs: List[Any] = []
        try:
            for _ in range(min(self.workers, len(specs))):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_steal_worker,
                    args=(
                        order,
                        cursor,
                        send,
                        specs,
                        self.cell_timeout,
                        self.topology_store,
                        self.collect_metrics,
                    ),
                    daemon=True,
                )
                proc.start()
                # Close the parent's write end before the next fork, so
                # the worker holds the only one and its exit is EOF.
                send.close()
                procs.append(proc)
                holding[recv] = None
            unfinished = set(range(len(specs)))
            while holding:
                for conn in wait(list(holding), self._POLL_S):
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # The worker is gone; a cell it announced but
                        # never finished died with it.
                        index = holding.pop(conn)
                        conn.close()
                        if index is not None:
                            unfinished.discard(index)
                            yield index, None
                        continue
                    if msg[0] == "start":
                        holding[conn] = msg[1]
                    else:
                        holding[conn] = None
                        unfinished.discard(msg[1])
                        yield msg[1], msg[2]
            # Cells no worker announced (every worker died before the
            # cursor ran out) can no longer run here.
            for index in sorted(unfinished):
                yield index, None
        finally:
            for proc in procs:
                if proc.is_alive():  # the caller stopped early
                    proc.kill()
                proc.join()
            for conn in holding:
                conn.close()


#: Pool registry, keyed by ``--exec-backend`` name.  ``serial`` is the
#: executor's inline path and has no pool.
BACKENDS = {"steal": WorkStealingBackend}
