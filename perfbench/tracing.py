"""Per-layer spans, installed from the benchmark's own files.

The tracer wraps the program's public entry points of every layer (the
``TARGETS`` table) without touching program code.  Each call records a
span ``[name, start, end, parent, job]`` in memory; a layer's self time
is its span's duration minus its child spans.  Spans are written out
when the run ends.

Wrappers go in at every name a caller looks up, not only where the
function is defined: ``repro.experiments.parallel`` binds
``compiled_topology`` at import, ``repro.check.worlds`` binds
``make_setup``, the check modules bind ``run_wakeup``.  ``install``
therefore scans every loaded ``repro`` module for the original object.

Pooled workers inherit the wrappers through ``fork`` but leave through
``os._exit``, so nothing registered with ``atexit`` runs there.  A
worker instead appends its spans to its own file after every cell.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

perf = time.perf_counter

#: (span name, module, attribute path).  A "*" attribute path names a
#: method on every class a resolver in ``_CLASS_SETS`` returns.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.fetch", "repro.graphs.compile", "compiled_topology"),
    ("models.make_setup", "repro.models.knowledge", "make_setup"),
    # The class-G check worlds build their setup with their own method.
    ("models.make_setup", "repro.lowerbounds.graph_g", "ClassG.make_setup"),
    ("core.advice", "*algorithms", "compute_advice"),
    ("core.build_nodes", "*algorithms", "build_nodes"),
    ("sim.engine", "repro.sim.async_engine", "AsyncEngine.run"),
    ("sim.engine", "repro.sim.sync_engine", "SyncEngine.run"),
    ("sim.engine", "repro.sim.bulk", "BulkSyncEngine.run"),
    ("sim.runner", "repro.sim.runner", "run_wakeup"),
    ("sim.serialize", "repro.sim.runner", "WakeUpResult.to_lean_dict"),
    ("sim.deserialize", "repro.sim.runner", "WakeUpResult.from_lean_dict"),
    ("experiments.cell_key", "repro.experiments.parallel", "cell_key"),
    ("experiments.executor", "repro.experiments.parallel",
     "ParallelSweepExecutor.run"),
    ("experiments.aggregate", "repro.experiments.sweeps", "rows_from_outcomes"),
    ("experiments.aggregate", "repro.experiments.table1", "measure_table1"),
    ("experiments.save", "repro.experiments.storage", "save_records"),
    ("backends.drain", "*backends", "drain"),
    ("backends.worker", "repro.experiments.parallel", "run_cell"),
    ("obs.merge", "repro.obs.metrics", "MetricsRegistry.merge_snapshot"),
    ("check.loop", "repro.check.controller", "run_controlled"),
    ("check.fingerprint", "repro.check.controller", "ChoicePoint.fingerprint"),
    ("check.choose", "*controllers", "choose"),
    ("check.invariant", "*invariants", "check"),
    ("versioning.salts", "repro.versioning", "cell_salt_vector"),
)

#: Span name -> the per-job self-time metric it feeds.  Salt lookups
#: inside a job are memo hits made by ``cell_key``; the derivation
#: itself happens in set-up and is reported as ``versioning.salts_ms``.
JOB_METRIC = {
    "graphs.fetch": "graphs.fetch_ms",
    "models.make_setup": "models.make_setup_ms",
    "core.advice": "core.advice_ms",
    "core.build_nodes": "core.build_nodes_ms",
    "sim.engine": "sim.engine_ms",
    "sim.runner": "sim.runner_ms",
    "sim.serialize": "sim.serialize_ms",
    "sim.deserialize": "sim.deserialize_ms",
    "experiments.cell_key": "experiments.cell_key_ms",
    "experiments.executor": "experiments.executor_self_ms",
    "experiments.aggregate": "experiments.aggregate_ms",
    "experiments.save": "experiments.save_ms",
    "backends.drain": "backends.drain_ms",
    "obs.merge": "obs.merge_ms",
    "check.loop": "check.loop_ms",
    "check.fingerprint": "check.fingerprint_ms",
    "check.choose": "check.choose_ms",
    "check.invariant": "check.invariant_ms",
    "versioning.salts": "experiments.cell_key_ms",
}


def _subclasses(base: type) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _algorithm_classes() -> List[type]:
    from repro.core.base import WakeUpAlgorithm

    return _subclasses(WakeUpAlgorithm)


def _backend_classes() -> List[type]:
    from repro.experiments.backends import BACKENDS

    return list(BACKENDS.values())


def _controller_classes() -> List[type]:
    from repro.check.controller import ScheduleController

    return _subclasses(ScheduleController)


def _invariant_classes() -> List[type]:
    from repro.check.invariants import Invariant

    return _subclasses(Invariant)


_CLASS_SETS: Dict[str, Callable[[], List[type]]] = {
    "*algorithms": _algorithm_classes,
    "*backends": _backend_classes,
    "*controllers": _controller_classes,
    "*invariants": _invariant_classes,
}

#: Modules the class resolvers need loaded; imported before a scan so
#: every subclass is registered.
PRELOAD = (
    "repro.core.registry",
    "repro.experiments.backends",
    "repro.experiments.parallel",
    "repro.experiments.sweeps",
    "repro.experiments.table1",
    "repro.experiments.storage",
    "repro.check.controller",
    "repro.check.explorer",
    "repro.check.worstcase",
    "repro.check.worlds",
    "repro.check.invariants",
    "repro.lowerbounds.graph_g",
    "repro.sim.bulk",
)


def _resolve(module: str, path: str) -> List[Tuple[Any, str]]:
    """(owner, attribute) pairs where the target is defined.  A target
    the program no longer has is skipped: its time then shows up in
    ``unattributed_ms`` instead of breaking the run."""
    if module.startswith("*"):
        return [
            (cls, path) for cls in _CLASS_SETS[module]()
            if path in cls.__dict__
        ]
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return []
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return []
    return [(owner, attr)] if attr in vars(owner) else []


class Tracer:
    """Span store plus the installed wrappers of one process."""

    def __init__(self, out_dir: Path, inflate: Optional[Set[str]] = None):
        self.out_dir = out_dir
        #: Closed spans: (id, name, start, end, parent id, job).
        self.spans: List[tuple] = []
        self.stack: List[list] = []
        self._next = 0
        self.counts: Dict[Tuple[Any, str], float] = {}
        self.job: Any = None
        self.parent_pid = os.getpid()
        #: Sensitivity check: the span names whose calls are doubled by
        #: spinning (their wrappers are then the only ones installed).
        self.inflate = inflate
        self._wrapped: Dict[int, Tuple[Any, Any]] = {}  # id(orig) -> (orig, wrapper)
        self._originals: Dict[int, Any] = {}  # id(wrapper) -> orig
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- recording -------------------------------------------------------
    def _forked(self) -> None:
        # A worker starts its own span tree; the parent's open spans
        # are not its own.
        self.spans, self.stack, self.counts = [], [], {}

    def in_worker(self) -> bool:
        return os.getpid() != self.parent_pid

    def count(self, name: str, value: float = 1) -> None:
        key = (self.job, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> list:
        frame = [self._next, name, self.job, 0.0]
        self._next += 1
        self.stack.append(frame)
        frame[3] = perf()
        return frame

    def close(self, frame: list) -> float:
        """Close the innermost span; returns its duration in seconds.
        Closed spans are tuples of plain values, which the cyclic GC
        stops tracking, so a long trace does not slow collections."""
        end = perf()
        stack = self.stack
        stack.pop()
        parent = stack[-1][0] if stack else -1
        self.spans.append((frame[0], frame[1], frame[3], end, parent, frame[2]))
        return end - frame[3]

    # -- wrappers --------------------------------------------------------
    def _span(self, name: str, fn: Callable) -> Callable:
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _fetch(self, fn: Callable) -> Callable:
        """``compiled_topology``: always hand it a stats dict, so the
        tier of every fetch is counted; a caller's own dict still
        receives its counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(workload, n, store=None, stats=None):
            tiers: Dict[str, int] = {}
            frame = tracer.open("graphs.fetch")
            try:
                return fn(workload, n, store=store, stats=tiers)
            finally:
                tracer.close(frame)
                for tier, k in tiers.items():
                    tracer.count(FETCH_COUNTS.get(tier, f"graphs.{tier}"), k)
                    if stats is not None:
                        stats[tier] = stats.get(tier, 0) + k

        return wrapper

    def _drain(self, fn: Callable) -> Callable:
        """Backend ``drain`` is a generator: time each step inside it,
        so the executor's work between batches stays outside."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            gen = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    frame = tracer.open("backends.drain")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        took = tracer.close(frame)
                    if first:
                        tracer.count("backends.first_result_s", took)
                        first = False
                    tracer.count("backends.batches")
                    yield item
            finally:
                gen.close()

        return wrapper

    def _worker(self, fn: Callable) -> Callable:
        """``run_cell``: a span only inside pooled workers, whose spans
        are then appended to the worker's own file."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_worker():
                return fn(*args, **kwargs)
            frame = tracer.open("backends.worker")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)
                if not tracer.stack:
                    tracer.flush_worker()

        return wrapper

    def _spin(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                until = t1 + (t1 - t0)
                while perf() < until:
                    pass

        return wrapper

    def _wrapper_for(self, name: str, original: Any) -> Any:
        entry = self._wrapped.get(id(original))
        if entry is not None:
            return entry[1]
        fn = original
        kind = None
        if isinstance(original, (classmethod, staticmethod)):
            kind, fn = type(original), original.__func__
        if self.inflate is not None:
            wrapped = self._spin(fn)
        elif name == "backends.drain":
            wrapped = self._drain(fn)
        elif name == "backends.worker":
            wrapped = self._worker(fn)
        elif name == "graphs.fetch":
            wrapped = self._fetch(fn)
        else:
            wrapped = self._span(name, fn)
        wrapper = kind(wrapped) if kind is not None else wrapped
        self._wrapped[id(original)] = (original, wrapper)
        self._originals[id(wrapper)] = original
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every target at every name it is bound to."""
        for module in PRELOAD:
            try:
                importlib.import_module(module)
            except ImportError:
                pass  # its targets resolve to nothing, see _resolve
        self.uninstall()
        targets = [
            t for t in TARGETS if self.inflate is None or t[0] in self.inflate
        ]
        originals: Dict[int, Tuple[Any, Any]] = {}
        for name, module, path in targets:
            for owner, attr in _resolve(module, path):
                original = vars(owner)[attr]
                original = self._unwrap(original)
                wrapper = self._wrapper_for(name, original)
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    originals[id(original)] = (original, wrapper)
        # Module-level functions: every other module that imported the
        # original by name looks it up there.
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                value = self._unwrap(value)
                hit = originals.get(id(value))
                if hit is not None and value is hit[0]:
                    self._patch(mod, attr, hit[0], hit[1])

    def _unwrap(self, value: Any) -> Any:
        return self._originals.get(id(value), value)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- output ----------------------------------------------------------
    def flush_worker(self) -> None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        line = json.dumps(
            {
                "pid": os.getpid(),
                "rss_mb": rss_mb,
                "spans": self.spans,
                "counts": [[j, n, v] for (j, n), v in self.counts.items()],
            }
        )
        with open(self.out_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.spans, self.counts = [], {}

    def write(self) -> None:
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def worker_records(self) -> List[dict]:
        found = []
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                found.extend(json.loads(line) for line in fh if line.strip())
        return found


# ----------------------------------------------------------------------
# Counts taken at the same boundaries as the spans
# ----------------------------------------------------------------------
FETCH_COUNTS = {
    "build": "graphs.builds",
    "hit_mem": "graphs.hits_mem",
    "hit_disk": "graphs.hits_disk",
}


def _engine_after(tracer, args, metrics):
    tracer.count("sim.events", metrics.events_processed)
    tracer.count("sim.messages", metrics.messages_total)


def _executor_after(tracer, args, outcomes):
    stats = args[0].stats
    tracer.count("experiments.cache_hits", stats.get("cached", 0))
    tracer.count("experiments.cache_misses", stats.get("executed", 0))


def _loop_after(tracer, args, metrics):
    tracer.count("check.runs")
    log = getattr(getattr(args[0], "_controller", None), "log", None)
    if log is not None and log.completed:
        tracer.count("check.schedules")


def _counter(name):
    def after(tracer, args, result):
        tracer.count(name)

    return after


_AFTER = {
    "sim.engine": _engine_after,
    "experiments.executor": _executor_after,
    "check.loop": _loop_after,
    "check.fingerprint": _counter("check.fingerprints"),
    "check.choose": _counter("check.choices"),
    "obs.merge": _counter("obs.merges"),
}


def self_times(spans: List[tuple]) -> Dict[Tuple[Any, str], float]:
    """Seconds of self time per (job, span name): each span's duration
    minus the durations of its child spans."""
    children: Dict[int, float] = {}
    for _sid, _name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
    totals: Dict[Tuple[Any, str], float] = {}
    for sid, name, start, end, _parent, job in spans:
        key = (job, name)
        totals[key] = totals.get(key, 0.0) + (end - start) - children.get(sid, 0.0)
    return totals
