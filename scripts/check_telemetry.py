#!/usr/bin/env python3
"""Validate a telemetry JSONL stream against the repro.obs schema.

Checks, in order:

1. every line parses as a JSON object and passes
   :func:`repro.obs.events.validate_event` (schema version, required
   fields, cell_end statuses).  Exception: a contiguous run of
   malformed lines at the very *end* of the stream is skipped and
   counted, not flagged — a producer killed mid-write (routine once
   the serve daemon exists) leaves exactly that torn tail.  Malformed
   lines *followed by* valid ones are still violations;
2. cell lifecycle: every cell key reaches exactly as many terminal
   events (``cell_end`` or ``cell_timeout``) as it has ``cell_start``
   events, and no terminal event appears without a ``cell_start``.
   Count-matching (rather than exactly-one) is what a daemon stream
   needs: the same cell key legitimately recurs once per job that
   touches it;
3. job lifecycle (daemon streams): per job id, ``job_start`` events
   never exceed ``job_queued`` and ``job_end`` never exceeds
   ``job_start`` — incomplete lifecycles are fine (it is a
   flight-recorder format), inverted ones are not;
4. every *executed* ok cell (``cell_end`` with ``status=ok`` and
   ``cached=false``) is profiled: the last ``metrics_snapshot``'s
   ``repro_phase_entries_total{phase="engine"}`` series, summed over
   ``n``, are at least the executed ok cells before it — each engine
   run adds one entry of its implicit "engine" phase, and cache hits
   add none.  A stream with executed ok cells but no snapshot fails;
5. every ``metrics_snapshot`` event carries a schema-valid registry
   snapshot (sections present, non-negative counters, histogram bucket
   sanity via :func:`repro.obs.metrics.validate_snapshot`), and
   counters are monotone non-decreasing across successive snapshots —
   one process-global registry only ever accumulates.

Exit status 0 and a one-line summary on success; 1 with one line per
violation otherwise.  ``--min-cells N`` additionally requires at least
N ``cell_start`` events (CI smoke runs use it to prove the stream is
not trivially empty).  ``--expect-topology-builds N`` requires the last
``metrics_snapshot``'s ``repro_topology_fetch_total{tier="build"}`` to
read exactly N (a stream without a snapshot fails) — the warm-store
smoke invariant: builds equal the number of distinct (workload, n)
cells, everything else is a cache hit.  Older streams, which also
carry ``topology_stats`` events, are judged by their snapshot too.

Usage: python scripts/check_telemetry.py PATH [--min-cells N]
       [--expect-topology-builds N]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.telemetry import (  # noqa: E402
    last_snapshot,
    topology_fetches,
)
from repro.obs.events import (  # noqa: E402
    TERMINAL_CELL_KINDS,
    parse_line,
    validate_event,
)
from repro.obs.metrics import (  # noqa: E402
    parse_series_key,
    validate_snapshot,
)


def check_metrics_snapshots(events) -> List[str]:
    """Violations in the stream's ``metrics_snapshot`` events.

    Each snapshot must pass the registry schema check, and every
    counter series must be monotone non-decreasing from one snapshot to
    the next (snapshots are cumulative views of one registry, never
    resets — a drop means two registries wrote the same stream).
    """
    errors: List[str] = []
    prev_counters: Dict[str, float] = {}
    index = 0
    for e in events:
        if e.get("kind") != "metrics_snapshot":
            continue
        index += 1
        for problem in validate_snapshot(e):
            errors.append(f"metrics_snapshot #{index}: {problem}")
        counters = e.get("counters")
        if not isinstance(counters, dict):
            continue
        for key, value in counters.items():
            before = prev_counters.get(key, 0.0)
            if float(value) < before:
                errors.append(
                    f"metrics_snapshot #{index}: counter {key} "
                    f"dropped {before} -> {value} (must be monotone)"
                )
        for key in prev_counters:
            if key not in counters:
                errors.append(
                    f"metrics_snapshot #{index}: counter {key} "
                    "disappeared (must be monotone)"
                )
        prev_counters = {k: float(v) for k, v in counters.items()}
    return errors


def check_phase_profiles(events) -> List[str]:
    """Rule 4: the last snapshot profiles every executed ok cell
    before it (one "engine" phase entry per engine run)."""
    executed = 0
    profiled = None  # (executed ok cells so far, engine entries)
    for e in events:
        kind = e.get("kind")
        if (
            kind == "cell_end"
            and e.get("status") == "ok"
            and not e.get("cached")
        ):
            executed += 1
        elif kind == "metrics_snapshot":
            entries = 0.0
            for key, value in dict(e.get("counters") or {}).items():
                name, labels = parse_series_key(key)
                if (
                    name == "repro_phase_entries_total"
                    and labels.get("phase") == "engine"
                ):
                    entries += float(value)
            profiled = (executed, entries)
    if profiled is None:
        if executed:
            return [
                f"{executed} executed ok cell(s) but no "
                "metrics_snapshot carries their phase profiles"
            ]
        return []
    cells, entries = profiled
    if entries < cells:
        return [
            f"last metrics_snapshot has {entries:g} engine-phase "
            f"entries for {cells} executed ok cell(s) before it"
        ]
    return []


def check_stream(lines, min_cells: int = 0, expect_topology_builds=None):
    """Return (errors, summary) for an iterable of JSONL lines."""
    errors: List[str] = []
    events: List[Dict[str, object]] = []
    # Parse in two passes over the buffered lines so malformed lines at
    # the *tail* (a writer killed mid-record — normal daemon debris)
    # can be told apart from corruption in the middle of the stream.
    numbered = [
        (lineno, line)
        for lineno, line in enumerate(lines, 1)
        if line.strip()
    ]
    parsed: List[tuple] = []  # (lineno, event-or-None, error-or-None)
    last_good = -1
    for i, (lineno, line) in enumerate(numbered):
        try:
            event = parse_line(line)
        except ValueError as exc:
            parsed.append((lineno, None, f"unparseable ({exc})"))
            continue
        parsed.append((lineno, event, None))
        last_good = i
    skipped_tail = 0
    for i, (lineno, event, problem) in enumerate(parsed):
        if event is None:
            if i > last_good:
                skipped_tail += 1  # torn tail: tolerated, counted
            else:
                errors.append(f"line {lineno}: {problem}")
            continue
        for violation in validate_event(event):
            errors.append(f"line {lineno}: {violation}")
        events.append(event)

    census = Counter(str(e.get("kind")) for e in events)
    started: Counter = Counter()
    terminal: Counter = Counter()
    for e in events:
        kind = e.get("kind")
        if kind == "cell_start":
            started[str(e.get("key"))] += 1
        elif kind in TERMINAL_CELL_KINDS:
            key = str(e.get("key"))
            terminal[key] += 1
            if key not in started:
                errors.append(
                    f"{kind} for key {key[:12]} without a cell_start"
                )
    for key, starts in started.items():
        count = terminal[key]
        if count != starts:
            errors.append(
                f"cell {key[:12]} has {count} terminal events "
                f"(want {starts}, one per cell_start)"
            )
    errors.extend(check_phase_profiles(events))
    errors.extend(check_job_lifecycle(events))
    if len(started) < min_cells:
        errors.append(
            f"only {len(started)} cell_start events (require >= {min_cells})"
        )
    errors.extend(check_metrics_snapshots(events))
    if expect_topology_builds is not None:
        snap = last_snapshot(events)
        topo = topology_fetches(snap) if snap is not None else None
        if topo is None:
            errors.append(
                f"no metrics_snapshot (expected {expect_topology_builds} "
                "topology builds)"
            )
        elif topo["build"] != expect_topology_builds:
            errors.append(
                f"{topo['build']} topology builds "
                f"(expected exactly {expect_topology_builds}; "
                f"hits: mem={topo['hit_mem']} disk={topo['hit_disk']})"
            )

    summary = {
        "events": len(events),
        "cells": len(started),
        "terminal": sum(terminal.values()),
        "census": dict(sorted(census.items())),
        "skipped_tail": skipped_tail,
    }
    return errors, summary


def check_job_lifecycle(events) -> List[str]:
    """Ordering violations in the serve daemon's ``job_*`` events.

    Per job id the counts must nest: ``job_end <= job_start <=
    job_queued``.  Truncated lifecycles (queued but never started,
    started but no end yet) are legitimate — the stream is a flight
    recorder, and a killed daemon leaves exactly that."""
    errors: List[str] = []
    queued: Counter = Counter()
    started: Counter = Counter()
    ended: Counter = Counter()
    for e in events:
        kind = e.get("kind")
        if kind == "job_queued":
            queued[str(e.get("job"))] += 1
        elif kind == "job_start":
            started[str(e.get("job"))] += 1
        elif kind == "job_end":
            ended[str(e.get("job"))] += 1
    for jid in set(queued) | set(started) | set(ended):
        if started[jid] > queued[jid]:
            errors.append(
                f"job {jid}: {started[jid]} job_start events but only "
                f"{queued[jid]} job_queued"
            )
        if ended[jid] > started[jid]:
            errors.append(
                f"job {jid}: {ended[jid]} job_end events but only "
                f"{started[jid]} job_start"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a repro telemetry JSONL file."
    )
    parser.add_argument("path", help="telemetry JSONL file")
    parser.add_argument(
        "--min-cells",
        type=int,
        default=0,
        help="require at least this many cell_start events",
    )
    parser.add_argument(
        "--expect-topology-builds",
        type=int,
        default=None,
        metavar="N",
        help=(
            "require the last metrics_snapshot to count exactly N "
            "topology builds (warm-store smoke invariant)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        # errors="replace": a tail torn inside a multi-byte sequence
        # must degrade into a skipped line, not a UnicodeDecodeError.
        with open(
            args.path, "r", encoding="utf-8", errors="replace"
        ) as fh:
            errors, summary = check_stream(
                fh,
                min_cells=args.min_cells,
                expect_topology_builds=args.expect_topology_builds,
            )
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    census = " ".join(f"{k}={v}" for k, v in summary["census"].items())
    tail = (
        f", skipped {summary['skipped_tail']} torn tail line(s)"
        if summary["skipped_tail"]
        else ""
    )
    print(
        f"{args.path}: {summary['events']} events, "
        f"{summary['cells']} cells ({census or 'empty'}){tail}"
    )
    if errors:
        print(f"{len(errors)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
