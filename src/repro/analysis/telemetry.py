"""Offline aggregation of telemetry JSONL files.

A sweep run with ``--telemetry PATH`` leaves behind a stream of
schema-versioned events (:mod:`repro.obs.events`).  This module turns
such a file into the profile tables behind ``repro report --telemetry``:

* an event census (how many of each kind, schema versions seen);
* a per-phase/per-n profile — where wall-time and messages went,
  read from the ``repro_phase_*`` series of the last
  ``metrics_snapshot`` event;
* a per-n cell summary (executed/cached/failed counts, duration
  quantiles) from terminal cell events;
* compiled-topology cache effectiveness, from the
  ``repro_topology_fetch_total`` series of the same snapshot;
* a runtime outlier list — executed cells whose duration exceeds
  ``outlier_factor`` x the median for their size;
* an instrument summary from the last ``metrics_snapshot`` event
  (counters/gauges/histograms from :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.analysis.report import render_table
from repro.obs.events import (
    TERMINAL_CELL_KINDS,
    parse_line,
    validate_event,
)

# A cell must be this many times slower than its size-class median to be
# flagged as an outlier.
DEFAULT_OUTLIER_FACTOR = 4.0


def read_events(
    source: Union[str, Path, TextIO],
    strict: bool = False,
) -> Tuple[List[Dict[str, object]], int]:
    """Parse a telemetry JSONL file into ``(events, skipped)``.

    ``skipped`` counts malformed or schema-invalid lines.  A producer
    killed mid-write (the daemon makes this routine — SIGKILLed jobs,
    full disks, client disconnects) leaves a torn final line, so the
    default mode skips and *counts* bad lines instead of failing; the
    file is opened with ``errors="replace"`` so even a line torn inside
    a multi-byte sequence cannot raise ``UnicodeDecodeError``.  With
    ``strict`` the first bad line raises :class:`ValueError`.
    """
    if isinstance(source, (str, Path)):
        with open(
            source, "r", encoding="utf-8", errors="replace"
        ) as fh:
            return read_events(fh, strict=strict)
    events: List[Dict[str, object]] = []
    skipped = 0
    for lineno, line in enumerate(source, 1):
        if not line.strip():
            continue
        try:
            event = parse_line(line)
        except ValueError as exc:
            if strict:
                raise ValueError(f"line {lineno}: {exc}") from exc
            skipped += 1
            continue
        errors = validate_event(event)
        if errors:
            if strict:
                raise ValueError(f"line {lineno}: {'; '.join(errors)}")
            skipped += 1
            continue
        events.append(event)
    return events, skipped


def load_events(
    source: Union[str, Path, TextIO],
    strict: bool = False,
) -> List[Dict[str, object]]:
    """:func:`read_events` without the skip count (the historical
    API; callers that need to surface torn tails use read_events)."""
    return read_events(source, strict=strict)[0]


def event_census(events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Count of events per kind, sorted by kind name."""
    census: Dict[str, int] = {}
    for e in events:
        kind = str(e.get("kind"))
        census[kind] = census.get(kind, 0) + 1
    return dict(sorted(census.items()))


def last_snapshot(
    events: Sequence[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """The stream's last ``metrics_snapshot`` event, or None."""
    snap = None
    for e in events:
        if e.get("kind") == "metrics_snapshot":
            snap = e
    return snap


def phase_profile_table(
    snapshot: Dict[str, object],
) -> List[Dict[str, object]]:
    """Per-(n, phase) profile rows from a metrics snapshot.

    ``snapshot`` is a registry snapshot or a ``metrics_snapshot``
    event.  Its ``repro_phase_*`` series cover every run the registry
    saw, in-process or in a pooled worker; cache hits add nothing.
    ``time_s`` is the histogram's sum.  Rows are sorted by n then
    descending time; ``share`` is the phase's fraction of its
    size-class total.
    """
    from repro.obs.metrics import parse_series_key

    fields = {
        "repro_phase_seconds": "time_s",
        "repro_phase_messages_total": "messages",
        "repro_phase_entries_total": "entries",
    }
    series = [(k, h["sum"]) for k, h in snapshot["histograms"].items()]
    series += list(snapshot["counters"].items())
    by_n: Dict[int, Dict[str, Dict[str, float]]] = {}
    for key, value in series:
        name, labels = parse_series_key(key)
        if name in fields:
            agg = by_n.setdefault(int(labels.get("n", 0)), {}).setdefault(
                labels.get("phase", "?"),
                {"time_s": 0.0, "messages": 0, "entries": 0},
            )
            agg[fields[name]] += float(value)
    rows: List[Dict[str, object]] = []
    for n in sorted(by_n):
        total = sum(p["time_s"] for p in by_n[n].values()) or 1.0
        for name, agg in sorted(
            by_n[n].items(), key=lambda kv: -kv[1]["time_s"]
        ):
            rows.append(
                {
                    "n": n,
                    "phase": name,
                    "time_s": round(agg["time_s"], 6),
                    "share": round(agg["time_s"] / total, 3),
                    "messages": int(agg["messages"]),
                    "entries": int(agg["entries"]),
                }
            )
    return rows


def topology_fetches(snapshot: Dict[str, object]) -> Dict[str, int]:
    """Topology fetches per tier in a metrics snapshot.

    ``build`` / ``hit_mem`` / ``hit_disk`` totals of its
    ``repro_topology_fetch_total`` series (zeros for tiers it lacks)."""
    from repro.obs.metrics import series_key

    counters = dict(snapshot.get("counters") or {})
    return {
        tier: int(counters.get(
            series_key("repro_topology_fetch_total", {"tier": tier}), 0
        ))
        for tier in ("build", "hit_mem", "hit_disk")
    }


def topology_cache_table(
    snapshot: Dict[str, object],
) -> List[Dict[str, object]]:
    """Compiled-topology cache effectiveness, from a metrics snapshot.

    ``snapshot`` is a registry snapshot or a ``metrics_snapshot``
    event; its ``repro_topology_fetch_total`` series count every fetch
    the registry saw, in-process or in a pooled worker.  One row: graph
    builds vs in-process and on-disk reuses, plus the hit rate.  Empty
    when the snapshot records no fetch.
    """
    fetches = topology_fetches(snapshot)
    total = sum(fetches.values())
    if not total:
        return []
    return [
        {
            "builds": fetches["build"],
            "hits_mem": fetches["hit_mem"],
            "hits_disk": fetches["hit_disk"],
            "fetches": total,
            "hit_rate": round((total - fetches["build"]) / total, 3),
        }
    ]


def schedule_check_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Schedule-exploration activity, from the ``repro.check`` kinds.

    One row per ``check_stats`` / ``worstcase_stats`` / ``shrink_stats``
    event, in stream order — each is one explorer, worst-case search,
    or shrink invocation.  Empty for streams that predate the model
    checker.
    """
    rows: List[Dict[str, object]] = []
    for e in events:
        kind = e.get("kind")
        if kind == "check_stats":
            rows.append(
                {
                    "op": "explore",
                    "target": e.get("algorithm", "?"),
                    "work": f"{e.get('schedules', 0)} schedules",
                    "states": e.get("states", 0),
                    "pruned": int(e.get("pruned_sleep", 0))
                    + int(e.get("pruned_state", 0)),
                    "violations": e.get("violations", 0),
                    "note": "complete"
                    if e.get("completed")
                    else "budget hit",
                }
            )
        elif kind == "worstcase_stats":
            rows.append(
                {
                    "op": "worstcase",
                    "target": e.get("algorithm", "?"),
                    "work": f"{e.get('evaluations', 0)} evals",
                    "states": "",
                    "pruned": "",
                    "violations": "",
                    "note": f"{e.get('objective')}="
                    f"{e.get('best_score')} via {e.get('policy')}",
                }
            )
        elif kind == "shrink_stats":
            rows.append(
                {
                    "op": "shrink",
                    "target": e.get("invariant", "?"),
                    "work": f"{e.get('tests', 0)} tests",
                    "states": "",
                    "pruned": "",
                    "violations": "",
                    "note": f"{e.get('from_len')} -> {e.get('to_len')} "
                    f"choices",
                }
            )
    return rows


def metrics_snapshot_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Instrument summary from the *last* ``metrics_snapshot`` event.

    The executor emits one cumulative snapshot per sweep, so the last
    one in the stream covers everything before it.  One row per
    instrument family: counters sum their labeled series, gauges keep
    the max, histograms report sample counts plus p50/p99 estimated
    from their buckets.  Empty for streams without a snapshot (those
    of commands that emit none, or predating the metrics layer).
    """
    from repro.obs.metrics import histogram_quantile, parse_series_key

    snap = last_snapshot(events)
    if snap is None:
        return []
    families: Dict[str, Dict[str, object]] = {}

    def _fam(key: str, kind: str) -> Dict[str, object]:
        name, _ = parse_series_key(key)
        return families.setdefault(
            name,
            {"instrument": name, "type": kind, "series": 0,
             "value": 0.0, "p50": "", "p99": ""},
        )

    for key, value in dict(snap.get("counters") or {}).items():
        row = _fam(key, "counter")
        row["series"] = int(row["series"]) + 1
        row["value"] = float(row["value"]) + float(value)
    for key, value in dict(snap.get("gauges") or {}).items():
        row = _fam(key, "gauge")
        row["series"] = int(row["series"]) + 1
        row["value"] = max(float(row["value"]), float(value))
    for key, h in dict(snap.get("histograms") or {}).items():
        row = _fam(key, "histogram")
        row["series"] = int(row["series"]) + 1
        row["value"] = float(row["value"]) + float(h.get("count", 0))
        if int(row["series"]) > 1:
            # Quantiles of distinct label sets don't combine; the
            # per-series view lives in `repro top`.
            row["p50"] = row["p99"] = ""
            continue
        try:
            row["p50"] = round(histogram_quantile(h, 0.50), 6)
            row["p99"] = round(histogram_quantile(h, 0.99), 6)
        except (KeyError, TypeError, ValueError):
            pass
    rows = [dict(families[name]) for name in sorted(families)]
    for row in rows:
        row["value"] = round(float(row["value"]), 6)
    return rows


def _executed_cells(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Terminal cell events for cells that actually ran (not cache hits)."""
    cells = []
    for e in events:
        if e.get("kind") not in TERMINAL_CELL_KINDS:
            continue
        if e.get("cached"):
            continue
        cells.append(e)
    return cells


def cell_summary_table(
    events: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Per-n cell counts and duration statistics from terminal events."""
    by_n: Dict[int, Dict[str, object]] = {}
    for e in events:
        if e.get("kind") not in TERMINAL_CELL_KINDS:
            continue
        n = int(e.get("n", 0) or 0)
        row = by_n.setdefault(
            n,
            {"n": n, "cells": 0, "ok": 0, "failed": 0, "cached": 0,
             "durations": []},
        )
        row["cells"] += 1
        if e.get("cached"):
            row["cached"] += 1
        elif e.get("kind") == "cell_end" and e.get("status") == "ok":
            row["ok"] += 1
        else:
            row["failed"] += 1
        if not e.get("cached"):
            row["durations"].append(float(e.get("duration", 0.0)))
    rows: List[Dict[str, object]] = []
    for n in sorted(by_n):
        row = by_n[n]
        durations = row.pop("durations")
        row["median_s"] = (
            round(statistics.median(durations), 6) if durations else 0.0
        )
        row["max_s"] = round(max(durations), 6) if durations else 0.0
        rows.append(row)
    return rows


def runtime_outliers(
    events: Sequence[Dict[str, object]],
    factor: float = DEFAULT_OUTLIER_FACTOR,
) -> List[Dict[str, object]]:
    """Executed cells slower than ``factor`` x their size-class median.

    A cell only counts as an outlier against at least two executed
    cells of the same n — a singleton is its own median.
    """
    by_n: Dict[int, List[Dict[str, object]]] = {}
    for e in _executed_cells(events):
        by_n.setdefault(int(e.get("n", 0) or 0), []).append(e)
    outliers: List[Dict[str, object]] = []
    for n in sorted(by_n):
        cells = by_n[n]
        if len(cells) < 2:
            continue
        median = statistics.median(float(c.get("duration", 0.0)) for c in cells)
        if median <= 0.0:
            continue
        for c in cells:
            duration = float(c.get("duration", 0.0))
            if duration > factor * median:
                outliers.append(
                    {
                        "n": n,
                        "key": str(c.get("key", ""))[:12],
                        "kind": c.get("kind"),
                        "duration_s": round(duration, 6),
                        "median_s": round(median, 6),
                        "x_median": round(duration / median, 1),
                    }
                )
    outliers.sort(key=lambda o: -float(o["x_median"]))
    return outliers


def render_telemetry_report(
    source: Union[str, Path, TextIO],
    outlier_factor: float = DEFAULT_OUTLIER_FACTOR,
) -> str:
    """Full text report for ``repro report --telemetry PATH``."""
    events, skipped = read_events(source)
    parts: List[str] = []
    census = event_census(events)
    parts.append(
        render_table(
            [{"kind": k, "count": v} for k, v in census.items()]
            or [{"kind": "(none)", "count": 0}],
            title=f"Telemetry events ({len(events)} total)",
        )
    )
    if skipped:
        parts.append(
            f"skipped {skipped} malformed line(s) — a torn tail from a "
            "writer killed mid-record is normal; more than one line "
            "suggests stream corruption"
        )
    snap = last_snapshot(events)
    phase_rows = phase_profile_table(snap) if snap is not None else []
    if phase_rows:
        parts.append("")
        parts.append(render_table(phase_rows, title="Phase profile"))
    cell_rows = cell_summary_table(events)
    if cell_rows:
        parts.append("")
        parts.append(render_table(cell_rows, title="Cells by size"))
    topo_rows = topology_cache_table(snap) if snap is not None else []
    if topo_rows:
        parts.append("")
        parts.append(
            render_table(topo_rows, title="Topology cache")
        )
    check_rows = schedule_check_table(events)
    if check_rows:
        parts.append("")
        parts.append(
            render_table(check_rows, title="Schedule exploration")
        )
    metrics_rows = metrics_snapshot_table(events)
    if metrics_rows:
        parts.append("")
        parts.append(
            render_table(
                metrics_rows, title="Metrics (last snapshot)"
            )
        )
    outliers = runtime_outliers(events, factor=outlier_factor)
    parts.append("")
    if outliers:
        parts.append(
            render_table(
                outliers,
                title=f"Runtime outliers (> {outlier_factor:g}x median)",
            )
        )
    else:
        parts.append(
            f"runtime outliers: none (> {outlier_factor:g}x size-class median)"
        )
    return "\n".join(parts)
