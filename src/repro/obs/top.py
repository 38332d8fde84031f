"""``repro top`` — a live terminal dashboard over the metrics registry.

Renders a multi-line panel from successive
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dicts: executor
throughput (cells done, cells/s since the previous frame), cache
hit-rates (cell result cache + topology store), engine totals, and
per-phase p50/p99 estimated from histogram buckets.

Two entry points:

* :class:`TopView` — a progress-protocol object (``start``/``cell``/
  ``finish``) usable as the executor's live display via
  ``repro sweep --progress top``; it samples the registry on each cell
  callback (throttled) and redraws in place with ANSI cursor-up.
* :func:`render_top` — the pure snapshot→text renderer, also used by
  ``repro top --once FILE`` to pretty-print a dumped snapshot.  Pure
  function, so tests cover it without a TTY.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Mapping, Optional, TextIO

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    histogram_quantile,
    parse_series_key,
)


def _rate_cell(current: float, previous: Optional[float],
               dt: float) -> str:
    if previous is None or dt <= 0:
        return "-"
    return f"{max(0.0, current - previous) / dt:.1f}/s"


def _hit_rate(hits: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def _sum_matching(section: Mapping[str, float], name: str,
                  **want: str) -> float:
    """Sum every series of ``name`` whose labels include ``want``."""
    total = 0.0
    for key, value in section.items():
        n, labels = parse_series_key(key)
        if n != name:
            continue
        if all(labels.get(k) == v for k, v in want.items()):
            total += value
    return total


def render_top(
    snap: Mapping[str, Any],
    prev: Optional[Mapping[str, Any]] = None,
    dt: float = 0.0,
) -> str:
    """Render one dashboard frame from a snapshot (and optionally the
    previous frame's snapshot + elapsed seconds, for rates)."""
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    hists = snap.get("histograms", {})
    prev_counters = prev.get("counters", {}) if prev else {}

    lines: List[str] = []

    # -- executor -------------------------------------------------------
    done = _sum_matching(counters, "repro_executor_cells_total")
    cached = _sum_matching(counters, "repro_executor_cells_total",
                           cached="yes")
    ok = _sum_matching(counters, "repro_executor_cells_total",
                       status="ok")
    retries = _sum_matching(counters,
                            "repro_executor_cell_retries_total")
    prev_done = (
        _sum_matching(prev_counters, "repro_executor_cells_total")
        if prev else None
    )
    workers = gauges.get("repro_executor_workers", 0)
    lines.append(
        f"executor   cells {int(done)} (ok {int(ok)}, "
        f"cached {int(cached)}, retries {int(retries)}) | "
        f"workers {int(workers)} | "
        f"rate {_rate_cell(done, prev_done, dt)}"
    )

    # -- caches ---------------------------------------------------------
    cell_hits = _sum_matching(counters, "repro_cellcache_fetch_total",
                              outcome="hit")
    cell_total = _sum_matching(counters, "repro_cellcache_fetch_total")
    topo_build = _sum_matching(counters, "repro_topology_fetch_total",
                               tier="build")
    topo_total = _sum_matching(counters, "repro_topology_fetch_total")
    lines.append(
        f"caches     cell {_hit_rate(cell_hits, cell_total)} hit "
        f"({int(cell_hits)}/{int(cell_total)}) | "
        f"topology {_hit_rate(topo_total - topo_build, topo_total)} hit "
        f"({int(topo_total - topo_build)}/{int(topo_total)})"
    )

    # -- engines --------------------------------------------------------
    events = _sum_matching(counters, "repro_engine_events_total")
    messages = _sum_matching(counters, "repro_engine_messages_total")
    runs = _sum_matching(counters, "repro_engine_runs_total")
    prev_events = (
        _sum_matching(prev_counters, "repro_engine_events_total")
        if prev else None
    )
    lines.append(
        f"engines    runs {int(runs)} | events {int(events)} "
        f"({_rate_cell(events, prev_events, dt)}) | "
        f"messages {int(messages)}"
    )

    # -- checker --------------------------------------------------------
    states = _sum_matching(counters, "repro_check_states_total")
    if states:
        scheds = _sum_matching(counters, "repro_check_schedules_total")
        dedup = _sum_matching(counters, "repro_check_dedup_hits_total")
        sleep = _sum_matching(counters, "repro_check_sleep_prunes_total")
        lines.append(
            f"check      states {int(states)} | "
            f"schedules {int(scheds)} | "
            f"pruned {int(dedup)} dedup / {int(sleep)} sleep"
        )

    # -- per-phase latency from histogram buckets -----------------------
    # One row per phase: its per-n series share bounds, so they merge.
    by_phase: Dict[str, Dict[str, Any]] = {}
    for key, h in hists.items():
        name, labels = parse_series_key(key)
        if name == "repro_phase_seconds" and h.get("count"):
            agg = by_phase.setdefault(
                labels.get("phase", "?"),
                {"le": h["le"], "counts": [0] * len(h["counts"]), "count": 0},
            )
            agg["counts"] = [a + b for a, b in zip(agg["counts"], h["counts"])]
            agg["count"] += h["count"]
    phase_rows: List[str] = []
    for phase, h in sorted(by_phase.items()):
        p50 = histogram_quantile(h, 0.50)
        p99 = histogram_quantile(h, 0.99)
        phase_rows.append(
            f"  {phase:<20s} n={int(h['count']):<6d} "
            f"p50={p50 * 1e3:8.2f}ms  p99={p99 * 1e3:8.2f}ms"
        )
    if not phase_rows:
        # Fall back to executed-cell durations when phase spans are
        # absent (cached sweeps, non-profiled algorithms).
        for key in sorted(hists):
            name, _ = parse_series_key(key)
            if name != "repro_executor_cell_seconds":
                continue
            h = hists[key]
            if not h.get("count"):
                continue
            p50 = histogram_quantile(h, 0.50)
            p99 = histogram_quantile(h, 0.99)
            phase_rows.append(
                f"  {'cell':<20s} n={int(h['count']):<6d} "
                f"p50={p50 * 1e3:8.2f}ms  p99={p99 * 1e3:8.2f}ms"
            )
    if phase_rows:
        lines.append("phases     (p50/p99 from histogram buckets)")
        lines.extend(phase_rows)

    return "\n".join(lines)


class TopView:
    """Progress-protocol dashboard: redraws :func:`render_top` frames
    in place as cells complete (``repro sweep --progress top``)."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        registry: Optional[MetricsRegistry] = None,
        min_interval: float = 0.5,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self._registry = registry
        self.min_interval = min_interval
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_render = 0.0
        self._last_lines = 0
        self._prev_snap: Optional[Dict[str, Any]] = None
        self._prev_t = 0.0

    def _reg(self) -> MetricsRegistry:
        return (
            self._registry
            if self._registry is not None
            else get_registry()
        )

    # -- progress protocol ----------------------------------------------
    def start(self, total: int, workers: int) -> None:
        self._last_render = 0.0
        self._prev_snap = None
        self._prev_t = time.perf_counter()

    def cell(self, outcome: Any) -> None:
        self._render()

    def finish(self, stats: Dict[str, float]) -> None:
        self._render(final=True)
        self.stream.write("\n")
        self.stream.flush()

    # -- rendering -------------------------------------------------------
    def _render(self, final: bool = False) -> None:
        now = time.perf_counter()
        if not final and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        snap = self._reg().snapshot()
        frame = render_top(
            snap, prev=self._prev_snap, dt=now - self._prev_t
        )
        self._prev_snap = snap
        self._prev_t = now
        lines = frame.split("\n")
        if self._tty and self._last_lines:
            # Move the cursor back to the top of the previous frame and
            # overwrite it (clearing each line to its end).
            self.stream.write(f"\x1b[{self._last_lines}A")
            self.stream.write(
                "\n".join("\x1b[2K" + line for line in lines) + "\n"
            )
        else:
            self.stream.write(frame + "\n")
        self._last_lines = len(lines)
        self.stream.flush()
