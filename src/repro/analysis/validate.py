"""Post-hoc execution validation.

``validate_result`` re-checks a finished :class:`WakeUpResult` against
the model's physical invariants — the same checks the test suite runs,
packaged as a public API so downstream users can assert their own
algorithms behave:

* **causality** — no node woke before its hop distance from the
  adversary-woken set allows (delays are at most τ = 1 per hop);
* **accounting** — the headline message count is the metrics' total
  and, on a result that recorded a complete trace, every delivery is
  of a traced send;
* **coverage** — the awake set is exactly the union of components
  touched by the wake schedule (or everything, if ``expect_all``);
* **bandwidth** — no recorded message exceeded the setup's cap.

Returns a list of human-readable violation strings (empty = clean).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.graphs.traversal import connected_components, multi_source_bfs
from repro.models.knowledge import NetworkSetup
from repro.sim.runner import WakeUpResult


def validate_result(
    result: WakeUpResult,
    setup: NetworkSetup,
    schedule_times: Dict,
    expect_all: bool = True,
    min_delay: float = 0.0,
) -> List[str]:
    """Check a finished run against the model invariants.

    ``schedule_times`` is the adversary's wake schedule
    (``adversary.schedule.times()``).  ``min_delay`` is the smallest
    per-hop delay the adversary could have chosen: 0.0 (the default)
    only asserts that no node woke before the earliest schedule time it
    can be blamed on; 1.0 (unit delays) tightens the bound to
    schedule time + hop distance.
    """
    violations: List[str] = []
    graph = setup.graph

    # -- causality ---------------------------------------------------------
    # Earliest legal wake of v: min over scheduled sources s of
    # (t0_s + min_delay * dist(s, v)) — every hop costs at least
    # min_delay time units.
    reach: Dict = {}
    for source, t0 in schedule_times.items():
        if not graph.has_vertex(source):
            violations.append(f"schedule wakes unknown vertex {source!r}")
            continue
        dist = multi_source_bfs(graph, [source])
        for v, d in dist.items():
            candidate = t0 + min_delay * d
            best = reach.get(v)
            if best is None or candidate < best:
                reach[v] = candidate
    for v, t in result.wake_time.items():
        lower = reach.get(v)
        if lower is not None and t < lower - 1e-9:
            violations.append(
                f"{v!r} woke at {t}, before the causal bound {lower}"
            )

    # -- accounting ----------------------------------------------------------
    total = result.metrics.messages_total
    if result.messages != total:
        violations.append(
            f"messages field {result.messages} != metrics total {total}"
        )
    trace = result.trace
    # A flight recorder that evicted events may have lost the send of
    # a delivery it kept.
    if trace is not None and not trace.dropped:
        sent = {m.seq for m in trace.sends()}
        unsent = [m.seq for m in trace.deliveries() if m.seq not in sent]
        if unsent:
            violations.append(
                f"delivered message seq {unsent[0]} was never sent"
            )

    # -- coverage ------------------------------------------------------------
    scheduled = set(schedule_times)
    reachable = set()
    for comp in connected_components(graph):
        if any(v in scheduled for v in comp):
            reachable.update(comp)
    awake = set(result.wake_time)
    ghost = awake - reachable
    if ghost:
        violations.append(
            f"{len(ghost)} nodes woke despite being unreachable from the "
            "wake schedule"
        )
    if expect_all and awake != reachable:
        missing = reachable - awake
        violations.append(
            f"{len(missing)} reachable nodes never woke"
        )

    # -- bandwidth -------------------------------------------------------------
    cap = setup.bandwidth.cap_bits
    if cap is not None and result.max_message_bits > cap:
        violations.append(
            f"recorded message of {result.max_message_bits} bits exceeds "
            f"the {cap}-bit cap"
        )

    return violations
