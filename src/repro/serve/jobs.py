"""Job specs: validation, canonical identity, and execution.

A *job* is one unit of client-requested work — a ``sweep``, ``check``,
or ``worstcase`` run described by a plain JSON dict.  The daemon
deduplicates work by content: :func:`job_id` hashes the canonicalized
spec (defaults filled in, keys sorted), so two clients submitting the
same request — whether they spelled out the defaults or not — name the
same job and share one execution.  Below the job level, sweep cells
hash into the executor's cell cache exactly as CLI sweeps do, so a job
overlapping an earlier one (same algorithm, subset of sizes) re-executes
only the cells nobody has computed yet.

Execution is budgeted twice, and each budget ends a process: per cell
(``cell_timeout``: the executor's pool kills the worker running the
cell) and per job (the daemon's wall budget: the runner kills the
process group of the job process that runs :func:`execute_job` — see
:mod:`repro.serve.server`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.core import algorithm_names, get_algorithm
from repro.obs.recorder import NULL_RECORDER, Recorder

#: Work kinds the daemon accepts.
JOB_KINDS = ("sweep", "check", "worstcase")

_SWEEP_DEFAULTS: Dict[str, Any] = {
    "sizes": [64, 128],
    "trials": 2,
    "seed": 0,
    "degree": 6.0,
    "backend": None,
    "workload": None,  # filled from degree/seed when absent
    "cell_timeout": None,
}

_CHECK_DEFAULTS: Dict[str, Any] = {
    "n": 4,
    "graph": "cycle",
    "awake": 1,
    "stagger": 0.0,
    "degree": 3.0,
    "seed": 0,
    "max_schedules": 2_000,
    "max_states": 50_000,
    "max_depth": 128,
}

_WORSTCASE_DEFAULTS: Dict[str, Any] = {
    "workload": "er",
    "n": 6,
    "graph": "er",
    "awake": 1,
    "stagger": 0.0,
    "degree": 3.0,
    "objective": "time",
    "beam": 2,
    "horizon": 8,
    "branch_cap": 2,
    "seed": 0,
}

_DEFAULTS = {
    "sweep": _SWEEP_DEFAULTS,
    "check": _CHECK_DEFAULTS,
    "worstcase": _WORSTCASE_DEFAULTS,
}


def canonical_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Fill defaults and drop unknown keys, so specs that *mean* the
    same thing hash the same regardless of how much the client spelled
    out.  Raises ``ValueError`` for an unusable spec — callers surface
    the message as a structured rejection."""
    errors = validate_job(spec)
    if errors:
        raise ValueError("; ".join(errors))
    kind = spec["kind"]
    out: Dict[str, Any] = {"kind": kind, "algorithm": spec["algorithm"]}
    for field, default in _DEFAULTS[kind].items():
        out[field] = spec.get(field, default)
    if kind == "sweep":
        out["sizes"] = sorted(int(n) for n in out["sizes"])
        if out["workload"] is None:
            out["workload"] = {
                "kind": "er_single_wake",
                "avg_degree": float(out["degree"]),
                "seed": int(out["seed"]),
            }
    return out


def job_id(spec: Dict[str, Any]) -> str:
    """Content-addressed job identity over the canonical spec."""
    canon = canonical_spec(spec)
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return "j" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def validate_job(spec: Any) -> List[str]:
    """Return a list of admission violations (empty = acceptable)."""
    if not isinstance(spec, dict):
        return [f"job spec is {type(spec).__name__}, not an object"]
    errors: List[str] = []
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        return [f"unknown job kind {kind!r}; known: {list(JOB_KINDS)}"]
    algorithm = spec.get("algorithm")
    if algorithm not in algorithm_names():
        errors.append(f"unknown algorithm {algorithm!r}")
    if kind == "sweep":
        sizes = spec.get("sizes", _SWEEP_DEFAULTS["sizes"])
        if (
            not isinstance(sizes, (list, tuple))
            or not sizes
            or not all(isinstance(n, int) and n >= 2 for n in sizes)
        ):
            errors.append("sizes must be a non-empty list of ints >= 2")
        trials = spec.get("trials", _SWEEP_DEFAULTS["trials"])
        if not isinstance(trials, int) or trials < 1:
            errors.append("trials must be an int >= 1")
        ct = spec.get("cell_timeout")
        if ct is not None and (
            not isinstance(ct, (int, float)) or ct <= 0
        ):
            errors.append("cell_timeout must be a positive number")
    else:
        from repro.check.worlds import world_fields

        n = spec.get("n", _DEFAULTS[kind]["n"])
        if not isinstance(n, int) or n < 2:
            errors.append("n must be an int >= 2")
        fields = {k: spec.get(k, d) for k, d in _DEFAULTS[kind].items()}
        try:
            world_fields(fields)
        except (TypeError, ValueError) as exc:
            errors.append(str(exc))
        if kind == "worstcase":
            objective = spec.get(
                "objective", _WORSTCASE_DEFAULTS["objective"]
            )
            if objective not in ("time", "messages", "bits"):
                errors.append(f"unknown objective {objective!r}")
    return errors


def count_cells(spec: Dict[str, Any]) -> int:
    """The cell budget a job will consume if admitted (sweeps:
    ``len(sizes) * trials``; check/worstcase: one schedule-space search
    counts as one cell — their own ``max_*`` knobs bound the interior
    work)."""
    canon = canonical_spec(spec)
    if canon["kind"] == "sweep":
        return len(canon["sizes"]) * int(canon["trials"])
    return 1


def execute_job(
    canon: Dict[str, Any],
    executor,
    recorder: Optional[Recorder] = None,
) -> Dict[str, Any]:
    """Run one canonicalized job to completion; returns the JSON-able
    result payload.  Per-cell failures inside a sweep stay structured
    (the executor never raises for them); anything raised here is the
    *job* failing and becomes a ``failed`` job record server-side."""
    recorder = recorder if recorder is not None else NULL_RECORDER
    kind = canon["kind"]
    if kind == "sweep":
        return _execute_sweep(canon, executor)
    if kind == "check":
        return _execute_check(canon, recorder)
    return _execute_worstcase(canon, recorder)


def _execute_sweep(canon: Dict[str, Any], executor) -> Dict[str, Any]:
    from repro.experiments.sweeps import algorithm_model, parallel_sweep

    knowledge, bandwidth, engine = algorithm_model(
        get_algorithm(canon["algorithm"]), canon["backend"]
    )
    rows, outcomes = parallel_sweep(
        canon["algorithm"],
        canon["workload"],
        sizes=canon["sizes"],
        executor=executor,
        engine=engine,
        backend=canon["backend"],
        knowledge=knowledge,
        bandwidth=bandwidth,
        trials=int(canon["trials"]),
        seed=int(canon["seed"]),
    )
    failed = [
        {
            "n": o.spec.n,
            "trial": o.spec.trial,
            "status": o.status,
            "error": o.error,
        }
        for o in outcomes
        if not o.ok
    ]
    return {
        "kind": "sweep",
        "rows": [r.as_dict() for r in rows],
        "failed_cells": failed,
        "stats": dict(executor.stats),
    }


def _execute_check(
    canon: Dict[str, Any], recorder: Recorder
) -> Dict[str, Any]:
    from repro.check import explore
    from repro.check.worlds import build_world

    world, _times = build_world(get_algorithm(canon["algorithm"]), canon)
    result = explore(
        world,
        max_schedules=int(canon["max_schedules"]),
        max_states=int(canon["max_states"]),
        max_depth=int(canon["max_depth"]),
        seed=int(canon["seed"]) + 3,
        recorder=recorder,
    )
    s = result.stats
    return {
        "kind": "check",
        "schedules": s.schedules,
        "states": s.states,
        "violations": s.violations,
        "completed": result.completed,
        "violation_invariants": [
            v.invariant for v in result.violations
        ],
    }


def _execute_worstcase(
    canon: Dict[str, Any], recorder: Recorder
) -> Dict[str, Any]:
    from repro.check import worstcase_search
    from repro.check.worlds import build_world

    world, _times = build_world(get_algorithm(canon["algorithm"]), canon)
    wc = worstcase_search(
        world,
        canon["objective"],
        beam_width=int(canon["beam"]),
        horizon=int(canon["horizon"]),
        branch_cap=int(canon["branch_cap"]),
        seed=int(canon["seed"]) + 3,
        recorder=recorder,
    )
    return {
        "kind": "worstcase",
        "objective": canon["objective"],
        "score": wc.score,
        "evaluations": wc.evaluations,
        "greedy_scores": dict(wc.greedy_scores),
    }
