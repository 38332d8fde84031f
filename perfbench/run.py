#!/usr/bin/env python3
"""Host-normalized end-to-end benchmark: Table-1 and theorem-sweep
regeneration, and schedule search.

    python3 perfbench/run.py --workload regen-cold --seed 0 --seconds 20 --trace 0

One client runs a workload's jobs in a closed loop for ``--seconds``,
in whole rounds.  Between jobs, while the program is idle, the driver
times the reference kernel (``kernel.py``) and scales each job's wall
time by ``REF_MS / mean(kernel sample before, kernel sample after)``,
so timings read as milliseconds at a fixed host speed.  Every job's
output is checked (``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it says how the run went, for people.  README.md
explains every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import kernel
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Take a kernel sample before a job once this much wall time has
#: passed since the last one: cold and check jobs get one each, warm
#: jobs (about 2 ms) share one per ~100 ms.
KERNEL_EVERY_S = 0.1

#: Set-ups per untraced run: this process plus fresh processes.
SETUP_SAMPLES = 3

#: A run goes on past ``--seconds`` until it holds this many jobs, so
#: at least ten lie beyond its p90, but never past ``MAX_STRETCH``
#: times ``--seconds``.
MIN_JOBS = 100
MAX_STRETCH = 1.3

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphs.fetch_ms": "ms",
    "graphs.builds": "count",
    "graphs.hits_mem": "count",
    "graphs.hits_disk": "count",
    "models.make_setup_ms": "ms",
    "core.advice_ms": "ms",
    "core.build_nodes_ms": "ms",
    "sim.engine_ms": "ms",
    "sim.events": "count",
    "sim.messages": "count",
    "sim.runner_ms": "ms",
    "sim.serialize_ms": "ms",
    "sim.deserialize_ms": "ms",
    "experiments.cell_key_ms": "ms",
    "experiments.executor_self_ms": "ms",
    "experiments.aggregate_ms": "ms",
    "experiments.save_ms": "ms",
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "backends.drain_ms": "ms",
    "backends.first_result_ms": "ms",
    "backends.worker_busy_ms": "ms",
    "backends.idle_share": "ratio",
    "backends.batches": "count",
    "backends.worker_peak_rss_mb": "MB",
    "obs.merge_ms": "ms",
    "obs.merges": "count",
    "check.loop_ms": "ms",
    "check.fingerprint_ms": "ms",
    "check.fingerprints": "count",
    "check.choose_ms": "ms",
    "check.choices": "count",
    "check.invariant_ms": "ms",
    "check.schedules": "count",
    "check.useful_run_ratio": "ratio",
    "versioning.salts_ms": "ms",
    "host.ref_ms": "ms",
    "host.raw_job_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.job_ms": "ms",
    "unattributed_ms": "ms",
}

#: Per-round counts (the rest of the per-layer metrics are per job).
PER_ROUND = {
    "graphs.builds", "graphs.hits_mem", "graphs.hits_disk", "sim.events",
    "sim.messages", "experiments.cache_hits", "experiments.cache_misses",
    "backends.batches", "obs.merges", "check.fingerprints",
    "check.choices", "check.schedules",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inflate", metavar="METRIC",
        # A backend's drain is a generator: spinning after the call
        # would double nothing.
        choices=sorted(set(tracing.JOB_METRIC.values()) - {"backends.drain_ms"}),
        help="layer-sensitivity check: spin after every call of the "
             "layer behind METRIC for as long as the call took",
    )
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.inflate and args.trace:
        parser.error("--inflate measures end-to-end metrics; use --trace 0")
    return args


def nearest_rank(records: List[Dict[str, Any]], q: float) -> Dict[str, Any]:
    ordered = sorted(records, key=lambda r: r["ms"])
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def probe_setup(args: argparse.Namespace) -> float:
    """Normalized set-up time of a fresh process on the same inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def check_output(job, output, ctx, expected, first_seen) -> List[str]:
    """What is wrong with one job's output: its own problems, plus a
    digest that differs from the reference (stored digests, or the
    first round of this run when none are stored)."""
    problems = job.problems(output, ctx)
    got = workloads.digest(job.summary(output))
    want = expected[job.id] if expected is not None else first_seen.setdefault(job.id, got)
    if got != want:
        problems.append(f"output digest {got} != reference {want}")
    return problems


def closed_loop(args, wl, ref, tracer, expected, refs):
    """Run whole rounds of jobs; returns one record per job and the
    number of rounds, and appends every kernel sample to ``refs``.
    With ``--trace 1`` odd rounds are traced and even rounds are not."""
    first_seen: Dict[str, str] = {}
    jobs: List[Dict[str, Any]] = []
    ref_at = time.perf_counter()
    rounds = 0
    min_rounds = 2 if args.trace else 1  # a traced run traces a round
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if args.trace:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        for job in wl.jobs:
            if time.perf_counter() - ref_at >= KERNEL_EVERY_S:
                refs.append(ref.sample_ms())
                ref_at = time.perf_counter()
            ctx = wl.prepare()
            if traced:
                tracer.job = len(jobs)
                frame = tracer.open("job")
            error = None
            t0 = time.perf_counter()
            try:
                output = job.run(ctx)
            except Exception as exc:  # noqa: BLE001 — a failed job, counted
                output, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if traced:
                tracer.close(frame)
                tracer.job = None
            problems = [error] if error else check_output(job, output, ctx, expected, first_seen)
            wl.finish(ctx)
            for problem in problems[:3]:
                print(f"perfbench: {job.id}: {problem}", file=sys.stderr)
            jobs.append({
                "id": job.id, "kind": job.kind, "raw_ms": (t1 - t0) * 1e3,
                "ref": len(refs) - 1, "traced": traced, "failed": bool(problems),
            })
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed >= args.seconds and (
            len(jobs) >= MIN_JOBS or elapsed >= MAX_STRETCH * args.seconds
        ):
            break
    refs.append(ref.sample_ms())
    for rec in jobs:
        rec["factor"] = kernel.REF_MS / ((refs[rec["ref"]] + refs[rec["ref"] + 1]) / 2)
        rec["ms"] = rec["raw_ms"] * rec["factor"]
    return jobs, rounds


def describe(args, jobs, rounds, refs) -> str:
    """The line a run prints before its JSON: sample count, the job
    type each percentile landed on, each type's p50, the host's state."""
    plain = [r for r in jobs if not r["traced"]]
    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for rec in plain:
        by_kind.setdefault(rec["kind"], []).append(rec)
    kind_p50 = {k: nearest_rank(v, 0.5)["ms"] for k, v in by_kind.items()}
    note = (
        f"perfbench: {args.workload} seed {args.seed}: {len(jobs)} jobs in "
        f"{rounds} rounds, {sum(r['failed'] for r in jobs)} failed; "
        f"p50 on {nearest_rank(plain, 0.5)['kind']}, "
        f"p90 on {nearest_rank(plain, 0.9)['kind']}"
    )
    note += "; type p50s " + " ".join(
        f"{k}={v:.1f}" for k, v in sorted(kind_p50.items(), key=lambda kv: kv[1])
    )
    return note + (
        f"; kernel median {statistics.median(refs):.2f} ms "
        f"(range {min(refs):.2f}-{max(refs):.2f}); raw p50 "
        f"{statistics.median(r['raw_ms'] for r in plain):.1f} ms"
    )


def run(args: argparse.Namespace, work: Path, ref, ref_before: float, t_setup: float) -> int:
    reference = workloads.load_reference()
    wl = workloads.make_workload(args.workload, args.seed, work, reference)
    tracer = None
    if args.trace or args.inflate:
        trace_dir = WORK / f"trace-{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        inflate = None
        if args.inflate:
            inflate = {s for s, m in tracing.JOB_METRIC.items() if m == args.inflate}
        tracer = tracing.Tracer(trace_dir, inflate=inflate)
    if args.trace:
        tracer.job = "setup"
        tracer.install()
    wl.setup()
    fill = wl.fill() if wl.warm else None
    setup_end = time.perf_counter()
    if args.trace:
        tracer.uninstall()
    ref_after = ref.sample_ms()
    setup_factor = kernel.REF_MS / ((ref_before + ref_after) / 2)
    setup_s = (setup_end - t_setup) * setup_factor
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = workloads.expected_digests(wl, reference)
    if expected is None and fill is not None:
        expected = {
            job.id: workloads.digest(job.summary(out))
            for job, out in zip(wl.jobs, fill)
        }
    if args.inflate:
        tracer.install()
    refs = [ref_after]
    jobs, rounds = closed_loop(args, wl, ref, tracer, expected, refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    note = describe(args, jobs, rounds, refs)
    plain = [r for r in jobs if not r["traced"]]
    if args.trace:
        metrics = layer_metrics(
            tracer, wl, jobs, refs, setup_factor, nearest_rank(plain, 0.5)
        )
        tracer.write()
        units = PER_LAYER
    else:
        samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        note += "; set-up samples " + " ".join(f"{s:.3f}" for s in samples) + " s"
        metrics = {
            "jobs_per_s": len(plain) / (sum(r["ms"] for r in plain) / 1e3),
            "job_p50_ms": nearest_rank(plain, 0.5)["ms"],
            "job_p90_ms": nearest_rank(plain, 0.9)["ms"],
            "setup_s": statistics.median(samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    failed = sum(r["failed"] for r in jobs)
    print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def layer_metrics(tracer, wl, jobs, refs, setup_factor, untraced_p50) -> Dict[str, float]:
    """Per-layer metrics of the traced rounds: ``*_ms`` are mean
    normalized self times per job, counts are per round."""
    traced = {i: r for i, r in enumerate(jobs) if r["traced"]}
    per_job = max(1, len(traced))
    per_round = max(1, len(traced) // len(wl.jobs))
    out = {name: 0.0 for name in PER_LAYER}
    job_ms = 0.0
    for (job, name), sec in tracing.self_times(tracer.spans).items():
        if job == "setup":
            if name == "versioning.salts":
                out["versioning.salts_ms"] += sec * 1e3 * setup_factor
            continue
        rec = traced.get(job)
        if rec is None:
            continue
        ms = sec * 1e3 * rec["factor"]
        out["unattributed_ms" if name == "job" else tracing.JOB_METRIC[name]] += ms / per_job
    for _sid, name, start, end, _parent, job in tracer.spans:
        if name == "job" and job in traced:
            job_ms += (end - start) * 1e3 * traced[job]["factor"]
    counts: Dict[str, float] = {}
    for (job, name), value in tracer.counts.items():
        if job in traced:
            if name == "backends.first_result_s":
                out["backends.first_result_ms"] += value * 1e3 * traced[job]["factor"] / per_job
            else:
                counts[name] = counts.get(name, 0.0) + value
    busy_ms = 0.0
    for record in tracer.worker_records():
        out["backends.worker_peak_rss_mb"] = max(
            out["backends.worker_peak_rss_mb"], record["rss_mb"]
        )
        for job, name, value in record["counts"]:
            if job in traced:
                counts[name] = counts.get(name, 0.0) + value
        for _sid, name, start, end, _parent, job in record["spans"]:
            if name == "backends.worker" and job in traced:
                busy_ms += (end - start) * 1e3 * traced[job]["factor"]
    for name in PER_ROUND:
        out[name] = counts.get(name, 0.0) / per_round
    out["backends.worker_busy_ms"] = busy_ms / per_job
    drain_ms = out["backends.drain_ms"] * per_job
    if drain_ms > 0:
        out["backends.idle_share"] = 1 - busy_ms / (drain_ms * wl.workers)
    runs = counts.get("check.runs", 0.0)
    if runs:
        out["check.useful_run_ratio"] = counts.get("check.schedules", 0.0) / runs
    plain = [r for r in jobs if not r["traced"]]
    out["host.ref_ms"] = statistics.median(refs)
    out["host.raw_job_p50_ms"] = nearest_rank(
        [dict(r, ms=r["raw_ms"]) for r in plain], 0.5
    )["raw_ms"]
    if traced:
        out["trace.overhead_ratio"] = (
            nearest_rank(list(traced.values()), 0.5)["ms"] / untraced_p50["ms"]
        )
    out["trace.job_ms"] = job_ms / per_job
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    ref = kernel.Kernel()
    ref_before = ref.sample_ms()
    t_setup = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 — importing the program is part of set-up

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work, ref, ref_before, t_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
