#!/usr/bin/env python3
"""Regenerate ``reference.json``, the outputs every job is checked against.

    python3 perfbench/make_reference.py

Runs one regeneration round at the default seed (in-process, no cache)
and every check job on world seeds ``0 .. WORLD_SEEDS-1``.  A world seed is
admissible for a check job when its search has the same shape
(schedules and states, or beam evaluations) as world seed 0; the
benchmark only uses admissible ones (see ``workloads.check_world_seed``).

Rerun it only when a job's output is meant to change; the digests are
what makes a changed row a failed job.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

#: World seeds tried per check job.
WORLD_SEEDS = 32


def regen_digests() -> dict:
    from repro.experiments.parallel import ParallelSweepExecutor

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        jobs = workloads.regen_jobs(workloads.DEFAULT_SEED, Path(tmp), warm=False)
        out = {}
        for job in jobs:
            executor = ParallelSweepExecutor(workers=0, use_cache=False)
            output = job.run(executor)
            problems = job.problems(output, executor)
            if problems:
                raise SystemExit(f"{job.id}: {problems}")
            out[job.id] = workloads.digest(job.summary(output))
    return out


def check_digests():
    admissible, digests = {}, {}
    for job_id, mode, algorithm, graph, n in workloads.CHECK_JOBS:
        shape = None
        admissible[job_id], digests[job_id] = [], {}
        for world_seed in range(WORLD_SEEDS):
            job = workloads.check_job(job_id, mode, algorithm, graph, n, world_seed)
            output = job.run(None)
            summary = job.summary(output)
            if job.problems(output, None):
                continue
            if shape is None:
                shape = workloads.search_shape(summary)
            if workloads.search_shape(summary) == shape:
                admissible[job_id].append(world_seed)
                digests[job_id][str(world_seed)] = workloads.digest(summary)
        print(f"{job_id}: shape {shape}, admissible {admissible[job_id]}")
    return admissible, digests


def main() -> int:
    admissible, check = check_digests()
    reference = {
        "regen": regen_digests(),
        "check_world_seeds": admissible,
        "check": check,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
