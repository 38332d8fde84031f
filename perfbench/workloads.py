"""The benchmark's four workloads: their jobs, inputs and output checks.

Every workload is one client in a closed loop over the public API: the
next job starts when the previous one returns.  A *round* is the fixed
list of jobs a workload repeats; runs hold whole rounds only, so each
job type keeps its share of the latency distribution (see README.md,
"Mix weights").

Inputs come from the benchmark seed alone.  Seed 0 reproduces the
inputs of ``scripts/regen_experiments.py``: Table 1 at n=200 with seed
4, and the theorem sweeps on ``er_single_wake(avg_degree=6, seed=13)``
with sweep seed 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

DEFAULT_SEED = 0

WORKLOADS = ("regen-cold", "regen-warm", "regen-pool", "check-search")

#: Table 1 size and the theorem-sweep grid of scripts/regen_experiments.py.
TABLE1_N = 200
SIZES = (64, 128, 256, 512)
TRIALS = 3

#: (job type, experiment name, registry name, knowledge, bandwidth,
#: sweep-seed offsets) of the five executor-routed theorem sweeps.
#: Cor 2, the costliest job, runs for two sweep seeds, as Table 1 runs
#: for two seeds: in a round of eight the p50 then sits mid-way through
#: the Table-1 band and the p90 inside the Cor 2 band (README.md, "Mix
#: weights").
SWEEPS = (
    ("cor1", "corollary1", "fip06-tree-advice", "KT0", "CONGEST", (0,)),
    ("thm5a", "theorem5a", "sqrt-threshold-advice", "KT0", "CONGEST", (0,)),
    ("thm5b", "theorem5b", "child-encoding", "KT0", "CONGEST", (0,)),
    ("cor2", "corollary2", "log-spanner-advice", "KT0", "CONGEST", (0, 1)),
    ("thm3", "theorem3", "dfs-rank", "KT1", "LOCAL", (0,)),
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def digest(value: Any) -> str:
    """Exact digest of a JSON-able value; floats keep every digit."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_FILE.read_text())


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run`` does the timed work and returns its output; ``summary``
    turns that output into the plain data whose digest is checked, and
    ``problems`` lists what is wrong with it beyond the digest (failed
    cells, executed cells in a warm round, violations)."""

    id: str
    kind: str
    run: Callable[[Any], Any]
    summary: Callable[[Any], Any]
    problems: Callable[[Any, Any], List[str]]


# ----------------------------------------------------------------------
# Table 1 and the theorem sweeps
# ----------------------------------------------------------------------
def regen_inputs(seed: int) -> Dict[str, Any]:
    """The regeneration inputs of one benchmark seed."""
    return {
        "table1_seeds": (4 + 10 * seed, 5 + 10 * seed),
        "sweep_workload": {
            "kind": "er_single_wake",
            "avg_degree": 6.0,
            "seed": 13 + 10 * seed,
        },
        "sweep_seed": 2 + 10 * seed,
    }


def _cell_problems(executor, warm: bool) -> List[str]:
    stats = executor.stats
    found = []
    if stats.get("failed"):
        found.append(f"{stats['failed']} cell(s) not ok")
    if warm and stats.get("executed"):
        found.append(f"{stats['executed']} cell(s) executed in a warm round")
    return found


def regen_jobs(seed: int, outdir: Path, warm: bool) -> List[Job]:
    """The eight jobs of one regeneration round: Table 1 for two seeds,
    then the five theorem sweeps (Cor 2 for two sweep seeds), each
    writing its artifact."""
    from repro.experiments.storage import save_records
    from repro.experiments.sweeps import parallel_sweep
    from repro.experiments.table1 import measure_table1

    inputs = regen_inputs(seed)
    jobs: List[Job] = []

    def problems(output, executor):
        found = _cell_problems(executor, warm)
        if isinstance(output, tuple):
            found += [
                f"cell {o.spec.n}/{o.spec.trial}: {o.status}"
                for o in output[1]
                if not o.ok
            ]
        return found

    for label, t1_seed in zip("ab", inputs["table1_seeds"]):
        path = outdir / f"table1-{label}.json"

        def run_table1(executor, t1_seed=t1_seed, path=path):
            rows = measure_table1(n=TABLE1_N, seed=t1_seed, executor=executor)
            save_records(
                path, rows, experiment="table1",
                params={"n": TABLE1_N, "seed": t1_seed},
            )
            return rows

        jobs.append(
            Job(
                id=f"table1-{label}",
                kind="table1",
                run=run_table1,
                summary=lambda rows: [asdict(r) for r in rows],
                problems=problems,
            )
        )
    for kind, experiment, algorithm, knowledge, bandwidth, offsets in SWEEPS:
        for label, offset in zip("ab", offsets):
            job_id = kind if len(offsets) == 1 else f"{kind}-{label}"
            path = outdir / f"{job_id}.json"

            def run_sweep(
                executor, experiment=experiment, algorithm=algorithm,
                knowledge=knowledge, bandwidth=bandwidth, path=path,
                seed=inputs["sweep_seed"] + offset,
            ):
                rows, outcomes = parallel_sweep(
                    algorithm,
                    inputs["sweep_workload"],
                    list(SIZES),
                    executor=executor,
                    knowledge=knowledge,
                    bandwidth=bandwidth,
                    trials=TRIALS,
                    seed=seed,
                )
                save_records(
                    path, rows, experiment=experiment,
                    params={
                        "sizes": list(SIZES),
                        "workload": inputs["sweep_workload"],
                        "seed": seed,
                    },
                )
                return rows, outcomes

            jobs.append(
                Job(
                    id=job_id,
                    kind=kind,
                    run=run_sweep,
                    summary=lambda out: [asdict(r) for r in out[0]],
                    problems=problems,
                )
            )
    return jobs


def warm_round_job(parts: List[Job]) -> Job:
    """``regen-warm``'s job: one warm regeneration of every artifact.

    A single warm part takes 2-4 ms, so a host stall of a few ms moved
    the p90 over parts by up to 23% between runs (IQR over ten seeds);
    a whole round of about 25 ms evens such stalls out.  Every part
    keeps its own executor, output check and digest."""

    def run(executors):
        return [(part, part.run(ex), ex) for part, ex in zip(parts, executors)]

    def summary(results):
        return {part.id: digest(part.summary(out)) for part, out, _ in results}

    def problems(results, _ctx):
        return [
            f"{part.id}: {problem}"
            for part, out, ex in results
            for problem in part.problems(out, ex)
        ]

    return Job("round", "round", run, summary, problems)


def regen_algorithms() -> List[str]:
    """Registry names whose cell salts a regeneration round needs."""
    from repro.experiments.table1 import table1_cells

    names = [c.algorithm for c in table1_cells(n=TABLE1_N)]
    return sorted(set(names) | {s[2] for s in SWEEPS})


class RegenWorkload:
    """``regen-cold``, ``regen-warm`` and ``regen-pool``.

    Cold and pooled jobs run after ``clear_memory_cache()`` against
    fresh cell-cache and topology directories.  The warm workload's one
    job is a whole round (:func:`warm_round_job`) against one pair of
    directories filled during set-up, so every cell is a hit.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.warm = name == "regen-warm"
        self.pooled = name == "regen-pool"
        #: Worker processes per executor: the executor's default (the
        #: CPU count) for the pooled workload, in-process otherwise.
        self.workers = (os.cpu_count() or 1) if self.pooled else 0
        self._fresh = 0

    def setup(self) -> None:
        from repro.versioning import cell_salt_vector

        for algorithm in regen_algorithms():
            cell_salt_vector(algorithm)
        outdir = self.workdir / "artifacts"
        outdir.mkdir(parents=True, exist_ok=True)
        self.parts = regen_jobs(self.seed, outdir, self.warm)
        self.jobs = [warm_round_job(self.parts)] if self.warm else self.parts
        if self.pooled:
            # As `repro table1 --metrics` does.
            from repro.obs.metrics import MetricsRegistry, set_global_registry

            set_global_registry(MetricsRegistry())

    def fill(self) -> List[Any]:
        """Warm set-up: run the round once, cold, into the shared caches
        and return its outputs (the round's reference)."""
        return [job.run(self.prepare()) for job in self.jobs]

    def prepare(self):
        from repro.experiments.parallel import ParallelSweepExecutor
        from repro.graphs.compile import clear_memory_cache

        clear_memory_cache()
        if self.warm:
            return [
                ParallelSweepExecutor(
                    workers=self.workers,
                    cache_dir=self.workdir / "cells",
                    topology_dir=self.workdir / "topologies",
                )
                for _ in self.parts
            ]
        self._fresh += 1
        cache = self.workdir / f"cells-{self._fresh}"
        topo = self.workdir / f"topologies-{self._fresh}"
        if self.pooled:
            return ParallelSweepExecutor(cache_dir=cache, topology_dir=topo)
        return ParallelSweepExecutor(
            workers=self.workers, cache_dir=cache, topology_dir=topo
        )

    def finish(self, executor) -> None:
        if not self.warm:
            shutil.rmtree(executor.cache_dir, ignore_errors=True)
            shutil.rmtree(executor.topology_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Schedule search
# ----------------------------------------------------------------------
#: (job id, mode, algorithm, graph, n) — the cases of BENCH_check.json
#: minus the 18-ms flooding/cycle one, which would put a third job type
#: under the p50.
CHECK_JOBS = (
    ("explore-star", "explore", "flooding", "star", 5),
    ("explore-echo", "explore", "echo-flooding", "cycle", 4),
    ("worstcase", "worstcase", "flooding", "class-g", 8),
)


def search_shape(summary: Dict[str, Any]) -> List[Any]:
    """What fixes the amount of work of one check job."""
    if "evaluations" in summary:
        return [summary["evaluations"]]
    return [summary["schedules"], summary["states"]]


def check_world_seed(reference: Dict[str, Any], job_id: str, seed: int) -> int:
    """World seed of one check job for a benchmark seed.

    World seeds change IDs, ports and the woken vertex, and with them
    the size of the search: a star woken at its centre has 24
    schedules, woken at a leaf 15.  The reference file lists the world
    seeds whose search has the same shape (schedules, states,
    evaluations) as world seed 0; benchmark seeds cycle through them,
    so inputs vary with the seed while the work stays the same."""
    admissible = reference["check_world_seeds"][job_id]
    return admissible[seed % len(admissible)]


def check_job(job_id: str, mode: str, algorithm: str, graph: str, n: int,
              world_seed: int) -> Job:
    from repro.check.explorer import explore
    from repro.check.worlds import build_check_world, build_class_g_world
    from repro.check.worstcase import worstcase_search
    from repro.core.registry import get_algorithm

    algo = get_algorithm(algorithm)
    if graph == "class-g":
        world, _ = build_class_g_world(algo, n, seed=world_seed)
    else:
        world, _ = build_check_world(algo, n, graph=graph, seed=world_seed)

    if mode == "explore":
        def run(_ctx):
            return explore(world, max_schedules=5_000)

        def summary(result):
            return {
                "schedules": result.stats.schedules,
                "states": len(result.states),
                "state_digest": digest(sorted(result.states)),
                "outcomes": digest(sorted(result.outcomes)),
                "completed": result.completed,
            }

        def problems(result, _ctx):
            found = []
            if result.violations or result.stats.violations:
                found.append(f"{result.stats.violations} violation(s)")
            if not result.completed:
                found.append("exploration hit its budget")
            return found
    else:
        def run(_ctx):
            return worstcase_search(
                world, "time", beam_width=4, horizon=8, branch_cap=2
            )

        def summary(result):
            return {
                "score": result.score,
                "policy": result.policy,
                "choices": list(result.choices),
                "evaluations": result.evaluations,
                "greedy": result.greedy_scores,
            }

        def problems(_result, _ctx):
            return []

    return Job(job_id, job_id, run, summary, problems)


class CheckWorkload:
    """``check-search``: the model checker's explorer and worst-case
    beam search, in-process with no executor."""

    warm = False
    workers = 0

    def __init__(self, seed: int, reference: Dict[str, Any]):
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        self.jobs = [
            check_job(
                job_id, mode, algorithm, graph, n,
                check_world_seed(self.reference, job_id, self.seed),
            )
            for job_id, mode, algorithm, graph, n in CHECK_JOBS
        ]

    def prepare(self):
        return None

    def finish(self, ctx) -> None:
        pass


def make_workload(name: str, seed: int, workdir: Path,
                  reference: Dict[str, Any]):
    if name == "check-search":
        return CheckWorkload(seed, reference)
    return RegenWorkload(name, seed, workdir)


def expected_digests(workload, reference: Dict[str, Any]) -> Optional[Dict[str, str]]:
    """Stored digests for this workload's inputs, or None when the
    reference file has none (a non-default regeneration seed)."""
    if isinstance(workload, CheckWorkload):
        out = {}
        for job in workload.jobs:
            world_seed = check_world_seed(reference, job.id, workload.seed)
            out[job.id] = reference["check"][job.id][str(world_seed)]
        return out
    if workload.seed != DEFAULT_SEED:
        return None
    stored = reference["regen"]
    if workload.warm:
        return {"round": digest({part.id: stored[part.id] for part in workload.parts})}
    return dict(stored)
