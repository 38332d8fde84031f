"""Candidate evaluation: genome populations as executor cells.

Each generation's population maps onto
:class:`~repro.experiments.parallel.CellSpec` rows (one per *distinct*
genome — duplicates within a generation are evaluated once and fan
back out) and runs through a
:class:`~repro.experiments.parallel.ParallelSweepExecutor`.  That buys
candidate evaluation everything cells already have: inline or pooled
execution, on-disk result caching (a re-run of a converged search is
all cache hits), crash isolation and retry, telemetry, and metrics.

The base spec fixes everything the genome does not: workload, schedule,
knowledge, bandwidth, and — critically — the ``(setup_seed,
exec_seed)`` pair, so every candidate and every random-baseline trial
face the *identical* world and differ only in the adversary's delay
choices.  :func:`check_world_spec` builds base specs for the checker's
named small topologies (bit-compatible with
:func:`repro.check.worlds.build_check_world`); :func:`workload_spec`
covers the Table-1 workload registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.worstcase import _score as score_of  # noqa: F401
from repro.errors import ReproError
from repro.experiments.parallel import CellSpec, cell_key
from repro.experiments.sweeps import algorithm_model
from repro.obs.metrics import get_registry
from repro.obs.recorder import NULL_RECORDER
from repro.opt.genomes import Genome
from repro.opt.optimizers import Optimizer


def _algo_instance(algorithm: str):
    from repro.core.registry import get_factory

    return get_factory(algorithm)()


def check_world_spec(
    algorithm: str,
    n: int,
    *,
    graph: str = "star",
    awake: int = 1,
    stagger: float = 0.0,
    degree: float = 3.0,
    seed: int = 0,
) -> CellSpec:
    """A base spec evaluating ``algorithm`` on one checker world.

    Mirrors :func:`repro.check.worlds.build_check_world` exactly —
    same graph constructor, same ordered woken sample
    (``random.Random(seed + 1)`` over repr-sorted vertices), same
    ``setup_seed = seed + 2`` — and pins ``exec_seed = seed`` to match
    the worst-case search's ``run_schedule(seed=seed)``, so cell scores
    are directly comparable with beam/baseline scores at the same
    seed.
    """
    knowledge, bandwidth, _ = algorithm_model(_algo_instance(algorithm))
    return CellSpec(
        algorithm=algorithm,
        n=n,
        seed=seed,
        engine="async",
        knowledge=knowledge,
        bandwidth=bandwidth,
        workload={
            "kind": "check_world",
            "graph": graph,
            "awake": awake,
            "degree": degree,
            "seed": seed,
        },
        schedule={"kind": "staggered", "stagger": stagger},
        require_all_awake=False,
        setup_seed=seed + 2,
        exec_seed=seed,
    )


def workload_spec(
    algorithm: str,
    workload: Dict[str, Any],
    n: int,
    *,
    seed: int = 0,
) -> CellSpec:
    """A base spec evaluating ``algorithm`` on one registry workload
    (Table-1 rows).  Seeding follows the check-world convention
    (``setup_seed = seed + 2``, ``exec_seed = seed``) so optimizer
    candidates and baseline trials share one world per seed."""
    knowledge, bandwidth, _ = algorithm_model(_algo_instance(algorithm))
    return CellSpec(
        algorithm=algorithm,
        n=n,
        seed=seed,
        engine="async",
        knowledge=knowledge,
        bandwidth=bandwidth,
        workload=dict(workload),
        schedule={"kind": "all_at_once"},
        require_all_awake=False,
        setup_seed=seed + 2,
        exec_seed=seed,
    )


class CellEvaluator:
    """Scores genome populations through the parallel executor.

    Distinct genomes only: within one generation, duplicate genomes
    collapse onto one cell (the executor's on-disk cache already
    dedups *across* generations and runs).  A failed cell scores
    ``None`` — optimizers treat that as ``-inf``.
    """

    def __init__(self, executor, base_spec: CellSpec, objective: str = "time"):
        self.executor = executor
        self.base_spec = base_spec
        self.objective = objective
        self.evaluations = 0  # cells actually dispatched
        self.dedup_hits = 0  # in-generation duplicate genomes

    def spec_for(self, genome: Genome) -> CellSpec:
        return replace(self.base_spec, **genome.cell_overrides())

    def evaluate(
        self, genomes: Sequence[Genome]
    ) -> List[Optional[float]]:
        unique: Dict[str, CellSpec] = {}
        keys: List[str] = []
        for genome in genomes:
            spec = self.spec_for(genome)
            key = cell_key(spec)
            keys.append(key)
            if key in unique:
                self.dedup_hits += 1
            else:
                unique[key] = spec
        order = list(unique)
        outcomes = self.executor.run([unique[k] for k in order])
        self.evaluations += len(order)
        by_key = dict(zip(order, outcomes))
        scores: List[Optional[float]] = []
        for key in keys:
            out = by_key[key]
            scores.append(
                score_of(self.objective, out.result)
                if out.result is not None
                else None
            )
        return scores


@dataclass
class OptimizeOutcome:
    """One optimizer's search result on one (workload, objective, n)."""

    optimizer: str
    objective: str
    best_genome: Optional[Genome]
    best_score: float
    generations: int
    evaluations: int
    dedup_hits: int
    history: List[Dict[str, float]] = field(default_factory=list)


def optimize(
    optimizer: Optimizer,
    evaluator: CellEvaluator,
    *,
    generations: int = 8,
    population: int = 16,
    recorder=None,
) -> OptimizeOutcome:
    """Run one ask/evaluate/tell loop to completion.

    Emits one ``opt_generation`` telemetry event per generation and
    bumps the ``repro_opt_*`` metric families (generation count,
    evaluation count, incumbent score gauge).
    """
    if generations < 1 or population < 1:
        raise ReproError("optimize needs generations, population >= 1")
    rec = recorder if recorder is not None else NULL_RECORDER
    mreg = get_registry()
    history: List[Dict[str, float]] = []
    for gen in range(generations):
        genomes = optimizer.ask(population)
        scores = evaluator.evaluate(genomes)
        optimizer.tell(list(zip(genomes, scores)))
        finite = [s for s in scores if s is not None]
        gen_best = max(finite) if finite else float("-inf")
        history.append(
            {
                "generation": gen,
                "best": gen_best,
                "incumbent": optimizer.best_score,
            }
        )
        if mreg.enabled:
            mreg.counter(
                "repro_opt_generations_total", optimizer=optimizer.name
            ).inc()
            mreg.counter(
                "repro_opt_evaluations_total", optimizer=optimizer.name
            ).inc(len(genomes))
            mreg.gauge(
                "repro_opt_best_score",
                optimizer=optimizer.name,
                objective=evaluator.objective,
            ).set(optimizer.best_score)
        if rec.enabled:
            rec.emit(
                "opt_generation",
                optimizer=optimizer.name,
                generation=gen,
                population=len(genomes),
                best=gen_best,
                incumbent=optimizer.best_score,
            )
    return OptimizeOutcome(
        optimizer=optimizer.name,
        objective=evaluator.objective,
        best_genome=optimizer.best_genome,
        best_score=optimizer.best_score,
        generations=generations,
        evaluations=evaluator.evaluations,
        dedup_hits=evaluator.dedup_hits,
        history=history,
    )


def controlled_log_for(spec: CellSpec) -> Tuple[Any, Any]:
    """Re-run one controlled cell inline, returning ``(result, log)``.

    Executor cells ship back lean scalars only; the atlas needs the
    controlled run's :class:`~repro.check.controller.ScheduleLog` (its
    per-seq delay map is what replays through the plain engine), so
    the incumbent is re-executed here through the executor's own cell
    body, :func:`repro.experiments.parallel._execute_cell`, which hands
    back the live controller — the run is the cell, bit for bit.  The
    result is the cell's lean result.
    """
    from repro.experiments.parallel import _execute_cell
    from repro.sim.runner import WakeUpResult

    if spec.controller is None:
        raise ReproError("controlled_log_for needs a controlled spec")
    scratch: Dict[str, Any] = {}
    payload = _execute_cell(spec, scratch)
    return (
        WakeUpResult.from_lean_dict(payload["result"]),
        scratch["controller"].log,
    )
