"""repro — a full reproduction of "Rise and Shine Efficiently! The
Complexity of Adversarial Wake-up in Asynchronous Networks"
(Robinson & Tan, PODC 2025).

The package implements, from scratch:

* a deterministic discrete-event simulator for asynchronous and
  synchronous message-passing networks with adversarial wake-up
  (:mod:`repro.sim`);
* the KT0/KT1 knowledge models, LOCAL/CONGEST bandwidth enforcement,
  and the computing-with-advice framework (:mod:`repro.models`,
  :mod:`repro.advice`);
* every algorithm of the paper's Table 1 (:mod:`repro.core`);
* both lower-bound graph classes — including the Lazebnik–Ustimenko
  high-girth graphs over hand-rolled finite fields — and executable
  harnesses for the two lower bounds (:mod:`repro.lowerbounds`,
  :mod:`repro.graphs`);
* analysis and experiment drivers that regenerate the paper's Table 1
  (:mod:`repro.analysis`, :mod:`repro.experiments`).

Quick start::

    from repro import quick_run
    result = quick_run("dfs-rank", n=200, seed=1)
    print(result.messages, result.time)

See README.md for the full tour and DESIGN.md for the architecture.
"""

from __future__ import annotations

from repro.core import (
    ChildEncodingAdvice,
    DfsWakeUp,
    FastWakeUp,
    Fip06TreeAdvice,
    Flooding,
    LogSpannerAdvice,
    PrefixAdvice,
    SpannerAdvice,
    SqrtThresholdAdvice,
    WakeUpAlgorithm,
    algorithm_names,
    get_algorithm,
)
from repro.errors import (
    AdviceError,
    FieldError,
    GraphError,
    ModelViolation,
    ReproError,
    SimulationError,
    WakeUpFailure,
)
from repro.graphs import Graph, awake_distance
from repro.models import Knowledge, NetworkSetup, make_setup
from repro.sim import (
    Adversary,
    UniformRandomDelay,
    UnitDelay,
    WakeSchedule,
    WakeUpResult,
    run_wakeup,
)

__version__ = "1.0.0"

__all__ = [
    "ChildEncodingAdvice",
    "DfsWakeUp",
    "FastWakeUp",
    "Fip06TreeAdvice",
    "Flooding",
    "LogSpannerAdvice",
    "PrefixAdvice",
    "SpannerAdvice",
    "SqrtThresholdAdvice",
    "WakeUpAlgorithm",
    "algorithm_names",
    "get_algorithm",
    "AdviceError",
    "FieldError",
    "GraphError",
    "ModelViolation",
    "ReproError",
    "SimulationError",
    "WakeUpFailure",
    "Graph",
    "awake_distance",
    "Knowledge",
    "NetworkSetup",
    "make_setup",
    "Adversary",
    "UniformRandomDelay",
    "UnitDelay",
    "WakeSchedule",
    "WakeUpResult",
    "run_wakeup",
    "quick_run",
    "__version__",
]


def quick_run(
    algorithm: str = "dfs-rank",
    n: int = 100,
    avg_degree: float = 6.0,
    awake: int = 1,
    engine: str | None = None,
    seed: int = 0,
) -> WakeUpResult:
    """One-call demo: random connected network, adversarial wake-up,
    chosen algorithm; returns the :class:`WakeUpResult`.

    The knowledge/bandwidth/engine configuration is derived from the
    algorithm's declared requirements.
    """
    import random as _random

    from repro.experiments.sweeps import algorithm_model
    from repro.graphs.generators import connected_erdos_renyi

    algo = get_algorithm(algorithm)
    graph = connected_erdos_renyi(n, avg_degree / max(1, n - 1), seed=seed)
    rng = _random.Random(seed + 1)
    awake_set = rng.sample(list(graph.vertices()), max(1, awake))
    knowledge, bandwidth, default_engine = algorithm_model(algo)
    setup = make_setup(
        graph, knowledge=Knowledge[knowledge], bandwidth=bandwidth,
        seed=seed + 2,
    )
    adversary = Adversary(WakeSchedule.all_at_once(awake_set), UnitDelay())
    return run_wakeup(
        setup, algo, adversary, engine=engine or default_engine, seed=seed + 3
    )
