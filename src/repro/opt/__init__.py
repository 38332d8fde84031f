"""repro.opt — stochastic adversary optimizers + the frontier atlas.

Search over adversarial schedules at sizes the exhaustive checker and
the beam search cannot reach: genome parameterizations
(:mod:`~repro.opt.genomes`), ask/tell optimizers
(:mod:`~repro.opt.optimizers`), executor-cell evaluation
(:mod:`~repro.opt.evaluate`), and the committed best-known-schedule
atlas (:mod:`~repro.opt.atlas`).  See the "Stochastic search & the
frontier atlas" section of ``docs/modelcheck.md``.
"""

from repro.opt.atlas import (
    ATLAS_KIND,
    ATLAS_VERSION,
    DEFAULT_ATLAS_PATH,
    check_atlas,
    empty_atlas,
    entry_is_stale,
    entry_key,
    improve_atlas,
    load_atlas,
    merge_entry,
    plain_replay_spec,
    replay_entry,
    save_atlas,
)
from repro.opt.evaluate import (
    CellEvaluator,
    OptimizeOutcome,
    check_world_spec,
    controlled_log_for,
    optimize,
    workload_spec,
)
from repro.opt.genomes import (
    ChoicePrefixGenome,
    ChoicePrefixSpace,
    DelayVectorGenome,
    DelayVectorSpace,
    Genome,
    GenomeSpace,
    genome_from_dict,
)
from repro.opt.optimizers import (
    OPTIMIZERS,
    CrossEntropyMethod,
    Optimizer,
    PopulationSearch,
    SimulatedAnnealing,
    make_optimizer,
)

__all__ = [
    "ATLAS_KIND",
    "ATLAS_VERSION",
    "DEFAULT_ATLAS_PATH",
    "check_atlas",
    "empty_atlas",
    "entry_is_stale",
    "entry_key",
    "improve_atlas",
    "load_atlas",
    "merge_entry",
    "plain_replay_spec",
    "replay_entry",
    "save_atlas",
    "CellEvaluator",
    "OptimizeOutcome",
    "check_world_spec",
    "controlled_log_for",
    "optimize",
    "workload_spec",
    "ChoicePrefixGenome",
    "ChoicePrefixSpace",
    "DelayVectorGenome",
    "DelayVectorSpace",
    "Genome",
    "GenomeSpace",
    "genome_from_dict",
    "OPTIMIZERS",
    "CrossEntropyMethod",
    "Optimizer",
    "PopulationSearch",
    "SimulatedAnnealing",
    "make_optimizer",
]
