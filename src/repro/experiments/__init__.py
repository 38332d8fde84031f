"""Experiment drivers: Table-1 reproduction, sweeps, parallel cell
execution with on-disk caching, persistence, and advice-corruption
robustness."""

from repro.experiments.corruption import (
    CorruptionPoint,
    corruption_curve,
    corruption_trial,
    flip_bits,
)
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    ParallelSweepExecutor,
    cell_key,
)
from repro.experiments.storage import (
    compare_records,
    load_records,
    merge_records,
    save_records,
)
from repro.experiments.sweeps import (
    SweepRow,
    build_workload,
    dense_er_all_awake,
    er_fraction_wake,
    er_shared_wake,
    er_single_wake,
    grid_corner_wake,
    parallel_sweep,
    register_workload,
    rows_from_outcomes,
    sweep_cells,
    tree_random_wake,
)
from repro.experiments.table1 import (
    Table1Row,
    measure_table1,
    render_table1,
    table1_cells,
    workload_context,
)

__all__ = [
    "CorruptionPoint",
    "corruption_curve",
    "corruption_trial",
    "flip_bits",
    "CellOutcome",
    "CellSpec",
    "ParallelSweepExecutor",
    "cell_key",
    "compare_records",
    "load_records",
    "merge_records",
    "save_records",
    "SweepRow",
    "build_workload",
    "dense_er_all_awake",
    "er_fraction_wake",
    "er_shared_wake",
    "er_single_wake",
    "grid_corner_wake",
    "parallel_sweep",
    "register_workload",
    "rows_from_outcomes",
    "sweep_cells",
    "tree_random_wake",
    "Table1Row",
    "measure_table1",
    "render_table1",
    "table1_cells",
    "workload_context",
]
