"""Reproduce Table 1 end to end.

For every row of the paper's Table 1 this module runs the
corresponding implementation on a standard workload, measures the
three complexity columns (time, messages, max advice), and renders a
measured table side by side with the paper's asymptotic claims.  The
EXPERIMENTS.md numbers come from here (and from the per-row benches,
which sweep n and fit exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.report import render_table
from repro.errors import ReproError
from repro.experiments.parallel import CellSpec, ParallelSweepExecutor
from repro.graphs.compile import (
    TopologyStore,
    compiled_topology,
    topology_diameter,
)


@dataclass
class Table1Row:
    """One measured Table-1 row."""

    row: str
    algorithm: str
    model: str
    paper_time: str
    paper_messages: str
    paper_advice: str
    time: float
    messages: int
    advice_max_bits: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "row": self.row,
            "algorithm": self.algorithm,
            "model": self.model,
            "time": self.time,
            "paper_time": self.paper_time,
            "messages": self.messages,
            "paper_msgs": self.paper_messages,
            "adv_max": self.advice_max_bits,
            "paper_advice": self.paper_advice,
        }


_ROWS = [
    # (label, registry name, algo params, engine, knowledge, bandwidth,
    #  paper bounds) — one executor cell per row.
    (
        "Thm 3",
        "dfs-rank",
        {},
        "async",
        "KT1",
        "LOCAL",
        ("O(n log n)", "O(n log n)", "-"),
    ),
    (
        "Thm 4",
        "fast-wakeup",
        {},
        "sync",
        "KT1",
        "LOCAL",
        ("O(rho)", "O(n^1.5 sqrt(log n))", "-"),
    ),
    (
        "Cor 1",
        "fip06-tree-advice",
        {},
        "async",
        "KT0",
        "CONGEST",
        ("O(D)", "O(n)", "O(n) max / O(log n) avg"),
    ),
    (
        "Thm 5A",
        "sqrt-threshold-advice",
        {},
        "async",
        "KT0",
        "CONGEST",
        ("O(D)", "O(n^1.5)", "O(sqrt(n) log n)"),
    ),
    (
        "Thm 5B",
        "child-encoding",
        {},
        "async",
        "KT0",
        "CONGEST",
        ("O(D log n)", "O(n)", "O(log n)"),
    ),
    (
        "Thm 6",
        "spanner-advice",
        {"k": 3},
        "async",
        "KT0",
        "CONGEST",
        ("O(k rho log n)", "O(k n^{1+1/k})", "O(n^{1/k} log^2 n)"),
    ),
    (
        "Cor 2",
        "log-spanner-advice",
        {},
        "async",
        "KT0",
        "CONGEST",
        ("O(rho log^2 n)", "O(n log^2 n)", "O(log^2 n)"),
    ),
    (
        "baseline",
        "flooding",
        {},
        "async",
        "KT0",
        "CONGEST",
        ("rho", "Theta(m)", "-"),
    ),
]


def table1_workload(
    avg_degree: float = 8.0, awake_fraction: float = 0.05, seed: int = 0
) -> Dict[str, Any]:
    """The ``er_shared_wake`` workload spec every Table-1 row runs on."""
    return {
        "kind": "er_shared_wake",
        "avg_degree": avg_degree,
        "awake_fraction": awake_fraction,
        "seed": seed,
    }


def table1_cells(
    n: int = 200,
    avg_degree: float = 8.0,
    awake_fraction: float = 0.05,
    seed: int = 0,
):
    """One :class:`~repro.experiments.parallel.CellSpec` per Table-1
    row, on the shared :func:`table1_workload`: the rows share one
    graph and awake set, setup seed ``seed + 2``, execution seed
    ``seed + 3``, and (async rows) uniform delays seeded by ``seed``."""
    workload = table1_workload(avg_degree, awake_fraction, seed)
    cells = []
    for _, name, params, engine, knowledge, bandwidth, _ in _ROWS:
        delay = (
            {"kind": "unit"}
            if engine == "sync"
            else {"kind": "uniform", "seed": seed}
        )
        cells.append(
            CellSpec(
                algorithm=name,
                n=n,
                seed=seed,
                engine=engine,
                knowledge=knowledge,
                bandwidth=bandwidth,
                workload=dict(workload),
                delay=delay,
                algo_params=dict(params),
                setup_seed=seed + 2,
                exec_seed=seed + 3,
            )
        )
    return cells


def measure_table1(
    n: int = 200,
    avg_degree: float = 8.0,
    awake_fraction: float = 0.05,
    seed: int = 0,
    executor=None,
) -> List[Table1Row]:
    """Run every Table-1 algorithm on a shared ER workload.

    The rows run as independent cells of ``executor``
    (:class:`~repro.experiments.parallel.ParallelSweepExecutor`) — in
    parallel and cached on disk when it is configured so.  With no
    executor they run inline and uncached, as :func:`parallel_sweep`'s
    cells do.
    """
    if executor is None:
        executor = ParallelSweepExecutor(workers=0, use_cache=False)
    cells = table1_cells(
        n=n,
        avg_degree=avg_degree,
        awake_fraction=awake_fraction,
        seed=seed,
    )
    rows = []
    for (label, _, _, engine, knowledge, bandwidth, bounds), o in zip(
        _ROWS, executor.run(cells)
    ):
        if not o.ok or o.result is None:
            raise ReproError(
                f"Table-1 row {label!r} failed: {o.status} ({o.error})"
            )
        rows.append(
            Table1Row(
                row=label,
                algorithm=o.result.algorithm,
                model=f"{engine}/{knowledge}/{bandwidth}",
                paper_time=bounds[0],
                paper_messages=bounds[1],
                paper_advice=bounds[2],
                time=o.result.time,
                messages=o.result.messages,
                advice_max_bits=o.result.advice_max_bits,
            )
        )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    return render_table(
        [r.as_dict() for r in rows],
        title="Table 1 (measured vs paper bounds)",
    )


def workload_context(
    n: int = 200, avg_degree: float = 8.0, awake_fraction: float = 0.05,
    seed: int = 0, store: Optional[TopologyStore] = None,
) -> Dict[str, float]:
    """The D / rho / m context values for a measured table.

    They are read off the compiled topology the Table-1 cells run on,
    fetched through ``store`` when given (pass the executor's, and the
    cells' first fetch is a hit); its diameter is kept in its extras
    (:func:`~repro.graphs.compile.topology_diameter`)."""
    topo = compiled_topology(
        table1_workload(avg_degree, awake_fraction, seed), n, store=store
    )
    return {
        "n": float(n),
        "m": float(topo.num_edges()),
        "diameter": float(topology_diameter(topo)),
        "rho_awk": topo.rho_awk,
        "log2n": math.log2(n),
    }
