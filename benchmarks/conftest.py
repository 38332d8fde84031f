"""Shared helpers for the benchmark suite.

Every bench in this directory reproduces one Table-1 row or one figure
of the paper (see DESIGN.md §4 for the full index).  Benches do three
things:

1. sweep the relevant parameter (n, beta, k, ...) and print a
   paper-style table of the measured quantities;
2. assert the *shape* of the paper's bound (fitted exponents, "who
   wins" orderings) with generous tolerances;
3. expose one representative execution to pytest-benchmark for timing.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pytest

from repro.analysis.telemetry import phase_profile_table
from repro.obs.metrics import MetricsRegistry, set_global_registry


@pytest.fixture(scope="session")
def bench_sizes():
    """Network sizes used by the n-sweeps; chosen so the full bench
    suite completes in a couple of minutes."""
    return [64, 128, 256, 512]


@pytest.fixture(scope="session")
def small_bench_sizes():
    return [32, 64, 128]


@pytest.fixture(scope="session")
def profile_phases():
    """``profile_phases(run)`` calls ``run()`` once under a fresh
    metrics registry, the only phase store, and returns its per-phase
    profile rows keyed by phase name."""

    def profile(run):
        registry = MetricsRegistry()
        previous = set_global_registry(registry)
        try:
            run()
        finally:
            set_global_registry(previous)
        rows = phase_profile_table(registry.snapshot())
        return {row["phase"]: row for row in rows}

    return profile


def pytest_collection_modifyitems(config, items):
    """Keep the shape-assertion benches alive under --benchmark-only.

    pytest-benchmark skips any test that does not use its fixture when
    --benchmark-only is given.  The table/shape checks in this
    directory *are* the benchmarks of record (they print the measured
    Table-1 rows), so we register the fixture on them too; tests that
    never call it simply contribute no timing row.
    """
    try:
        benchmark_only = config.getoption("--benchmark-only")
    except (ValueError, KeyError):
        return
    if not benchmark_only:
        return
    for item in items:
        fixturenames = getattr(item, "fixturenames", None)
        if fixturenames is not None and "benchmark" not in fixturenames:
            fixturenames.append("benchmark")
