"""Adversary-optimizer throughput benchmark: candidate evaluations/sec
through the ask/tell loop.

The ``repro.opt`` cost unit is one *candidate evaluation* — a genome
materialized into a :class:`~repro.experiments.parallel.CellSpec` and
executed through the sweep executor (cache off here, so every
evaluation is a real engine run).  This bench pins that throughput for
each optimizer on the check-world star workload, the same shape the CI
atlas-smoke job searches.

Results land in ``BENCH_opt.json`` (repo root); the committed copy is
the ledger baseline that ``repro perf check --candidate opt=...``
guards against >30% regressions.  Run as a script:

    PYTHONPATH=src python benchmarks/bench_adversary_opt.py
    PYTHONPATH=src python benchmarks/bench_adversary_opt.py --check

``--check`` runs a reduced matrix (fast enough for CI) and validates
the output schema without touching the committed baseline.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.perf import bench_envelope, check_bench, emit_bench
from repro.experiments.parallel import ParallelSweepExecutor
from repro.opt.evaluate import CellEvaluator, check_world_spec, optimize
from repro.opt.genomes import DelayVectorSpace
from repro.opt.optimizers import make_optimizer

#: The repro.analysis.perf PROFILES entry that validates this
#: bench's envelope and cases.
PROFILE = "opt"

#: (optimizer, algorithm, n) — the benchmark matrix.
CASES = (
    ("cem", "flooding", 64),
    ("sa", "flooding", 64),
    ("pop", "flooding", 64),
    ("cem", "echo-flooding", 64),
)


def run_case(
    optimizer: str,
    algorithm: str,
    n: int,
    *,
    generations: int = 4,
    population: int = 8,
    repeats: int = 3,
) -> dict:
    base_spec = check_world_spec(algorithm, n, graph="star", seed=0)
    space = DelayVectorSpace(length=min(64, n))
    executor = ParallelSweepExecutor(workers=0, use_cache=False)
    best_wall = float("inf")
    evaluations = 0
    for _ in range(repeats):
        opt = make_optimizer(optimizer, space, seed=7)
        evaluator = CellEvaluator(executor, base_spec, "time")
        t0 = time.perf_counter()
        outcome = optimize(
            opt, evaluator,
            generations=generations, population=population,
        )
        wall = time.perf_counter() - t0
        assert outcome.best_genome is not None, "bench search found nothing"
        evaluations = outcome.evaluations
        best_wall = min(best_wall, wall)
    return {
        "optimizer": optimizer,
        "algorithm": algorithm,
        "n": n,
        "evaluations": evaluations,
        "wall_s": best_wall,
        "evals_per_sec": (
            evaluations / best_wall if best_wall > 0 else 0.0
        ),
    }


def run_bench(
    cases=CASES,
    generations: int = 4,
    population: int = 8,
    repeats: int = 3,
    quiet: bool = False,
) -> dict:
    recs = []
    for optimizer, algorithm, n in cases:
        rec = run_case(
            optimizer, algorithm, n,
            generations=generations, population=population,
            repeats=repeats,
        )
        recs.append(rec)
        if not quiet:
            print(
                f"{optimizer:4s} {algorithm:14s} n={n:4d}  "
                f"{rec['evaluations']:4d} evals  "
                f"{rec['wall_s']*1e3:8.1f} ms  "
                f"{rec['evals_per_sec']:8.1f} evals/s"
            )
    return bench_envelope(PROFILE, repeats=repeats, cases=recs)


# ----------------------------------------------------------------------
# pytest hook: a tiny smoke run so `pytest benchmarks/` covers the bench
# ----------------------------------------------------------------------
def test_adversary_opt_bench_smoke():
    payload = run_bench(
        cases=(("cem", "flooding", 16), ("sa", "flooding", 16)),
        generations=2,
        population=4,
        repeats=1,
        quiet=True,
    )
    check_bench(payload)
    for case in payload["cases"]:
        assert case["evaluations"] > 0
        assert case["evals_per_sec"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_opt.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per case; best-of wins (default: 3)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: reduced matrix, single repeat, schema "
        "validation, no baseline overwrite (writes to --out only if "
        "given explicitly)",
    )
    args = parser.parse_args(argv)

    if args.check:
        payload = run_bench(
            cases=(("cem", "flooding", 16), ("sa", "flooding", 16)),
            generations=2,
            population=4,
            repeats=1,
        )
        # --check writes only to an --out given explicitly
        out = None if args.out == parser.get_default("out") else args.out
        if emit_bench(payload, out):
            return 1
        print("bench check ok")
        return 0

    payload = run_bench(repeats=args.repeats)
    return emit_bench(payload, args.out)


if __name__ == "__main__":
    sys.exit(main())
