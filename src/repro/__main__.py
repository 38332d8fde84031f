"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run``     — run one algorithm on a generated network and print the
  Table-1 measures (optionally a wake-wave timeline);
* ``table1``  — print the measured Table-1 reproduction;
* ``list``    — list registered algorithms;
* ``sweep``   — sweep an algorithm over network sizes and print the
  fitted message-growth exponent;
* ``lowerbounds`` — run the Theorem-1 and Theorem-2 harnesses and print
  their frontier/shape tables;
* ``report``  — aggregate a ``--telemetry`` JSONL file into per-phase /
  per-n profile tables and flag runtime outliers;
* ``check``   — bounded model checking: exhaustively explore the
  adversary's schedule space at small n, check invariants, shrink any
  counterexample to a replayable artifact;
* ``worstcase`` — greedy + beam search for the worst schedule at sizes
  exhaustion cannot reach; reports the empirical adversarial frontier
  against a random-delay baseline and saves a replay artifact;
* ``atlas``   — stochastic adversary optimizers (CEM / simulated
  annealing / population search) over executor cells, merged
  best-wins into the committed adversarial frontier ``ATLAS.json``:
  ``run`` / ``show`` / ``check`` (structure + salts + plain-engine
  replayability);
* ``cache``   — inspect or purge the on-disk runtime caches (the cell
  result cache, the compiled-topology artifact store, and the
  schedule-replay artifacts);
* ``metrics`` — render a metrics snapshot file (written by
  ``--metrics``) as JSON or Prometheus text exposition format;
* ``top``     — the metrics dashboard (executor throughput, cache
  hit-rates, per-phase p50/p99) rendered from a snapshot file;
* ``perf``    — the append-only perf ledger over the ``BENCH_*.json``
  outputs: ``record`` / ``show`` / ``check`` (the unified regression
  gate);
* ``serve``   — long-lived job daemon: accepts sweep/check/worstcase
  specs over a unix socket, streams ``repro.obs`` events back, and
  deduplicates repeat submissions against the warm caches;
* ``submit``  — client for ``serve``: send one job spec and stream its
  events until the final summary line;
* ``jobs``    — client for ``serve``: list jobs, show one job's
  status, or dump daemon stats.

Cell-based commands (``table1``, ``sweep``) accept ``--telemetry PATH``
to stream structured events (:mod:`repro.obs`) to a JSONL file and
``--progress {auto,on,off,top}`` for a live stderr progress line
(``top`` renders the full metrics dashboard instead of one line).
Instrumented commands (``table1``, ``sweep``, ``check``,
``worstcase``) accept ``--metrics [PATH]`` to enable the
:mod:`repro.obs.metrics` registry and write its JSON snapshot on exit
(default: ``results/metrics.json``).  ``--telemetry`` enables the
registry too, without writing the file: the stream's
``metrics_snapshot`` events carry the phase profiles.

Examples::

    python -m repro list
    python -m repro run dfs-rank --n 300 --awake 10 --seed 1 --wave
    python -m repro table1 --n 200
    python -m repro sweep child-encoding --sizes 64 128 256 512
    python -m repro sweep flooding --telemetry runs.jsonl
    python -m repro report --telemetry runs.jsonl
    python -m repro sweep flooding --metrics && python -m repro top
    python -m repro metrics dump --format prometheus
    python -m repro perf check --candidate engine=BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import render_table
from repro.artifacts import (
    purge_store,
    runtime_stores,
    store_report,
    write_atomic,
)
from repro.core import algorithm_names, get_algorithm
from repro.experiments.parallel import DEFAULT_CACHE_DIR, ParallelSweepExecutor
from repro.graphs.compile import DEFAULT_TOPOLOGY_DIR
from repro.experiments.storage import merge_records
from repro.experiments.sweeps import algorithm_model, parallel_sweep
from repro.experiments.table1 import (
    measure_table1,
    render_table1,
    workload_context,
)
from repro.graphs.generators import connected_erdos_renyi
from repro.graphs.traversal import awake_distance
from repro.models.knowledge import Knowledge, make_setup
from repro.obs import NULL_RECORDER, JsonlRecorder, SweepProgress
from repro.obs.metrics import emit_snapshot, get_registry
from repro.sim.adversary import Adversary, UnitDelay, WakeSchedule
from repro.sim.runner import run_wakeup
from repro.sim.trace_view import render_wake_wave


def _cmd_list(_args) -> int:
    for name in algorithm_names():
        algo = get_algorithm(name)
        knowledge, bandwidth, _ = algorithm_model(algo)
        model = f"{knowledge}/{bandwidth}/{algo.synchrony}"
        advice = "advice" if algo.uses_advice else "no advice"
        print(f"{name:24s} {model:22s} {advice}")
    return 0


def _cmd_run(args) -> int:
    algo = get_algorithm(args.algorithm)
    graph = connected_erdos_renyi(
        args.n, args.degree / max(1, args.n - 1), seed=args.seed
    )
    rng = random.Random(args.seed + 1)
    awake = rng.sample(list(graph.vertices()), max(1, args.awake))
    knowledge, bandwidth, engine = algorithm_model(algo)
    setup = make_setup(
        graph,
        knowledge=Knowledge[knowledge],
        bandwidth=bandwidth,
        seed=args.seed + 2,
    )
    adversary = Adversary(WakeSchedule.all_at_once(awake), UnitDelay())
    recorder = _make_recorder(args)
    try:
        result = run_wakeup(
            setup, algo, adversary, engine=engine, seed=args.seed + 3,
            record_trace=args.wave, recorder=recorder,
        )
        if recorder.enabled:
            # The run's phase profile lives in the registry main()
            # installed for --telemetry.
            emit_snapshot(recorder, get_registry())
    finally:
        recorder.close()
    rho = awake_distance(graph, awake)
    print(
        render_table(
            [
                {
                    "algorithm": result.algorithm,
                    "n": result.n,
                    "m": graph.num_edges,
                    "rho_awk": rho,
                    "messages": result.messages,
                    "bits": result.bits,
                    "time": result.time,
                    "time_all_awake": result.time_all_awake,
                    "advice_max_bits": result.advice_max_bits,
                    "all_awake": result.all_awake,
                }
            ]
        )
    )
    if args.wave and result.trace is not None:
        print()
        print(render_wake_wave(result.trace))
    return 0


def _cmd_table1(args) -> int:
    executor = _make_executor(args)
    try:
        ctx = workload_context(
            n=args.n, seed=args.seed, store=executor.topology_store
        )
        print(
            f"workload: n={ctx['n']:.0f} m={ctx['m']:.0f} "
            f"D={ctx['diameter']:.0f} rho_awk={ctx['rho_awk']:.0f}"
        )
        print(
            render_table1(
                measure_table1(n=args.n, seed=args.seed, executor=executor)
            )
        )
    finally:
        executor.recorder.close()
    s = executor.stats
    print(
        f"cells: {s['cells']:.0f} "
        f"(executed {s['executed']:.0f}, cached {s['cached']:.0f}) "
        f"in {s['wall_time']:.2f}s [workers={executor.workers}]"
    )
    return 0


def _cmd_lowerbounds(args) -> int:
    from repro.lowerbounds.theorem1 import run_prefix_tradeoff
    from repro.lowerbounds.theorem2 import OneShotProbe, run_time_restricted

    points = run_prefix_tradeoff(
        n=args.n, betas=list(range(args.betas + 1)), trials=2, seed=args.seed
    )
    print(
        render_table(
            [
                {
                    "beta": p.beta,
                    "messages": int(p.messages),
                    "msgs*2^b": int(p.product),
                    "adv_avg_bits": round(p.advice_avg_bits, 2),
                    "thm1_threshold": round(p.lb_message_bound, 1),
                }
                for p in points
            ],
            title=f"Theorem 1 frontier on class G(n={args.n})",
        )
    )
    print()
    rows = []
    for q in (3, 4, 5):
        pt = run_time_restricted(3, q, OneShotProbe(), seed=args.seed)
        rows.append(
            {
                "k": pt.k,
                "q": pt.q,
                "n_side": pt.n,
                "messages": pt.messages,
                "n^(1+1/k)": round(pt.lb_bound),
                "ratio": round(pt.messages / pt.lb_bound, 2),
            }
        )
    print(
        render_table(
            rows, title="Theorem 2 matching upper bound on class Gk (k=3)"
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.telemetry import (
        DEFAULT_OUTLIER_FACTOR,
        render_telemetry_report,
    )

    factor = (
        args.outlier_factor
        if args.outlier_factor is not None
        else DEFAULT_OUTLIER_FACTOR
    )
    try:
        report = render_telemetry_report(
            args.telemetry, outlier_factor=factor
        )
    except OSError as exc:
        print(f"cannot read telemetry file: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def _cmd_cache(args) -> int:
    from repro.versioning import salt_vector

    stores = runtime_stores(args.cache_dir, args.topology_dir, args.replay_dir)
    if args.action == "info":
        reports = {s.name: store_report(s) for s in stores}
        print(
            render_table(
                [
                    {"cache": s.name, "location": str(s.root),
                     **reports[s.name]}
                    for s in stores
                ],
                columns=("cache", "location", "entries", "live", "stale",
                         "bytes"),
                title="On-disk runtime caches",
            )
        )
        print(
            render_table(
                [
                    {"subsystem": name, "salt": salt}
                    for name, salt in salt_vector().items()
                ],
                title="Subsystem code salts (repro.versioning)",
            )
        )
        stale_by = reports["cells"]["stale_by"]
        if stale_by:
            breakdown = ", ".join(
                f"{reason}: {n}" for reason, n in sorted(stale_by.items())
            )
            print(f"stale cells by cause: {breakdown}")
            print("hint: `repro cache purge --stale` removes only these")
        return 0
    # action == "purge"
    stale_only = bool(getattr(args, "stale", False))
    removed = {
        s.name: purge_store(s, stale_only)
        if args.what in (s.name, "all") else 0
        for s in stores
    }
    what = "stale " if stale_only else ""
    print(
        f"purged {removed['cells']} {what}cached cell(s), "
        f"{removed['topologies']} compiled topolog(y/ies), "
        f"{removed['replays']} replay artifact(s)"
    )
    return 0


#: Where ``--metrics`` (bare, no PATH) writes its JSON snapshot, and
#: where ``metrics dump`` / ``top`` look by default.
DEFAULT_METRICS_PATH = "results/metrics.json"


def _load_snapshot(path: str) -> Optional[dict]:
    """Read + schema-check a snapshot file; None (with stderr) on error."""
    import json

    from repro.obs.metrics import validate_snapshot

    try:
        with open(path, "r", encoding="utf-8") as fh:
            snap = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics snapshot {path}: {exc}",
              file=sys.stderr)
        return None
    problems = validate_snapshot(snap)
    if problems:
        for p in problems:
            print(f"invalid snapshot {path}: {p}", file=sys.stderr)
        return None
    return snap


def _cmd_metrics(args) -> int:
    import json

    from repro.obs.metrics import render_prometheus

    snap = _load_snapshot(args.snapshot)
    if snap is None:
        return 2
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus(snap))
    else:
        print(json.dumps(snap, indent=2, sort_keys=True))
    return 0


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs.top import render_top

    snap = _load_snapshot(args.snapshot)
    if snap is None:
        return 2
    print(render_top(snap))
    if not args.watch:
        return 0
    # Poll the snapshot file; redraw whenever it changes (a concurrent
    # sweep with --metrics rewrites it on exit).
    prev, prev_t = snap, _time.perf_counter()
    try:
        while True:
            _time.sleep(args.watch)
            snap = _load_snapshot(args.snapshot)
            if snap is None or snap == prev:
                continue
            now = _time.perf_counter()
            print()
            print(render_top(snap, prev=prev, dt=now - prev_t))
            prev, prev_t = snap, now
    except KeyboardInterrupt:
        return 0


def _cmd_perf(args) -> int:
    from pathlib import Path

    from repro.analysis.perf import PerfError, check, record, show
    from repro.analysis.perf import PROFILES as _PROFILES

    ledger = Path(args.ledger)
    try:
        if args.perf_command == "record":
            benches = [Path(b) for b in args.benches]
            if not benches:
                benches = [
                    Path(prof["baseline"])
                    for prof in _PROFILES.values()
                    if Path(prof["baseline"]).exists()
                ]
                if not benches:
                    print("error: no BENCH_*.json files found",
                          file=sys.stderr)
                    return 1
            for bench in benches:
                entry = record(bench, ledger)
                print(
                    f"recorded [{entry['profile']}] {bench} "
                    f"({len(entry['cases'])} cases) -> {ledger}"
                )
            return 0
        if args.perf_command == "show":
            show(ledger)
            return 0
    except PerfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # check
    candidates = {}
    for pair in args.candidate:
        profile, sep, path = pair.partition("=")
        if not sep or not path:
            print(f"--candidate wants PROFILE=PATH, got {pair!r}",
                  file=sys.stderr)
            return 2
        candidates[profile] = Path(path)
    if not candidates:
        print("error: check wants at least one --candidate PROFILE=PATH",
              file=sys.stderr)
        return 2
    errors = check(
        candidates, ledger, max_regression=args.max_regression
    )
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"{len(candidates)} profile(s) within tolerance of the ledger")
    return 0


from repro.check.worlds import CHECK_GRAPHS, CHECK_WORKLOADS


def _cmd_check(args) -> int:
    from pathlib import Path

    from repro.check import (
        ReplayController,
        default_invariants,
        explore,
        make_replay,
        save_replay,
        shrink_violation,
    )
    from repro.check.worlds import build_world, run_schedule, world_fields

    algo = get_algorithm(args.algorithm)
    fields = world_fields(vars(args))
    world, times = build_world(algo, {"n": args.n, **fields})
    recorder = _make_recorder(args)
    try:
        result = explore(
            world,
            max_schedules=args.max_schedules,
            max_states=args.max_states,
            max_depth=args.max_depth,
            por=not args.no_por,
            dedup=not args.no_dedup,
            seed=args.seed + 3,
            laziness=args.laziness,
            mutation=args.mutation,
            recorder=recorder,
        )
        s = result.stats
        print(
            render_table(
                [
                    {
                        "algorithm": args.algorithm,
                        "n": args.n,
                        "graph": args.graph,
                        "schedules": s.schedules,
                        "states": s.states,
                        "pruned": s.pruned_sleep + s.pruned_state,
                        "violations": s.violations,
                        "coverage": "complete"
                        if result.completed
                        else "budget hit",
                    }
                ],
                title="Schedule-space exploration",
            )
        )
        if not result.violations:
            if s.violations:
                # Counted but not retained (max_violations overflow).
                return 1
            return 0
        v = result.violations[0]
        print(f"\nviolation: {v.invariant}: {v.detail}")
        outcome = shrink_violation(
            world,
            v.choices,
            v.invariant,
            invariants=default_invariants(algo.name),
            seed=args.seed + 3,
            laziness=args.laziness,
            mutation=args.mutation,
            recorder=recorder,
        )
        print(
            f"shrunk witness {outcome.initial_length} -> "
            f"{outcome.final_length} choice(s) in {outcome.tests} runs: "
            f"{list(outcome.choices)}"
        )
        # Re-run the shrunk witness once to capture its full log.
        witness = ReplayController(
            list(outcome.choices),
            strict=False,
            laziness=args.laziness,
            mutation=args.mutation,
        )
        run_schedule(world, witness, seed=args.seed + 3)
        replay = make_replay(
            algorithm=algo.name,
            n=args.n,
            log=witness.log,
            schedule_times=times,
            laziness=args.laziness,
            mutation=args.mutation,
            seed=args.seed + 3,
            invariant=v.invariant,
            workload=fields,
        )
        path = save_replay(
            replay,
            Path(args.replay_dir)
            / f"check-{algo.name}-n{args.n}-{v.invariant}.json",
        )
        print(f"replay artifact: {path}")
        return 1
    finally:
        recorder.close()


def _cmd_worstcase(args) -> int:
    from pathlib import Path

    from repro.check import (
        ReplayDelay,
        make_replay,
        random_baseline,
        replay_mismatch,
        save_replay,
        worstcase_search,
    )
    from repro.check.worlds import build_world, run_schedule, world_fields

    algo = get_algorithm(args.algorithm)
    fields = world_fields(vars(args))
    world, times = build_world(algo, {"n": args.n, **fields})
    recorder = _make_recorder(args)
    try:
        wc = worstcase_search(
            world,
            args.objective,
            beam_width=args.beam,
            horizon=args.horizon,
            branch_cap=args.branch_cap,
            laziness=args.laziness,
            seed=args.seed + 3,
            recorder=recorder,
        )
        baseline = random_baseline(
            world, args.objective, trials=args.trials, seed=args.seed + 4
        )
        rows = [
            {"adversary": f"random best of {args.trials}",
             args.objective: round(baseline, 6)}
        ]
        rows += [
            {"adversary": f"greedy {name}",
             args.objective: round(score, 6)}
            for name, score in sorted(wc.greedy_scores.items())
        ]
        rows.append(
            {"adversary": f"beam ({wc.evaluations} evals)",
             args.objective: round(wc.score, 6)}
        )
        print(
            render_table(
                rows,
                title=(
                    f"Worst-case search: {algo.name} on "
                    f"{args.workload} n={args.n}"
                ),
            )
        )
        # The found schedule must replay bit-identically through the
        # plain engine — the artifact is only worth saving if it does.
        replayed = run_schedule(
            world, seed=args.seed + 3, delays=ReplayDelay(wc.delays)
        )[2]
        mismatch = replay_mismatch(replayed.summary(), wc.result.summary())
        if mismatch:
            print(f"replay check FAILED: plain engine diverged: {mismatch}",
                  file=sys.stderr)
            return 1
        print(
            f"replay check: plain engine reproduces "
            f"{args.objective}={wc.score:g} bit-identically"
        )
        replay = make_replay(
            algorithm=algo.name,
            n=args.n,
            log=wc.log,
            schedule_times=times,
            laziness=wc.laziness,
            seed=args.seed + 3,
            objective=args.objective,
            score=wc.score,
            workload=fields,
        )
        out = args.out or (
            Path(args.replay_dir)
            / f"worstcase-{algo.name}-{args.workload}-n{args.n}-"
            f"{args.objective}.json"
        )
        path = save_replay(replay, out)
        print(f"replay artifact: {path}")
        return 0
    finally:
        recorder.close()


def _load_atlas_or_report(path):
    """The atlas at ``path``, or None after saying on stderr why it
    cannot be loaded."""
    from repro.errors import ReproError
    from repro.opt import load_atlas

    try:
        return load_atlas(path)
    except ReproError as exc:
        print(f"cannot load atlas {path}: {exc}", file=sys.stderr)
        return None


def _load_valid_atlas_or_report(path):
    """The atlas at ``path`` when it loads and :func:`check_atlas`
    finds no structural error in it, or None after printing why on
    stderr: ``atlas run`` and ``atlas show`` index every entry."""
    from repro.opt import check_atlas

    atlas = _load_atlas_or_report(path)
    if atlas is None:
        return None
    errors, _ = check_atlas(atlas)
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    return None if errors else atlas


def _cmd_atlas(args) -> int:
    if args.atlas_command == "run":
        return _cmd_atlas_run(args)
    if args.atlas_command == "show":
        return _cmd_atlas_show(args)
    return _cmd_atlas_check(args)


def _cmd_atlas_run(args) -> int:
    from repro.opt import (
        OPTIMIZERS,
        ChoicePrefixSpace,
        DelayVectorSpace,
        check_world_spec,
        improve_atlas,
        save_atlas,
    )

    optimizers = tuple(
        name for name in args.optimizers.split(",") if name
    )
    unknown = sorted(set(optimizers) - set(OPTIMIZERS))
    if unknown:
        print(
            f"unknown optimizer(s) {unknown}; pick from "
            f"{sorted(OPTIMIZERS)}",
            file=sys.stderr,
        )
        return 2
    atlas = _load_valid_atlas_or_report(args.atlas)
    if atlas is None:
        return 1
    executor = _make_executor(args)
    rows = []
    try:
        for n in args.sizes:
            base_spec = check_world_spec(
                args.algorithm,
                n,
                graph=args.graph,
                awake=args.awake,
                stagger=args.stagger,
                degree=args.degree,
                seed=args.seed,
            )
            if args.genome == "choice-prefix":
                space = ChoicePrefixSpace(
                    horizon=args.horizon,
                    branch_cap=args.branch_cap,
                    laziness=args.laziness,
                )
            elif args.vector_length is not None:
                space = DelayVectorSpace(length=args.vector_length)
            else:
                space = None  # improve_atlas sizes one to the spec
            summary = improve_atlas(
                atlas,
                base_spec=base_spec,
                objective=args.objective,
                executor=executor,
                optimizers=optimizers,
                generations=args.generations,
                population=args.population,
                space=space,
                baseline_trials=args.baseline_trials,
                recorder=executor.recorder,
            )
            rows.append(summary)
    finally:
        executor.recorder.close()
    path = save_atlas(atlas, args.atlas)
    print(
        render_table(
            [
                {
                    "n": row["n"],
                    "optimizer": row["optimizer"],
                    "genome": row["genome_kind"],
                    args.objective: round(row["score"], 6),
                    "baseline": round(row["baseline"], 6),
                    "beat": "yes" if row["beat_baseline"] else "no",
                    "merge": row["merge"],
                }
                for row in rows
            ],
            title=(
                f"Atlas run: {args.algorithm} on {args.graph} "
                f"(objective {args.objective})"
            ),
        )
    )
    print(f"atlas: {path} ({len(atlas.get('entries', {}))} entries)")
    if args.require_beat_baseline and not all(
        row["beat_baseline"] for row in rows
    ):
        print(
            "FAIL: an incumbent did not beat its random baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_atlas_show(args) -> int:
    from repro.opt import entry_is_stale

    atlas = _load_valid_atlas_or_report(args.atlas)
    if atlas is None:
        return 1
    entries = atlas.get("entries", {})
    if not entries:
        print(f"atlas {args.atlas} is empty")
        return 0
    print(
        render_table(
            [
                {
                    "key": key,
                    "optimizer": entry["optimizer"],
                    "genome": entry["genome"]["kind"],
                    "score": round(float(entry["score"]), 6),
                    "baseline": round(float(entry["baseline"]), 6),
                    "beat": (
                        "yes"
                        if float(entry["score"])
                        > float(entry["baseline"])
                        else "no"
                    ),
                    "salts": (
                        "stale" if entry_is_stale(entry) else "live"
                    ),
                }
                for key, entry in sorted(entries.items())
            ],
            title=f"Adversarial frontier atlas ({args.atlas})",
        )
    )
    return 0


def _cmd_atlas_check(args) -> int:
    from repro.opt import check_atlas, entry_is_stale, replay_entry

    atlas = _load_atlas_or_report(args.atlas)
    if atlas is None:
        return 1
    errors, stale = check_atlas(atlas)
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    replay_failures = 0
    replayed = 0
    if args.replay and not errors:
        # Replay only live entries: a stale salt vector means the code
        # changed under the entry, so bit-identity is not promised.
        for key, entry in sorted(atlas.get("entries", {}).items()):
            if entry_is_stale(entry):
                continue
            ok, detail = replay_entry(entry)
            replayed += 1
            if not ok:
                replay_failures += 1
                print(f"REPLAY FAILED: {key}: {detail}",
                      file=sys.stderr)
    total = len(atlas.get("entries", {}))
    stale_note = f", {len(stale)} stale" if stale else ""
    replay_note = (
        f", {replayed} replayed bit-identically"
        if args.replay and not replay_failures and not errors
        else ""
    )
    if stale and not args.strict:
        for key in stale:
            print(f"stale (salts superseded): {key}")
        print("hint: `repro atlas run` refreshes stale entries; "
              "--strict turns stale into failure")
    failed = bool(errors) or replay_failures > 0 or (
        args.strict and bool(stale)
    )
    status = "FAIL" if failed else "OK"
    print(
        f"atlas check: {status} — {total} entr(y/ies)"
        f"{stale_note}{replay_note}"
    )
    return 1 if failed else 0


def _make_recorder(args):
    """Telemetry sink from ``--telemetry`` (NULL_RECORDER when unset)."""
    path = getattr(args, "telemetry", None)
    if not path:
        return NULL_RECORDER
    return JsonlRecorder(path)


def _make_progress(args):
    """Live progress display per ``--progress`` (auto: only on a TTY).

    ``top`` swaps the one-line tracker for the multi-line metrics
    dashboard (:class:`~repro.obs.top.TopView`); it reads the global
    registry, so it pairs with ``--metrics`` or ``--telemetry``
    (without either the panel shows zeros).
    """
    mode = getattr(args, "progress", "off")
    if mode == "off":
        return None
    if mode == "top":
        from repro.obs.top import TopView

        return TopView()
    if mode == "auto" and not sys.stderr.isatty():
        return None
    return SweepProgress()


def _make_executor(args) -> ParallelSweepExecutor:
    """Build the executor plus its telemetry sink.

    The recorder is reachable as ``executor.recorder`` so command
    handlers can ``close()`` it (flushing the JSONL file) in a
    ``finally`` block; closing the default NULL_RECORDER is a no-op.
    """
    return ParallelSweepExecutor(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        cell_timeout=args.cell_timeout,
        recorder=_make_recorder(args),
        progress=_make_progress(args),
        topology_dir=args.topology_dir,
    )


def _cmd_sweep(args) -> int:
    knowledge, bandwidth, engine = algorithm_model(
        get_algorithm(args.algorithm), args.backend
    )
    sizes = args.sizes
    if args.max_n is not None:
        sizes = [n for n in (16 << i for i in range(30)) if n <= args.max_n]
        if not sizes:
            sizes = [args.max_n]
    executor = _make_executor(args)
    try:
        rows, outcomes = parallel_sweep(
            args.algorithm,
            {
                "kind": "er_single_wake",
                "avg_degree": args.degree,
                "seed": args.seed,
            },
            sizes=sizes,
            executor=executor,
            engine=engine,
            knowledge=knowledge,
            bandwidth=bandwidth,
            trials=args.trials,
            seed=args.seed,
            flight_recorder=args.flight_recorder,
            backend=args.backend,
        )
    finally:
        executor.recorder.close()
    print(render_table([r.as_dict() for r in rows]))
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(
            f"cell failed: n={o.spec.n} trial={o.spec.trial} "
            f"[{o.status}] {o.error}"
        )
        for line in o.trace_tail or []:
            print(f"    {line}")
    if len(rows) >= 2:
        fit = fit_power_law([r.n for r in rows], [r.messages for r in rows])
        print(
            f"\nmessages ~ {fit.constant:.2f} * n^{fit.exponent:.3f} "
            f"(r^2 = {fit.r_squared:.3f})"
        )
    s = executor.stats
    print(
        f"cells: {s['cells']:.0f} "
        f"(executed {s['executed']:.0f}, cached {s['cached']:.0f}, "
        f"failed {s['failed']:.0f}) in {s['wall_time']:.2f}s "
        f"[workers={executor.workers}]"
    )
    registry = get_registry()
    if registry.enabled:  # installed by --metrics / --telemetry
        from repro.analysis.telemetry import topology_fetches

        t = topology_fetches(registry.snapshot())
        print(
            f"topologies: built {t['build']}, reused {t['hit_mem']} "
            f"in-process + {t['hit_disk']} from store"
        )
    if args.out:
        merge_records(
            args.out,
            [o.record() for o in outcomes],
            experiment=f"sweep/{args.algorithm}",
            params={
                "degree": args.degree,
                "trials": args.trials,
                "seed": args.seed,
            },
        )
        print(f"merged {len(outcomes)} cell records into {args.out}")
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    from repro.obs.metrics import get_registry
    from repro.serve import ServeConfig, SweepServer

    config = ServeConfig(
        socket_path=args.socket,
        max_queue=args.max_queue,
        max_cells=args.max_cells,
        job_timeout=args.job_timeout if args.job_timeout > 0 else None,
        cell_timeout=args.cell_timeout if args.cell_timeout > 0 else None,
        workers=args.workers or 0,
        cache_dir=args.cache_dir,
        topology_dir=args.topology_dir,
        use_cache=not args.no_cache,
    )
    # Under --metrics the wrapper in main() installed a live global
    # registry whose snapshot lands on disk at exit; route the serve
    # instruments into it.  Without it the daemon keeps a private live
    # registry, readable over the socket via `repro jobs --stats`.
    registry = get_registry()
    server = SweepServer(
        config,
        recorder=_make_recorder(args),
        metrics=registry if registry.enabled else None,
    )
    try:
        server.start()
    except OSError as exc:
        print(f"error: cannot bind {config.socket_path}: {exc}",
              file=sys.stderr)
        return 1
    print(
        f"serving on {config.socket_path} "
        f"(queue<={config.max_queue}, cells/job<={config.max_cells}, "
        f"job budget {_fmt_budget(config.job_timeout)}, "
        f"cell cap {_fmt_budget(config.cell_timeout)})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    finally:
        server.log.close()
    print("daemon stopped", file=sys.stderr)
    return 0


def _fmt_budget(budget) -> str:
    return "unbounded" if budget is None else f"{budget:g}s"


def _load_job_spec(arg: str):
    """Job spec from a JSON literal, ``@file``, or ``-`` (stdin)."""
    if arg == "-":
        text = sys.stdin.read()
    elif arg.startswith("@"):
        text = Path(arg[1:]).read_text(encoding="utf-8")
    else:
        text = arg
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("job spec must be a JSON object")
    return spec


def _cmd_submit(args) -> int:
    from repro.serve import ServeClient, ServeError, is_event

    try:
        spec = _load_job_spec(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error: bad job spec: {exc}", file=sys.stderr)
        return 1
    client = ServeClient(args.socket, timeout=args.timeout)
    try:
        if args.no_watch:
            ack = client.submit(spec)
            print(json.dumps(ack, sort_keys=True))
            return 0 if ack.get("ok") else 1
        final = None
        for obj in client.submit_watch(spec):
            if is_event(obj):
                print(json.dumps(obj, sort_keys=True))
            else:
                final = obj
        print(json.dumps(final, sort_keys=True))
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if final is None or not final.get("ok", True):
        return 1
    job = final.get("job", {})
    return 0 if job.get("state", "done") == "done" else 1


def _cmd_jobs(args) -> int:
    from repro.serve import ServeClient, ServeError

    client = ServeClient(args.socket, timeout=args.timeout)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.job:
            print(json.dumps(
                client.status(args.job), indent=2, sort_keys=True
            ))
            return 0
        jobs = client.jobs()
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    rows = [
        {
            "id": j.get("id", "?"),
            "kind": j.get("kind", "?"),
            "algorithm": j.get("algorithm", "?"),
            "state": j.get("state", "?"),
            "clients": j.get("clients", 0),
            "duration": round(float(j.get("duration") or 0.0), 3),
        }
        for j in jobs
    ]
    print(render_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Adversarial wake-up reproduction (Robinson & Tan, PODC 2025)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered algorithms")

    p_run = sub.add_parser("run", help="run one algorithm")
    p_run.add_argument("algorithm", choices=algorithm_names())
    p_run.add_argument("--n", type=int, default=200)
    p_run.add_argument("--degree", type=float, default=6.0)
    p_run.add_argument("--awake", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--wave", action="store_true", help="print the wake-up wave"
    )
    p_run.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream structured JSONL run events to this file",
    )

    p_t1 = sub.add_parser("table1", help="measured Table-1 reproduction")
    p_t1.add_argument("--n", type=int, default=200)
    p_t1.add_argument("--seed", type=int, default=0)
    _add_executor_flags(p_t1)

    p_lb = sub.add_parser(
        "lowerbounds", help="Theorem 1/2 lower-bound harness tables"
    )
    p_lb.add_argument("--n", type=int, default=48)
    p_lb.add_argument("--betas", type=int, default=5)
    p_lb.add_argument("--seed", type=int, default=0)

    p_sweep = sub.add_parser("sweep", help="size sweep + exponent fit")
    p_sweep.add_argument(
        "algorithm",
        nargs="?",
        default="flooding",
        choices=algorithm_names(),
    )
    p_sweep.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 128, 256]
    )
    p_sweep.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="replace --sizes by doubling sizes 16, 32, ... up to N",
    )
    p_sweep.add_argument("--degree", type=float, default=6.0)
    p_sweep.add_argument("--trials", type=int, default=2)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument(
        "--backend",
        choices=("auto", "bulk"),
        default="auto",
        help="bulk: vectorized frontier lane for synchronous runs "
        "(needs repro[bulk]; algorithms without a frontier kernel "
        "fall back to the sync engine)",
    )
    p_sweep.add_argument(
        "--out",
        default=None,
        help="merge per-cell records into this JSON artifact",
    )
    p_sweep.add_argument(
        "--flight-recorder",
        type=int,
        default=None,
        metavar="N",
        help=(
            "keep the last N trace events per cell and dump them into "
            "failure records (bounded memory)"
        ),
    )
    _add_executor_flags(p_sweep)

    p_rep = sub.add_parser(
        "report", help="aggregate a telemetry JSONL file into profiles"
    )
    p_rep.add_argument(
        "--telemetry",
        required=True,
        metavar="PATH",
        help="telemetry JSONL file produced by --telemetry",
    )
    p_rep.add_argument(
        "--outlier-factor",
        type=float,
        default=None,
        help="flag cells slower than FACTOR x their size-class median",
    )

    p_check = sub.add_parser(
        "check",
        help="bounded model checking over the adversarial schedule space",
    )
    p_check.add_argument("algorithm", choices=algorithm_names())
    p_check.add_argument("--n", type=int, default=4)
    p_check.add_argument(
        "--graph", choices=CHECK_GRAPHS, default="cycle"
    )
    p_check.add_argument("--awake", type=int, default=1)
    p_check.add_argument(
        "--stagger",
        type=float,
        default=0.0,
        help="wake vertex i at i*STAGGER instead of all at once",
    )
    p_check.add_argument("--degree", type=float, default=3.0)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--max-schedules", type=int, default=20_000)
    p_check.add_argument("--max-states", type=int, default=500_000)
    p_check.add_argument("--max-depth", type=int, default=256)
    p_check.add_argument(
        "--laziness",
        type=float,
        default=0.0,
        help="0.0 = eager delivery times, 1.0 = maximal legal delays",
    )
    p_check.add_argument(
        "--no-por",
        action="store_true",
        help="disable the sleep-set partial-order reduction",
    )
    p_check.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable state-fingerprint deduplication",
    )
    p_check.add_argument(
        "--mutation",
        choices=("skip-fifo",),
        default=None,
        help="plant a known engine bug (mutation smoke testing)",
    )
    _add_replay_dir_flag(p_check)
    _add_telemetry_flags(p_check)

    p_wc = sub.add_parser(
        "worstcase",
        help="search for the worst adversarial schedule at larger n",
    )
    p_wc.add_argument(
        "algorithm", nargs="?", default="flooding",
        choices=algorithm_names(),
    )
    p_wc.add_argument(
        "--workload",
        choices=CHECK_WORKLOADS,
        default="class-g",
        help="er: random graph (uses --graph flags); class-g: the "
        "Theorem-1 lower-bound topology",
    )
    p_wc.add_argument("--n", type=int, default=8)
    p_wc.add_argument(
        "--graph", choices=CHECK_GRAPHS, default="er"
    )
    p_wc.add_argument("--awake", type=int, default=1)
    p_wc.add_argument("--stagger", type=float, default=0.0)
    p_wc.add_argument("--degree", type=float, default=3.0)
    p_wc.add_argument(
        "--objective",
        choices=("time", "messages", "bits"),
        default="time",
    )
    p_wc.add_argument("--beam", type=int, default=4)
    p_wc.add_argument("--horizon", type=int, default=12)
    p_wc.add_argument("--branch-cap", type=int, default=3)
    p_wc.add_argument(
        "--trials",
        type=int,
        default=32,
        help="random-delay baseline sample count",
    )
    p_wc.add_argument(
        "--laziness",
        type=float,
        default=None,
        help="override delivery-time laziness (default: 1.0 for the "
        "time objective, else 0.0)",
    )
    p_wc.add_argument("--seed", type=int, default=0)
    p_wc.add_argument(
        "--out",
        default=None,
        help="replay artifact path (default: under --replay-dir)",
    )
    _add_replay_dir_flag(p_wc)
    _add_telemetry_flags(p_wc)

    p_atlas = sub.add_parser(
        "atlas",
        help="stochastic adversary search + the committed frontier "
        "atlas (ATLAS.json)",
        description=(
            "Maintain the adversarial frontier atlas: run the "
            "stochastic optimizers (repro.opt) against one workload "
            "across sizes and merge the incumbents best-wins into "
            "ATLAS.json; show the committed frontier; check the file's "
            "structure, salts, and plain-engine replayability."
        ),
    )
    atlas_sub = p_atlas.add_subparsers(
        dest="atlas_command", required=True
    )
    p_atlas_run = atlas_sub.add_parser(
        "run", help="search one workload and merge incumbents"
    )
    p_atlas_run.add_argument(
        "algorithm", nargs="?", default="flooding",
        choices=algorithm_names(),
    )
    p_atlas_run.add_argument(
        "--graph", choices=CHECK_GRAPHS, default="star",
        help="check-world graph family (default: %(default)s)",
    )
    p_atlas_run.add_argument("--awake", type=int, default=1)
    p_atlas_run.add_argument("--stagger", type=float, default=0.0)
    p_atlas_run.add_argument("--degree", type=float, default=3.0)
    p_atlas_run.add_argument(
        "--sizes", type=int, nargs="+", default=[64],
        help="network sizes to improve (default: %(default)s)",
    )
    p_atlas_run.add_argument(
        "--objective",
        choices=("time", "messages", "bits"),
        default="time",
    )
    p_atlas_run.add_argument(
        "--optimizers", default="cem,sa",
        help="comma list of optimizers: cem, sa, pop "
        "(default: %(default)s)",
    )
    p_atlas_run.add_argument("--generations", type=int, default=8)
    p_atlas_run.add_argument("--population", type=int, default=16)
    p_atlas_run.add_argument(
        "--baseline-trials", type=int, default=32,
        help="random-delay baseline sample count (default: 32)",
    )
    p_atlas_run.add_argument(
        "--genome",
        choices=("delay-vector", "choice-prefix"),
        default="delay-vector",
        help="genome parameterization: delay-vector scales to "
        "hundreds of vertices, choice-prefix drives the controlled "
        "scheduler exactly at small n (default: %(default)s)",
    )
    p_atlas_run.add_argument(
        "--vector-length", type=int, default=None,
        help="delay-vector genome length (default: sized to n)",
    )
    p_atlas_run.add_argument(
        "--horizon", type=int, default=16,
        help="choice-prefix genome length (default: %(default)s)",
    )
    p_atlas_run.add_argument("--branch-cap", type=int, default=4)
    p_atlas_run.add_argument(
        "--laziness", type=float, default=0.0,
        help="choice-prefix delivery-time laziness (default: 0.0)",
    )
    p_atlas_run.add_argument("--seed", type=int, default=0)
    p_atlas_run.add_argument(
        "--atlas", default="ATLAS.json",
        help="atlas file to merge into (default: %(default)s)",
    )
    p_atlas_run.add_argument(
        "--require-beat-baseline",
        action="store_true",
        help="exit 1 unless every incumbent strictly beats its "
        "random-delay baseline (CI gate)",
    )
    _add_executor_flags(p_atlas_run)
    p_atlas_show = atlas_sub.add_parser(
        "show", help="print the committed frontier"
    )
    p_atlas_show.add_argument(
        "--atlas", default="ATLAS.json",
        help="atlas file (default: %(default)s)",
    )
    p_atlas_check = atlas_sub.add_parser(
        "check", help="validate structure, salts, and replayability"
    )
    p_atlas_check.add_argument(
        "--atlas", default="ATLAS.json",
        help="atlas file (default: %(default)s)",
    )
    p_atlas_check.add_argument(
        "--replay",
        action="store_true",
        help="re-execute every live entry through the plain engine "
        "and require bit-identical scalars",
    )
    p_atlas_check.add_argument(
        "--strict",
        action="store_true",
        help="treat stale entries (salt vector superseded by code "
        "edits) as failures instead of warnings",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect / purge the on-disk runtime caches"
    )
    p_cache.add_argument(
        "action",
        choices=("info", "purge"),
        help="info: show entry counts and sizes; purge: delete entries",
    )
    p_cache.add_argument(
        "what",
        nargs="?",
        choices=("cells", "topologies", "replays", "all"),
        default="all",
        help="which cache to purge (default: all; ignored by info)",
    )
    p_cache.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="cell cache location (default: results/.cache)",
    )
    p_cache.add_argument(
        "--topology-dir",
        default=str(DEFAULT_TOPOLOGY_DIR),
        help="topology store location (default: results/.topologies)",
    )
    p_cache.add_argument(
        "--stale",
        action="store_true",
        help=(
            "purge only entries whose per-subsystem salt vector no "
            "longer matches the current code (superseded or legacy "
            "envelopes); live entries survive"
        ),
    )
    _add_replay_dir_flag(p_cache)

    p_metrics = sub.add_parser(
        "metrics", help="render a metrics snapshot file"
    )
    p_metrics.add_argument(
        "action", choices=("dump",),
        help="dump: print the snapshot in the chosen format",
    )
    p_metrics.add_argument(
        "snapshot",
        nargs="?",
        default=DEFAULT_METRICS_PATH,
        help="snapshot file written by --metrics "
        "(default: %(default)s)",
    )
    p_metrics.add_argument(
        "--format",
        choices=("json", "prometheus"),
        default="json",
        help="output format (default: json)",
    )

    p_top = sub.add_parser(
        "top", help="metrics dashboard from a snapshot file"
    )
    p_top.add_argument(
        "snapshot",
        nargs="?",
        default=DEFAULT_METRICS_PATH,
        help="snapshot file written by --metrics "
        "(default: %(default)s)",
    )
    p_top.add_argument(
        "--watch",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="re-read the snapshot every SECONDS and redraw on change "
        "(0 = render once and exit)",
    )

    p_perf = sub.add_parser(
        "perf", help="append-only perf ledger over BENCH_*.json"
    )
    p_perf.add_argument(
        "--ledger",
        default="PERF_LEDGER.jsonl",
        help="ledger path (default: %(default)s)",
    )
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_perf_rec = perf_sub.add_parser(
        "record", help="append bench runs to the ledger"
    )
    p_perf_rec.add_argument(
        "benches", nargs="*",
        help="bench JSON files (default: every committed BENCH_*.json)",
    )
    perf_sub.add_parser("show", help="print the per-profile history")
    p_perf_chk = perf_sub.add_parser(
        "check", help="unified regression gate against the ledger"
    )
    p_perf_chk.add_argument(
        "--candidate", action="append", default=[],
        metavar="PROFILE=PATH",
        help="fresh bench output to gate (repeatable)",
    )
    p_perf_chk.add_argument(
        "--max-regression", type=float, default=0.30,
        help="tolerated fractional metric drop (default 0.30)",
    )

    from repro.serve.protocol import DEFAULT_SOCKET

    p_serve = sub.add_parser(
        "serve",
        help="long-lived job daemon over a unix socket",
        description=(
            "Run the sweep/check/worstcase job daemon. Clients submit "
            "JSON job specs over the unix socket (repro submit) and "
            "stream schema-versioned repro.obs events back. Admission "
            "is bounded (queue + per-job cell/wall budgets) and "
            "duplicate submissions attach to the in-flight or cached "
            "job instead of re-running it."
        ),
    )
    p_serve.add_argument(
        "--socket", default=DEFAULT_SOCKET,
        help="unix socket path (default: %(default)s)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64,
        help="admission queue bound; a full queue rejects "
        "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--max-cells", type=int, default=512,
        help="largest per-job cell budget (default: %(default)s)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=120.0,
        help="per-job wall budget in seconds, 0 = unbounded "
        "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--cell-timeout", type=float, default=30.0,
        help="per-cell budget cap in seconds, 0 = unbounded "
        "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="executor worker processes (default: cells run in the "
        "job process, or in one worker under a cell cap)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="skip the on-disk cell result cache",
    )
    p_serve.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help="cell cache location (default: %(default)s)",
    )
    p_serve.add_argument(
        "--topology-dir", default=str(DEFAULT_TOPOLOGY_DIR),
        help="compiled-topology store (default: %(default)s)",
    )
    _add_telemetry_flags(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a job to the serve daemon"
    )
    p_submit.add_argument(
        "spec",
        help="job spec: a JSON object, @FILE, or - for stdin "
        '(e.g. \'{"kind": "sweep", "algorithm": "flooding"}\')',
    )
    p_submit.add_argument(
        "--socket", default=DEFAULT_SOCKET,
        help="daemon socket path (default: %(default)s)",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="client-side socket timeout in seconds "
        "(default: %(default)s)",
    )
    p_submit.add_argument(
        "--no-watch", action="store_true",
        help="submit and print the ack instead of streaming events "
        "until the job finishes",
    )

    p_jobs = sub.add_parser(
        "jobs", help="list the serve daemon's jobs"
    )
    p_jobs.add_argument(
        "job", nargs="?", default=None,
        help="job id: print that job's full status instead of the list",
    )
    p_jobs.add_argument(
        "--socket", default=DEFAULT_SOCKET,
        help="daemon socket path (default: %(default)s)",
    )
    p_jobs.add_argument(
        "--timeout", type=float, default=30.0,
        help="client-side socket timeout (default: %(default)s)",
    )
    p_jobs.add_argument(
        "--stats", action="store_true",
        help="print daemon stats (queue depth, uptime, metrics) "
        "instead of the job list",
    )

    return parser


def _add_replay_dir_flag(parser: argparse.ArgumentParser) -> None:
    from repro.check.controller import DEFAULT_REPLAY_DIR

    parser.add_argument(
        "--replay-dir",
        default=str(DEFAULT_REPLAY_DIR),
        help="schedule replay artifact dir (default: results/.replays)",
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """The ParallelSweepExecutor knobs, shared by cell-based commands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: cpu count; 0/1 = in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (force recompute)",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(DEFAULT_CACHE_DIR),
        help="cell cache location (default: results/.cache)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds; a budgeted "
        "cell runs in a worker process, killed when it overruns",
    )
    parser.add_argument(
        "--topology-dir",
        default=str(DEFAULT_TOPOLOGY_DIR),
        help=(
            "compiled-topology artifact store location "
            "(default: results/.topologies; unused under --no-cache)"
        ),
    )
    _add_telemetry_flags(parser)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Telemetry/progress knobs (also used by the single-run command)."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream structured JSONL run events to this file",
    )
    parser.add_argument(
        "--progress",
        choices=("auto", "on", "off", "top"),
        default="auto",
        help="live progress line on stderr (auto: only on a TTY; "
        "top: the multi-line metrics dashboard, pair with --metrics)",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const=DEFAULT_METRICS_PATH,
        default=None,
        metavar="PATH",
        help="enable the metrics registry and write its JSON snapshot "
        f"on exit (default PATH: {DEFAULT_METRICS_PATH})",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "table1": _cmd_table1,
        "sweep": _cmd_sweep,
        "lowerbounds": _cmd_lowerbounds,
        "report": _cmd_report,
        "check": _cmd_check,
        "worstcase": _cmd_worstcase,
        "atlas": _cmd_atlas,
        "cache": _cmd_cache,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "perf": _cmd_perf,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
    }
    metrics_path = getattr(args, "metrics", None)
    if not metrics_path and not getattr(args, "telemetry", None):
        return handlers[args.command](args)

    # --metrics and --telemetry: install a live registry for the
    # duration of the command (telemetry streams read their phase
    # profiles from its snapshot).  --metrics then persists the
    # snapshot, even when the command fails — the partial snapshot is
    # what you debug with.
    from repro.obs.metrics import MetricsRegistry, set_global_registry

    registry = MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        return handlers[args.command](args)
    finally:
        set_global_registry(previous)
        if metrics_path:
            out = Path(metrics_path)
            text = json.dumps(registry.snapshot(), indent=2, sort_keys=True)
            write_atomic(out, (text + "\n").encode("utf-8"))
            print(f"metrics snapshot: {out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
