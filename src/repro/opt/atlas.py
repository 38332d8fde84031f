"""The adversarial frontier atlas: committed, content-addressed,
monotone.

``ATLAS.json`` records, per ``(algorithm, workload, objective, n)``,
the worst (highest-objective) adversarial schedule any optimizer run
has ever found: the incumbent score, the genome that produced it, the
random-baseline comparison point, the salt vector the score was
computed under, and everything needed to replay the incumbent through
the *plain* engine bit-identically — the full evaluation
:class:`~repro.experiments.parallel.CellSpec` plus (for controlled
genomes) the recorded per-seq delay map.

Merging is **monotone best-wins**: a re-run can only raise a score,
never lower one, so the committed file is a high-water mark the same
way ``PERF_LEDGER.jsonl`` is for throughput.  Staleness is decided by
the entry's salt vector (:func:`repro.versioning.stale_salts`) exactly
like cell-cache envelopes: an engine or algorithm edit marks the
affected entries stale without invalidating the rest.  The committed
entry is the replay data; no other copy is written.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.artifacts import write_atomic
from repro.check.controller import replay_mismatch
from repro.errors import ReproError
from repro.experiments.parallel import CellSpec, run_cell
from repro.obs.metrics import get_registry
from repro.opt.genomes import Genome, genome_from_dict
from repro.versioning import cell_salt_vector, stale_salts

ATLAS_VERSION = 1
ATLAS_KIND = "repro-opt-atlas"
DEFAULT_ATLAS_PATH = Path("ATLAS.json")


def entry_key(
    algorithm: str,
    workload: Mapping[str, Any],
    objective: str,
    n: int,
) -> str:
    """Content-addressed entry identity: a readable prefix plus a
    digest of the full (algorithm, workload, objective, n) identity,
    so distinct workload parameterizations of one kind never collide.
    """
    blob = json.dumps(
        {
            "algorithm": algorithm,
            "workload": dict(workload),
            "objective": objective,
            "n": int(n),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    kind = workload.get("kind", "?")
    return f"{algorithm}/{kind}/{objective}/n{n}/{digest}"


def empty_atlas() -> Dict[str, Any]:
    return {"version": ATLAS_VERSION, "kind": ATLAS_KIND, "entries": {}}


def load_atlas(
    path: Union[str, Path] = DEFAULT_ATLAS_PATH,
) -> Dict[str, Any]:
    """Read an atlas; a missing file is an empty atlas.

    A file that is not UTF-8 JSON, or whose ``entries`` is not an
    object, raises :class:`ReproError` naming it."""
    path = Path(path)
    if not path.exists():
        return empty_atlas()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # also bytes that are not UTF-8
        raise ReproError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("kind") != ATLAS_KIND:
        raise ReproError(f"{path} is not a {ATLAS_KIND} file")
    if data.get("version") != ATLAS_VERSION:
        raise ReproError(
            f"{path}: unsupported atlas version {data.get('version')!r}"
        )
    if not isinstance(data.get("entries", {}), dict):
        raise ReproError(f"{path}: entries is not an object")
    return data


def save_atlas(
    atlas: Dict[str, Any],
    path: Union[str, Path] = DEFAULT_ATLAS_PATH,
) -> Path:
    """Write the atlas (pretty, key-sorted — a stable committed file).

    The writer is :func:`repro.artifacts.write_atomic`."""
    path = Path(path)
    text = json.dumps(atlas, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode("utf-8"))
    return path


def make_entry(
    *,
    spec: CellSpec,
    genome: Genome,
    objective: str,
    score: float,
    baseline: float,
    baseline_trials: int,
    optimizer: str,
    expect: Mapping[str, float],
    delays: Optional[Mapping[int, float]] = None,
) -> Dict[str, Any]:
    """Assemble one atlas entry.

    ``spec`` is the full evaluation cell (genome overrides applied);
    ``expect`` holds the incumbent's exact result scalars
    (``messages``/``bits``/``time``) — the replay contract.  Controlled
    genomes must pass the recorded ``delays`` map; plain delay-vector
    genomes replay from the spec alone.
    """
    if genome.controlled and delays is None:
        raise ReproError(
            "controlled genomes need their recorded delay map"
        )
    entry: Dict[str, Any] = {
        "algorithm": spec.algorithm,
        "workload": dict(spec.workload),
        "objective": objective,
        "n": spec.n,
        "seed": spec.seed,
        "score": float(score),
        "baseline": float(baseline),
        "baseline_trials": int(baseline_trials),
        "optimizer": optimizer,
        "genome": genome.as_dict(),
        "digest": genome.key(),
        "spec": asdict(spec),
        "expect": {
            "messages": float(expect["messages"]),
            "bits": float(expect["bits"]),
            "time": float(expect["time"]),
        },
        "salts": cell_salt_vector(
            spec.algorithm, controlled=genome.controlled
        ),
    }
    if delays is not None:
        entry["delays"] = {
            str(k): float(v) for k, v in sorted(delays.items())
        }
    return entry


def merge_entry(atlas: Dict[str, Any], entry: Dict[str, Any]) -> str:
    """Best-wins merge of one entry; returns the outcome
    (``"new"`` / ``"improved"`` / ``"kept"``).  Kept means the
    incumbent already in the atlas scores at least as high — merging
    is monotone, a re-run can never lower a committed frontier."""
    key = entry_key(
        entry["algorithm"],
        entry["workload"],
        entry["objective"],
        entry["n"],
    )
    entries = atlas.setdefault("entries", {})
    existing = entries.get(key)
    if existing is None:
        outcome = "new"
        entries[key] = entry
    elif float(entry["score"]) > float(existing["score"]):
        outcome = "improved"
        entries[key] = entry
    else:
        outcome = "kept"
    mreg = get_registry()
    if mreg.enabled:
        mreg.counter(
            "repro_opt_atlas_merges_total", outcome=outcome
        ).inc()
    return outcome


def entry_is_stale(entry: Mapping[str, Any]) -> bool:
    """Whether an entry's recorded salts are superseded by the current
    code (replay bit-exactness no longer guaranteed), by
    :func:`repro.versioning.stale_salts`."""
    return bool(stale_salts(entry.get("algorithm"), entry.get("salts")))


# ----------------------------------------------------------------------
# Replay verification
# ----------------------------------------------------------------------
def plain_replay_spec(entry: Mapping[str, Any]) -> CellSpec:
    """The *plain-engine* cell that replays one entry: the evaluation
    spec with the controller stripped — controlled genomes swap in
    their recorded delay map (:class:`~repro.check.controller
    .ReplayDelay` as a spec), delay-vector genomes already are plain.
    """
    spec = CellSpec(**dict(entry["spec"]))
    if spec.controller is None:
        return spec
    delays = entry.get("delays")
    if not delays:
        raise ReproError(
            "entry has a controlled spec but no recorded delays"
        )
    return replace(
        spec,
        controller=None,
        delay={"kind": "replay", "delays": dict(delays)},
    )


def replay_entry(entry: Mapping[str, Any]) -> Tuple[bool, str]:
    """Re-execute one entry through the plain engine and compare
    against its recorded scalars.  Returns ``(ok, detail)``; bit
    identity is :func:`repro.check.controller.replay_mismatch`'s."""
    payload = run_cell(plain_replay_spec(entry))
    if not payload.get("ok"):
        return False, f"replay failed: {payload.get('error')}"
    detail = replay_mismatch(payload["result"], entry["expect"])
    return not detail, detail


def check_atlas(
    atlas: Mapping[str, Any],
) -> Tuple[List[str], List[str]]:
    """Validate an atlas: returns ``(errors, stale_keys)``.

    Errors are structural — wrong kind/version, malformed entries,
    keys that do not match their content, non-monotone scores (an
    entry scoring below its own recorded baseline when it claims to
    beat it), unparseable genomes.  Stale keys are entries whose salt
    vector no longer matches the current code; they are reported
    separately because the committed file remains *valid* history —
    ``repro atlas check --strict`` escalates them to failures.
    """
    errors: List[str] = []
    stale: List[str] = []
    if atlas.get("kind") != ATLAS_KIND:
        errors.append(f"kind is {atlas.get('kind')!r}, not {ATLAS_KIND}")
    if atlas.get("version") != ATLAS_VERSION:
        errors.append(f"unsupported version {atlas.get('version')!r}")
    entries = atlas.get("entries", {})
    if not isinstance(entries, dict):
        return errors + ["entries is not an object"], stale
    required = (
        "algorithm", "workload", "objective", "n", "score", "baseline",
        "optimizer", "genome", "spec", "expect", "salts", "digest",
    )
    for key, entry in sorted(entries.items()):
        missing = [f for f in required if f not in entry]
        if missing:
            errors.append(f"{key}: missing fields {missing}")
            continue
        want = entry_key(
            entry["algorithm"],
            entry["workload"],
            entry["objective"],
            entry["n"],
        )
        if key != want:
            errors.append(f"{key}: key does not match content ({want})")
        try:
            genome = genome_from_dict(entry["genome"])
        except Exception as exc:  # noqa: BLE001 — reported, not raised
            errors.append(f"{key}: bad genome ({exc})")
            continue
        if genome.key() != entry["digest"]:
            errors.append(f"{key}: genome digest mismatch")
        if genome.controlled and not entry.get("delays"):
            errors.append(
                f"{key}: controlled genome without recorded delays"
            )
        try:
            plain_replay_spec(entry)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"{key}: spec does not rebuild ({exc})")
        if entry_is_stale(entry):
            stale.append(key)
    return errors, stale


def improve_atlas(
    atlas: Dict[str, Any],
    *,
    base_spec: CellSpec,
    objective: str = "time",
    executor=None,
    optimizers: Tuple[str, ...] = ("cem", "sa"),
    generations: int = 8,
    population: int = 16,
    space=None,
    baseline_trials: int = 32,
    recorder=None,
) -> Dict[str, Any]:
    """One full atlas improvement pass for one (workload, objective, n).

    Runs the random baseline and every named optimizer through the
    executor, verifies the overall incumbent replays bit-identically
    through the plain engine, and merges the entry monotonically into
    ``atlas`` (in place).  A stale entry already in the atlas under
    the same key is replayed first: if the current code still
    reproduces it, its salts are re-stamped and it competes as before;
    if not, it is dropped.  Returns a summary row (entry key, scores,
    merge outcome, per-optimizer history) for CLI/bench reporting.

    ``space`` defaults to a
    :class:`~repro.opt.genomes.DelayVectorSpace` sized to the spec —
    the scalable parameterization; pass a
    :class:`~repro.opt.genomes.ChoicePrefixSpace` for exact small-n
    search.
    """
    from repro.check.worstcase import random_baseline
    from repro.opt.evaluate import (
        CellEvaluator,
        controlled_log_for,
        optimize,
        score_of,
    )
    from repro.opt.genomes import DelayVectorSpace
    from repro.opt.optimizers import make_optimizer

    if executor is None:
        raise ReproError("improve_atlas needs an executor")
    if space is None:
        space = DelayVectorSpace(length=min(128, max(16, base_spec.n)))

    baseline = random_baseline(
        None,
        objective,
        trials=baseline_trials,
        seed=base_spec.seed,
        executor=executor,
        base_spec=base_spec,
    )

    best_genome = None
    best_score = float("-inf")
    best_name = "?"
    runs: List[Dict[str, Any]] = []
    for i, name in enumerate(optimizers):
        optimizer = make_optimizer(
            name, space, seed=base_spec.seed * 7919 + i
        )
        evaluator = CellEvaluator(executor, base_spec, objective)
        outcome = optimize(
            optimizer,
            evaluator,
            generations=generations,
            population=population,
            recorder=recorder,
        )
        runs.append(
            {
                "optimizer": name,
                "best_score": outcome.best_score,
                "evaluations": outcome.evaluations,
                "dedup_hits": outcome.dedup_hits,
                "history": outcome.history,
            }
        )
        if outcome.best_score > best_score and (
            outcome.best_genome is not None
        ):
            best_score = outcome.best_score
            best_genome = outcome.best_genome
            best_name = name

    if best_genome is None:
        raise ReproError(
            "no optimizer produced a successful evaluation; "
            "every candidate cell failed"
        )

    # Recover the incumbent's exact result scalars (a warm cache hit),
    # and for controlled genomes the recorded delay map.
    spec = replace(base_spec, **best_genome.cell_overrides())
    outcome = executor.run([spec])[0]
    if outcome.result is None:
        raise ReproError(
            f"incumbent re-evaluation failed: {outcome.error}"
        )
    expect = {
        "messages": outcome.result.messages,
        "bits": outcome.result.bits,
        "time": outcome.result.time,
    }
    delays = None
    if best_genome.controlled:
        inline_result, log = controlled_log_for(spec)
        if score_of(objective, inline_result) != best_score:
            raise ReproError(
                "controlled incumbent re-run diverged from its cell "
                f"score ({score_of(objective, inline_result)} != "
                f"{best_score})"
            )
        delays = dict(log.delays)

    entry = make_entry(
        spec=spec,
        genome=best_genome,
        objective=objective,
        score=best_score,
        baseline=baseline,
        baseline_trials=baseline_trials,
        optimizer=best_name,
        expect=expect,
        delays=delays,
    )
    ok, detail = replay_entry(entry)
    if not ok:
        raise ReproError(
            f"incumbent does not replay through the plain engine: "
            f"{detail}"
        )
    key = entry_key(
        entry["algorithm"],
        entry["workload"],
        entry["objective"],
        entry["n"],
    )
    entries = atlas.setdefault("entries", {})
    incumbent = entries.get(key)
    if incumbent is not None and entry_is_stale(incumbent):
        if replay_entry(incumbent)[0]:
            incumbent["salts"] = cell_salt_vector(
                incumbent["algorithm"],
                controlled=genome_from_dict(incumbent["genome"]).controlled,
            )
        else:
            del entries[key]
    merged = merge_entry(atlas, entry)
    return {
        "key": key,
        "n": base_spec.n,
        "objective": objective,
        "score": best_score,
        "baseline": baseline,
        "beat_baseline": best_score > baseline,
        "optimizer": best_name,
        "genome_kind": best_genome.kind,
        "merge": merged,
        "replay_ok": ok,
        "runs": runs,
    }
