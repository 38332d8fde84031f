"""Perf ledger: one append-only trajectory for every bench profile.

Each committed ``BENCH_*.json`` file is a point-in-time baseline of
one bench profile.  This module is the single front end over them,
exposed as ``python -m repro perf {record,show,check}``:

* :data:`PROFILES` — the single source of truth for each bench
  profile's baseline file, case key, guarded metric, and required
  fields;
* ``PERF_LEDGER.jsonl`` — an append-only history: each
  :func:`record` call folds one bench payload into one ledger line
  (profile, source metadata, per-case metric values), so the
  repository carries the whole perf trajectory, not just the latest
  point;
* :func:`check` — the unified regression gate: each candidate bench
  run is compared against the **latest ledger entry of its profile**
  (shared cases only; a case below ``1 - max_regression`` of its
  ledger value fails; faster never fails).

Bench envelopes carry ``schema`` (2), ``created``, ``python``,
``profile`` and ``cases``; the declared profile names the
:data:`PROFILES` entry that validates the cases.  Benches build the
envelope with :func:`bench_envelope` and validate and write it with
:func:`emit_bench`; :func:`load_bench` reads it back through the same
:func:`check_bench`.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.artifacts import write_atomic

LEDGER_SCHEMA = 1

DEFAULT_LEDGER = Path("PERF_LEDGER.jsonl")

#: Bench profiles: each one's required case fields, key fields and
#: guarded metric (:func:`check_bench` enforces them on every bench
#: run and every ledger read); ``baseline`` names the committed
#: point-in-time file each bench still writes.
PROFILES: Dict[str, Dict[str, Any]] = {
    "engine": {
        "baseline": "BENCH_engine.json",
        "bench": "benchmarks/bench_engine_hotpath.py",
        "key_fields": ("algorithm", "engine", "n"),
        "metric": "events_per_sec",
        "unit": "events/s",
        "required_fields": (
            "algorithm",
            "engine",
            "n",
            "events",
            "messages",
            "wall_s",
            "events_per_sec",
        ),
    },
    "bulk": {
        "baseline": "BENCH_bulk.json",
        "bench": "benchmarks/bench_bulk_engine.py",
        "key_fields": ("algorithm", "engine", "n"),
        "metric": "events_per_sec",
        "unit": "events/s",
        "required_fields": (
            "algorithm",
            "engine",
            "n",
            "events",
            "messages",
            "wall_s",
            "events_per_sec",
        ),
    },
    "check": {
        "baseline": "BENCH_check.json",
        "bench": "benchmarks/bench_schedule_search.py",
        "key_fields": ("mode", "algorithm", "n"),
        "metric": "schedules_per_sec",
        "unit": "schedules/s",
        "required_fields": (
            "mode",
            "algorithm",
            "n",
            "schedules",
            "wall_s",
            "schedules_per_sec",
        ),
    },
    "topology": {
        "baseline": "BENCH_topology.json",
        "bench": "benchmarks/bench_topology_compile.py",
        "key_fields": ("workload", "n"),
        "metric": "warm_speedup",
        "unit": "x warm speedup",
        "required_fields": (
            "workload",
            "n",
            "trials",
            "legacy_s",
            "cold_s",
            "warm_s",
            "warm_speedup",
        ),
    },
    "opt": {
        "baseline": "BENCH_opt.json",
        "bench": "benchmarks/bench_adversary_opt.py",
        "key_fields": ("optimizer", "algorithm", "n"),
        "metric": "evals_per_sec",
        "unit": "evals/s",
        "required_fields": (
            "optimizer",
            "algorithm",
            "n",
            "evaluations",
            "wall_s",
            "evals_per_sec",
        ),
    },
    "executor": {
        "baseline": "BENCH_executor.json",
        "bench": "benchmarks/bench_executor_scaling.py",
        "key_fields": ("mix", "workers"),
        "metric": "pool_speedup",
        "unit": "x serial wall / pool wall",
        "required_fields": (
            "mix",
            "workers",
            "cells",
            "serial_s",
            "pool_s",
            "pool_speedup",
        ),
    },
}

#: The bench envelope version this module understands.
BENCH_SCHEMA = 2


class PerfError(Exception):
    """Raised for unreadable/invalid bench or ledger files."""


def case_key(case: Mapping[str, Any], profile: str) -> str:
    """The ledger's flat case identifier: key fields joined with '/'
    (e.g. ``flooding/async/512``)."""
    fields = PROFILES[profile]["key_fields"]
    return "/".join(str(case[f]) for f in fields)


def bench_envelope(profile: str, **fields: Any) -> Dict[str, Any]:
    """A bench payload: the shared header, then the bench's fields.

    The header every ``BENCH_*.json`` carries is ``schema``,
    ``created``, ``python`` and ``profile``; ``fields`` follow in the
    order given (``cases`` among them)."""
    return {
        "schema": BENCH_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "profile": profile,
        **fields,
    }


def check_bench(
    payload: Any, where: str = "bench payload", profile: Optional[str] = None
) -> str:
    """Validate a bench envelope and return the profile it declares.

    The cases must satisfy that :data:`PROFILES` entry, and
    ``profile``, when given, must match it.  Raises
    :class:`PerfError` naming ``where``."""
    if not isinstance(payload, dict):
        raise PerfError(f"{where}: not a JSON object")
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise PerfError(
            f"{where}: unsupported bench schema {schema!r} "
            f"(known: {BENCH_SCHEMA})"
        )
    declared = payload.get("profile")
    if declared not in PROFILES:
        raise PerfError(
            f"{where}: schema 2 requires a known 'profile' field "
            f"(got {declared!r})"
        )
    if profile is not None and declared != profile:
        raise PerfError(
            f"{where}: declares profile {declared!r}, caller said "
            f"{profile!r}"
        )
    missing = [k for k in ("created", "python") if k not in payload]
    if missing:
        raise PerfError(f"{where}: missing top-level fields {missing}")
    prof = PROFILES[declared]
    cases = payload.get("cases")
    if not isinstance(cases, list) or not cases:
        raise PerfError(f"{where}: no 'cases' list")
    for i, case in enumerate(cases):
        missing = [f for f in prof["required_fields"] if f not in case]
        if missing:
            raise PerfError(
                f"{where}: case {i} missing fields {missing} "
                f"(profile {declared})"
            )
        if case[prof["metric"]] <= 0:
            raise PerfError(
                f"{where}: case {i} has non-positive {prof['metric']}"
            )
    return declared


def emit_bench(payload: Dict[str, Any], out: Optional[Path] = None) -> int:
    """Validate a bench payload and write it; returns the exit status.

    A schema error is printed and returns 1.  Otherwise ``out``, when
    given, receives the payload as indented JSON through
    :func:`repro.artifacts.write_atomic`."""
    try:
        check_bench(payload)
    except PerfError as exc:
        print(f"BENCH SCHEMA ERROR: {exc}", file=sys.stderr)
        return 1
    if out is not None:
        text = json.dumps(payload, indent=2) + "\n"
        write_atomic(out, text.encode("utf-8"))
        print(f"wrote {out}")
    return 0


def load_bench(
    path: Path, profile: Optional[str] = None
) -> Tuple[str, Dict[str, Any]]:
    """Read and validate one bench payload; returns
    ``(profile, payload)``.  ``profile``, when given, must match the
    one the envelope declares."""
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise PerfError(f"{path}: missing") from None
    except json.JSONDecodeError as exc:
        raise PerfError(f"{path}: not valid JSON ({exc})") from None
    return check_bench(payload, str(path), profile), payload


def bench_to_entry(
    profile: str, payload: Mapping[str, Any], source: str = ""
) -> Dict[str, Any]:
    """One ledger line (as a dict) for a validated bench payload."""
    prof = PROFILES[profile]
    metric = prof["metric"]
    cases = {
        case_key(c, profile): float(c[metric]) for c in payload["cases"]
    }
    return {
        "schema": LEDGER_SCHEMA,
        "profile": profile,
        "metric": metric,
        "unit": prof["unit"],
        "created": payload.get("created", ""),
        "python": payload.get("python", ""),
        "source": source,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cases": cases,
    }


# ----------------------------------------------------------------------
# Ledger I/O
# ----------------------------------------------------------------------
def read_ledger(path: Path) -> List[Dict[str, Any]]:
    """All ledger entries, in file (= chronological) order.  A missing
    file is an empty ledger; a malformed line is an error."""
    path = Path(path)
    if not path.exists():
        return []
    entries: List[Dict[str, Any]] = []
    for i, line in enumerate(path.read_text().splitlines()):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PerfError(f"{path}:{i + 1}: bad ledger line ({exc})")
        if not isinstance(entry, dict) or "profile" not in entry:
            raise PerfError(f"{path}:{i + 1}: not a ledger entry")
        entries.append(entry)
    return entries


def append_entry(path: Path, entry: Mapping[str, Any]) -> None:
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def latest_per_profile(
    entries: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The newest entry of each profile (append order wins)."""
    latest: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        latest[entry["profile"]] = entry
    return latest


# ----------------------------------------------------------------------
# Operations (the `repro perf` subcommands)
# ----------------------------------------------------------------------
def record(
    bench_path: Path, ledger_path: Path = DEFAULT_LEDGER
) -> Dict[str, Any]:
    """Ingest one bench file into the ledger; returns the new entry."""
    profile, payload = load_bench(bench_path)
    entry = bench_to_entry(profile, payload, source=str(bench_path))
    append_entry(ledger_path, entry)
    return entry


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def show(
    ledger_path: Path = DEFAULT_LEDGER, stream=None
) -> Dict[str, List[Dict[str, Any]]]:
    """Print the per-profile history (one line per entry, with the
    geometric-mean headline metric) and return it grouped."""
    out = stream if stream is not None else sys.stdout
    entries = read_ledger(ledger_path)
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for entry in entries:
        grouped.setdefault(entry["profile"], []).append(entry)
    if not entries:
        print(f"{ledger_path}: empty ledger", file=out)
        return grouped
    for profile in sorted(grouped):
        history = grouped[profile]
        unit = history[-1].get("unit", "")
        print(f"[{profile}] {len(history)} entr"
              f"{'y' if len(history) == 1 else 'ies'}", file=out)
        prev_gm = None
        for entry in history:
            gm = geomean(entry.get("cases", {}).values())
            delta = ""
            if prev_gm:
                delta = f"  ({gm / prev_gm - 1.0:+.1%})"
            prev_gm = gm
            print(
                f"  {entry.get('created', '?'):20s} "
                f"{len(entry.get('cases', {})):3d} cases  "
                f"geomean {gm:12.1f} {unit}{delta}",
                file=out,
            )
    return grouped


def check(
    candidates: Mapping[str, Path],
    ledger_path: Path = DEFAULT_LEDGER,
    max_regression: float = 0.30,
    stream=None,
) -> List[str]:
    """The unified regression gate.

    ``candidates`` maps profile name -> fresh bench output path.  Each
    candidate is validated and compared case-by-case against the
    latest ledger entry for its profile.  Returns the list of errors
    (empty = gate passes).  Candidate cases absent from the ledger (or
    vice versa) are reported but not fatal.  A profile with *no*
    ledger history is **seeded** from the candidate and reported as
    "seeded, no baseline" — not failed: the first bench of a brand-new
    profile (e.g. a future ``serve`` profile) must be able to pass CI,
    and the appended entry becomes the baseline the next run gates
    against.
    """
    out = stream if stream is not None else sys.stdout
    errors: List[str] = []
    try:
        latest = latest_per_profile(read_ledger(ledger_path))
    except PerfError as exc:
        return [str(exc)]
    for profile in sorted(candidates):
        path = candidates[profile]
        if profile not in PROFILES:
            errors.append(f"unknown profile {profile!r}")
            continue
        try:
            _, payload = load_bench(path, profile)
        except PerfError as exc:
            errors.append(str(exc))
            continue
        entry = latest.get(profile)
        if entry is None:
            seeded = bench_to_entry(profile, payload, source=str(path))
            append_entry(Path(ledger_path), seeded)
            print(
                f"[{profile}] seeded, no baseline: recorded "
                f"{len(seeded.get('cases', {}))} case(s) into "
                f"{ledger_path}; the next check gates against them",
                file=out,
            )
            continue
        unit = PROFILES[profile]["unit"]
        base_cases: Dict[str, float] = entry.get("cases", {})
        cand_cases = {
            case_key(c, profile): float(c[PROFILES[profile]["metric"]])
            for c in payload["cases"]
        }
        shared = sorted(set(base_cases) & set(cand_cases))
        if base_cases and cand_cases and not shared:
            errors.append(f"{profile}: no cases in common with ledger")
        for key in sorted(set(base_cases) ^ set(cand_cases)):
            which = "ledger" if key in base_cases else "candidate"
            print(f"note: [{profile}] case {key} only in {which}",
                  file=out)
        for key in shared:
            base = base_cases[key]
            cand = cand_cases[key]
            ratio = cand / base
            status = "ok"
            if ratio < 1.0 - max_regression:
                status = "REGRESSION"
                errors.append(
                    f"[{profile}] case {key}: {cand:.0f} {unit} is "
                    f"{(1.0 - ratio) * 100:.0f}% below ledger "
                    f"{base:.0f}"
                )
            print(
                f"[{profile}] {key}: ledger {base:10.0f}  "
                f"candidate {cand:10.0f}  ({ratio:.2f}x)  {status}",
                file=out,
            )
    return errors
