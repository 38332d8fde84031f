"""Persistence for experiment results.

Benches print tables; long-lived reproductions also want the raw
numbers on disk so EXPERIMENTS.md can be regenerated and diffs between
runs inspected.  This module serializes sweep rows, Table-1 rows, and
generic record dicts to a stable JSON layout with run metadata.

Artifacts are written by :func:`repro.artifacts.write_atomic`: one
whose bytes would not change is left alone (a warm regeneration
rewrites nothing), and a changed one is renamed into place, so a
killed writer never leaves a torn file.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from repro.artifacts import write_atomic
from repro.errors import ReproError

PathLike = Union[str, Path]

FORMAT_VERSION = 1

_SCALARS = frozenset({str, int, float, bool, type(None)})


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of result objects to JSON-safe values."""
    if type(value) in _SCALARS:  # every record field, so checked first
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, frozenset):
        return sorted(repr(x) for x in value)
    return repr(value)


def save_records(
    path: PathLike,
    records: Sequence[Any],
    experiment: str,
    params: Dict[str, Any] | None = None,
) -> None:
    """Write records (dataclasses or dicts) plus run metadata as JSON.

    The text is ``json.dumps(payload, indent=2, sort_keys=True)``,
    written through :func:`~repro.artifacts.write_atomic` (so not at
    all when the file already holds it)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "experiment": experiment,
        "params": _jsonable(params or {}),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "records": [_jsonable(r) for r in records],
    }
    data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    write_atomic(path, data)


def load_records(path: PathLike) -> Dict[str, Any]:
    """Load a result file; validates the format version.

    A file that is not a UTF-8 JSON object raises :class:`ReproError`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ReproError(f"no results file at {path}") from None
    except ValueError as exc:  # also bytes that are not UTF-8
        raise ReproError(f"corrupt results file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ReproError(f"corrupt results file {path}: not a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ReproError(
            f"results file {path} has format version "
            f"{payload.get('format_version')}, expected {FORMAT_VERSION}"
        )
    return payload


def merge_records(
    path: PathLike,
    records: Sequence[Any],
    experiment: str,
    params: Dict[str, Any] | None = None,
    key: str = "key",
) -> List[Dict[str, Any]]:
    """Merge new records into an existing artifact, matching by ``key``.

    This is how cached and fresh executor cells land in one JSON file:
    a warm-cache re-run merges its (identical) records over the stored
    ones and so writes nothing, a partial re-run replaces exactly the
    cells that changed.

    Existing records keep their position; a new record with a matching
    ``key`` replaces the old one in place, unmatched new records are
    appended in input order.  Records lacking ``key`` are always
    appended (no identity to merge on).  A missing file, or one from a
    different ``experiment``, starts fresh.  Returns the merged record
    list (as written).
    """
    existing: List[Dict[str, Any]] = []
    if Path(path).exists():
        try:
            payload = load_records(path)
        except ReproError:
            payload = {}
        if payload.get("experiment") == experiment:
            existing = list(payload.get("records", []))

    merged = [dict(r) for r in existing]
    position = {
        r[key]: i for i, r in enumerate(merged) if isinstance(r, dict) and key in r
    }
    for rec in records:
        rec = _jsonable(rec)
        if isinstance(rec, dict) and key in rec and rec[key] in position:
            merged[position[rec[key]]] = rec
        else:
            if isinstance(rec, dict) and key in rec:
                position[rec[key]] = len(merged)
            merged.append(rec)
    save_records(path, merged, experiment, params)
    return merged


def compare_records(
    old: Dict[str, Any],
    new: Dict[str, Any],
    key: str,
    tolerance: float = 0.25,
) -> List[str]:
    """Report records whose ``key`` drifted by more than ``tolerance``
    (relative).  Records are matched positionally; a length mismatch is
    itself reported.  Used to spot regressions between stored runs."""
    drifts: List[str] = []
    olds, news = old.get("records", []), new.get("records", [])
    if len(olds) != len(news):
        drifts.append(
            f"record count changed: {len(olds)} -> {len(news)}"
        )
    for i, (a, b) in enumerate(zip(olds, news)):
        va, vb = a.get(key), b.get(key)
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        if va == 0:
            continue
        rel = abs(vb - va) / abs(va)
        if rel > tolerance:
            drifts.append(
                f"record {i}: {key} drifted {va} -> {vb} ({rel:.0%})"
            )
    return drifts
