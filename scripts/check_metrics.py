#!/usr/bin/env python3
"""Validate a metrics snapshot file and its Prometheus rendering.

CI's metrics-smoke job runs a small sweep with ``--metrics`` and feeds
the resulting ``metrics.json`` through this script, which checks:

1. the file parses and passes the registry schema check
   (:func:`repro.obs.metrics.validate_snapshot` — sections present,
   non-negative counters, histogram bucket sanity);
2. the Prometheus text rendering of the same snapshot is well-formed:
   every sample line is ``series value`` with a finite number, each
   histogram's ``_bucket`` series is cumulative non-decreasing, its
   ``le="+Inf"`` bucket equals the ``_count`` sample, and every
   counter/gauge value round-trips exactly;
3. any ``--expect-counter SERIES=VALUE`` / ``--min-counter
   SERIES=VALUE`` invariants hold (the smoke job pins warm-cache
   hit counts this way, proving registry and executor stats agree).

Exit 0 with a one-line summary on success, 1 with one line per
violation otherwise.

Usage:
    python scripts/check_metrics.py results/metrics.json \\
        --expect-counter \\
            'repro_executor_cells_total{cached="yes",status="ok"}=4'
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.metrics import (  # noqa: E402
    parse_series_key,
    render_prometheus,
    validate_snapshot,
)


def check_prometheus(snap: dict) -> List[str]:
    """Well-formedness violations in the snapshot's text rendering."""
    errors: List[str] = []
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(
        render_prometheus(snap).splitlines(), 1
    ):
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        try:
            value = float(raw)
        except ValueError:
            errors.append(f"prometheus line {lineno}: bad value {raw!r}")
            continue
        if not series or not math.isfinite(value):
            errors.append(f"prometheus line {lineno}: malformed {line!r}")
            continue
        if series in samples:
            errors.append(f"prometheus: duplicate series {series}")
        samples[series] = value

    for key, value in snap.get("counters", {}).items():
        if samples.get(key) != float(value):
            errors.append(
                f"counter {key}: rendered {samples.get(key)}, "
                f"snapshot {value}"
            )
    for key, value in snap.get("gauges", {}).items():
        if samples.get(key) != float(value):
            errors.append(
                f"gauge {key}: rendered {samples.get(key)}, "
                f"snapshot {value}"
            )
    for key, h in snap.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        cumulative = -1.0
        for series, value in samples.items():
            sname, slabels = parse_series_key(series)
            if sname != name + "_bucket":
                continue
            if {k: v for k, v in slabels.items() if k != "le"} != labels:
                continue
            if value < cumulative:
                errors.append(
                    f"histogram {key}: bucket le={slabels.get('le')} "
                    f"not cumulative ({value} < {cumulative})"
                )
            cumulative = value
        count_key = None
        for series in samples:
            sname, slabels = parse_series_key(series)
            if sname == name + "_count" and slabels == labels:
                count_key = series
        if count_key is None:
            errors.append(f"histogram {key}: no _count sample")
        elif samples[count_key] != cumulative:
            errors.append(
                f"histogram {key}: +Inf bucket {cumulative} != "
                f"_count {samples[count_key]}"
            )
    return errors


def _parse_expectations(pairs, flag: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        series, sep, raw = pair.rpartition("=")
        if not sep or not series:
            raise SystemExit(f"{flag} wants SERIES=VALUE, got {pair!r}")
        out[series] = float(raw)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("snapshot", type=Path,
                        help="metrics JSON snapshot (from --metrics)")
    parser.add_argument(
        "--expect-counter", action="append", default=[],
        metavar="SERIES=VALUE",
        help="require the counter series to equal VALUE exactly "
        "(repeatable)",
    )
    parser.add_argument(
        "--min-counter", action="append", default=[],
        metavar="SERIES=VALUE",
        help="require the counter series to be at least VALUE "
        "(repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        snap = json.loads(args.snapshot.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.snapshot}: {exc}",
              file=sys.stderr)
        return 1
    errors = validate_snapshot(snap)
    if not errors:
        errors.extend(check_prometheus(snap))
        counters = snap.get("counters", {})
        for series, want in _parse_expectations(
            args.expect_counter, "--expect-counter"
        ).items():
            have = counters.get(series)
            if have != want:
                errors.append(
                    f"counter {series}: {have} (expected exactly {want})"
                )
        for series, want in _parse_expectations(
            args.min_counter, "--min-counter"
        ).items():
            have = float(counters.get(series, 0.0))
            if have < want:
                errors.append(
                    f"counter {series}: {have} (expected >= {want})"
                )
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if errors:
        print(f"{len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(
        f"{args.snapshot}: {len(snap.get('counters', {}))} counters, "
        f"{len(snap.get('gauges', {}))} gauges, "
        f"{len(snap.get('histograms', {}))} histograms ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
