"""Tests for the perf ledger (`repro.analysis.perf`) and its CLI,
``python -m repro perf``.

The guarantees under test:

* **envelopes** — schema-2 bench payloads load under the profile they
  declare; any other schema (the legacy profile-less schema 1
  included) and mismatched declarations are errors;
* **ledger** — ``record`` appends one entry per bench ingest,
  ``latest_per_profile`` returns append-order winners, and the file
  stays valid JSONL;
* **gate** — ``check`` compares candidates against the latest ledger
  entry of their profile: within-tolerance and faster-than-ledger
  runs pass, a >30% drop fails, asymmetric cases are notes, and a
  profile without history seeds the ledger from the candidate and
  reports "seeded, no baseline" instead of erroring;
* **committed state** — the repository's ``PERF_LEDGER.jsonl`` is
  seeded for all four profiles and the committed ``BENCH_*.json``
  files pass the unified gate against it (the acceptance criterion
  CI re-checks).
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.perf import (
    PROFILES,
    PerfError,
    bench_envelope,
    bench_to_entry,
    case_key,
    check,
    check_bench,
    emit_bench,
    geomean,
    latest_per_profile,
    load_bench,
    read_ledger,
    record,
    show,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def engine_payload(schema=2, rate=50_000.0, profile="engine"):
    cases = [
        {
            "algorithm": "flooding", "engine": eng, "n": n,
            "events": 1000, "messages": 900, "wall_s": 0.02,
            "events_per_sec": rate,
        }
        for eng in ("async", "sync")
        for n in (512, 2048)
    ]
    payload = {
        "schema": schema,
        "created": "2026-08-08T00:00:00",
        "python": "3.12.0",
        "cases": cases,
    }
    if schema >= 2:
        payload["profile"] = profile
    return payload


def topology_payload(schema=2, speedup=40.0):
    payload = {
        "schema": schema,
        "created": "2026-08-08T00:00:00",
        "python": "3.12.0",
        "cases": [
            {
                "workload": "er_spanner", "n": 512, "trials": 3,
                "legacy_s": 1.0, "cold_s": 0.5, "warm_s": 0.01,
                "warm_speedup": speedup,
            }
        ],
    }
    if schema >= 2:
        payload["profile"] = "topology"
    return payload


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n")
    return path


class TestEnvelopes:
    def test_schema2_declares_profile(self, tmp_path):
        path = write(tmp_path, "b.json", engine_payload())
        profile, payload = load_bench(path)
        assert profile == "engine"
        assert payload["schema"] == 2

    def test_schema1_is_rejected(self, tmp_path):
        # Schema 1 carried no profile field; it is refused even when
        # the caller names the profile.
        path = write(tmp_path, "t.json", topology_payload(schema=1))
        for profile in (None, "topology"):
            with pytest.raises(PerfError, match="unsupported bench schema"):
                load_bench(path, profile)

    def test_declared_profile_mismatch_is_error(self, tmp_path):
        path = write(tmp_path, "b.json", engine_payload())
        with pytest.raises(PerfError, match="declares profile"):
            load_bench(path, "check")

    def test_unknown_schema_rejected(self, tmp_path):
        payload = engine_payload()
        payload["schema"] = 99
        path = write(tmp_path, "b.json", payload)
        with pytest.raises(PerfError, match="unsupported bench schema"):
            load_bench(path)

    def test_missing_case_fields_rejected(self, tmp_path):
        payload = engine_payload()
        del payload["cases"][0]["events_per_sec"]
        path = write(tmp_path, "b.json", payload)
        with pytest.raises(PerfError, match="missing fields"):
            load_bench(path)

    def test_non_positive_metric_rejected(self, tmp_path):
        path = write(tmp_path, "b.json", engine_payload(rate=0.0))
        with pytest.raises(PerfError, match="non-positive"):
            load_bench(path)

    @pytest.mark.parametrize("field", ["created", "python"])
    def test_missing_header_field_rejected(self, tmp_path, field):
        payload = engine_payload()
        del payload[field]
        path = write(tmp_path, "b.json", payload)
        with pytest.raises(PerfError, match="missing top-level fields"):
            load_bench(path)

    def test_bench_envelope_passes_its_own_check(self):
        payload = bench_envelope("engine", cases=engine_payload()["cases"])
        assert list(payload)[:4] == ["schema", "created", "python", "profile"]
        assert check_bench(payload) == "engine"

    def test_emit_bench_writes_only_a_valid_payload(self, tmp_path, capsys):
        good = bench_envelope("engine", cases=engine_payload()["cases"])
        assert emit_bench(good, tmp_path / "good.json") == 0
        assert json.loads((tmp_path / "good.json").read_text()) == good
        assert emit_bench(dict(good, cases=[]), tmp_path / "bad.json") == 1
        assert "BENCH SCHEMA ERROR" in capsys.readouterr().err
        assert not (tmp_path / "bad.json").exists()

    def test_case_key_joins_key_fields(self):
        case = engine_payload()["cases"][0]
        assert case_key(case, "engine") == "flooding/async/512"
        topo = topology_payload()["cases"][0]
        assert case_key(topo, "topology") == "er_spanner/512"


class TestLedger:
    def test_record_appends_entries(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        bench = write(tmp_path, "b.json", engine_payload())
        entry = record(bench, ledger)
        assert entry["profile"] == "engine"
        assert entry["metric"] == "events_per_sec"
        assert len(entry["cases"]) == 4
        record(write(tmp_path, "t.json", topology_payload()), ledger)
        entries = read_ledger(ledger)
        assert [e["profile"] for e in entries] == ["engine", "topology"]
        assert all("recorded" in e for e in entries)

    def test_latest_per_profile_keeps_append_order_winner(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        record(write(tmp_path, "a.json", engine_payload(rate=100.0)),
               ledger)
        record(write(tmp_path, "b.json", engine_payload(rate=200.0)),
               ledger)
        latest = latest_per_profile(read_ledger(ledger))
        assert set(latest) == {"engine"}
        assert set(latest["engine"]["cases"].values()) == {200.0}

    def test_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nope.jsonl") == []

    def test_malformed_ledger_line_is_error(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text("{not json}\n")
        with pytest.raises(PerfError, match="bad ledger line"):
            read_ledger(ledger)

    def test_show_prints_history_with_geomean(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        record(write(tmp_path, "a.json", engine_payload(rate=100.0)),
               ledger)
        record(write(tmp_path, "b.json", engine_payload(rate=200.0)),
               ledger)
        buf = io.StringIO()
        grouped = show(ledger, stream=buf)
        out = buf.getvalue()
        assert "[engine] 2 entries" in out
        assert "+100.0%" in out  # geomean delta between the entries
        assert len(grouped["engine"]) == 2
        assert geomean([100.0, 400.0]) == pytest.approx(200.0)

    def test_bench_to_entry_carries_source_metadata(self):
        entry = bench_to_entry("engine", engine_payload(), source="x.json")
        assert entry["source"] == "x.json"
        assert entry["unit"] == "events/s"
        assert entry["created"] == "2026-08-08T00:00:00"


class TestGate:
    def _seeded(self, tmp_path, rate=100.0):
        ledger = tmp_path / "ledger.jsonl"
        record(write(tmp_path, "seed.json", engine_payload(rate=rate)),
               ledger)
        return ledger

    def test_within_tolerance_passes(self, tmp_path):
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "cand.json", engine_payload(rate=80.0))
        assert check({"engine": cand}, ledger, stream=io.StringIO()) == []

    def test_faster_never_fails(self, tmp_path):
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "cand.json", engine_payload(rate=900.0))
        assert check({"engine": cand}, ledger, stream=io.StringIO()) == []

    def test_regression_fails(self, tmp_path):
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "cand.json", engine_payload(rate=50.0))
        errors = check({"engine": cand}, ledger, stream=io.StringIO())
        assert len(errors) == 4  # every case dropped to 0.5x
        assert all("REGRESSION" not in e and "below ledger" in e
                   for e in errors)

    def test_tighter_tolerance_is_respected(self, tmp_path):
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "cand.json", engine_payload(rate=90.0))
        assert check({"engine": cand}, ledger,
                     max_regression=0.05, stream=io.StringIO())

    def test_unseeded_profile_seeds_instead_of_failing(self, tmp_path):
        # Regression: an unseeded profile used to hard-error, so the
        # first bench of any new profile could never pass CI.  Now the
        # candidate seeds the ledger and the gate reports it.
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "t.json", topology_payload())
        buf = io.StringIO()
        errors = check({"topology": cand}, ledger, stream=buf)
        assert errors == []
        assert "seeded, no baseline" in buf.getvalue()
        assert "topology" in latest_per_profile(read_ledger(ledger))

    def test_seeded_entry_gates_the_next_check(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        first = write(tmp_path, "first.json", engine_payload(rate=100.0))
        assert check({"engine": first}, ledger,
                     stream=io.StringIO()) == []
        slow = write(tmp_path, "slow.json", engine_payload(rate=50.0))
        errors = check({"engine": slow}, ledger, stream=io.StringIO())
        assert errors and all("below ledger" in e for e in errors)

    def test_empty_ledger_file_seeds_too(self, tmp_path):
        ledger = tmp_path / "fresh.jsonl"  # does not exist yet
        cand = write(tmp_path, "cand.json", engine_payload(rate=100.0))
        buf = io.StringIO()
        assert check({"engine": cand}, ledger, stream=buf) == []
        assert "seeded, no baseline" in buf.getvalue()
        assert ledger.exists()

    def test_asymmetric_cases_are_notes_not_errors(self, tmp_path):
        ledger = self._seeded(tmp_path)
        payload = engine_payload(rate=100.0)
        payload["cases"] = payload["cases"][:2]
        cand = write(tmp_path, "cand.json", payload)
        buf = io.StringIO()
        assert check({"engine": cand}, ledger, stream=buf) == []
        assert "only in ledger" in buf.getvalue()

    def test_unknown_profile_is_error(self, tmp_path):
        ledger = self._seeded(tmp_path)
        cand = write(tmp_path, "cand.json", engine_payload())
        errors = check({"warp": cand}, ledger, stream=io.StringIO())
        assert any("unknown profile" in e for e in errors)


class TestCommittedState:
    """The repository's own ledger and BENCH files stay consistent."""

    def test_ledger_is_seeded_for_all_profiles(self):
        entries = read_ledger(REPO_ROOT / "PERF_LEDGER.jsonl")
        assert set(latest_per_profile(entries)) == set(PROFILES)

    def test_committed_benches_pass_the_unified_gate(self):
        candidates = {
            name: REPO_ROOT / prof["baseline"]
            for name, prof in PROFILES.items()
        }
        errors = check(
            candidates,
            REPO_ROOT / "PERF_LEDGER.jsonl",
            stream=io.StringIO(),
        )
        assert errors == []

    def test_committed_benches_use_the_v2_envelope(self):
        for name, prof in PROFILES.items():
            payload = json.loads(
                (REPO_ROOT / prof["baseline"]).read_text()
            )
            assert payload["schema"] == 2
            assert payload["profile"] == name
            for key in ("created", "python", "cases"):
                assert key in payload


class TestLedgerScript:
    """`python -m repro perf` fronts the module end to end."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "perf", *argv],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_record_show_check_round_trip(self, tmp_path):
        bench = write(tmp_path, "b.json", engine_payload())
        ledger = tmp_path / "ledger.jsonl"
        res = self._run("--ledger", str(ledger), "record", str(bench))
        assert res.returncode == 0, res.stderr
        assert "recorded [engine]" in res.stdout
        res = self._run("--ledger", str(ledger), "show")
        assert res.returncode == 0
        assert "[engine]" in res.stdout
        res = self._run(
            "--ledger", str(ledger), "check",
            "--candidate", f"engine={bench}",
        )
        assert res.returncode == 0, res.stderr
        assert "within tolerance" in res.stdout

    def test_check_fails_on_regression(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        fast = write(tmp_path, "fast.json", engine_payload(rate=100.0))
        slow = write(tmp_path, "slow.json", engine_payload(rate=10.0))
        assert self._run(
            "--ledger", str(ledger), "record", str(fast)
        ).returncode == 0
        res = self._run(
            "--ledger", str(ledger), "check",
            "--candidate", f"engine={slow}",
        )
        assert res.returncode == 1
        assert "below ledger" in res.stderr

    def test_repro_perf_cli_matches(self, tmp_path):
        # The CLI writes the same ledger line the module's record()
        # writes, apart from the ingest timestamp.
        bench = write(tmp_path, "b.json", engine_payload())
        cli_ledger = tmp_path / "cli.jsonl"
        res = self._run("--ledger", str(cli_ledger), "record", str(bench))
        assert res.returncode == 0, res.stderr
        direct = record(bench, tmp_path / "direct.jsonl")
        [via_cli] = read_ledger(cli_ledger)
        for entry in (via_cli, direct):
            del entry["recorded"]
        assert via_cli == direct
