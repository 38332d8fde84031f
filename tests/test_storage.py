"""Tests for experiment result persistence."""

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.experiments.storage import (
    FORMAT_VERSION,
    compare_records,
    load_records,
    merge_records,
    save_records,
)


@dataclass
class Row:
    n: int
    messages: float


class TestSaveLoad:
    def test_roundtrip_dataclasses(self, tmp_path):
        path = tmp_path / "out.json"
        save_records(
            path, [Row(10, 20.0), Row(20, 41.0)], experiment="x",
            params={"sizes": [10, 20]},
        )
        payload = load_records(path)
        assert payload["experiment"] == "x"
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["records"] == [
            {"n": 10, "messages": 20.0},
            {"n": 20, "messages": 41.0},
        ]
        assert payload["params"] == {"sizes": [10, 20]}
        assert "python" in payload["environment"]

    def test_roundtrip_dicts_and_exotics(self, tmp_path):
        path = tmp_path / "out.json"
        save_records(
            path,
            [{"a": (1, 2), "b": frozenset({3}), "c": None}],
            experiment="y",
        )
        rec = load_records(path)["records"][0]
        assert rec["a"] == [1, 2]
        assert rec["b"] == ["3"]
        assert rec["c"] is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_records(tmp_path / "nope.json")

    def test_corrupt_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ReproError):
            load_records(p)

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"null", b"[1, 2]"],
        ids=["not-utf8", "null", "list"],
    )
    def test_malformed_file_is_corrupt_and_merged_over(
        self, tmp_path, content
    ):
        # A results file that is not a UTF-8 JSON object used to escape
        # load_records as UnicodeDecodeError/AttributeError, so
        # merge_records (and `repro sweep --out`) ended in a traceback.
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        with pytest.raises(ReproError, match="corrupt results file"):
            load_records(p)
        assert merge_records(p, [{"key": "a"}], "exp") == [{"key": "a"}]
        assert load_records(p)["records"] == [{"key": "a"}]

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "old.json"
        p.write_text(json.dumps({"format_version": 99, "records": []}))
        with pytest.raises(ReproError):
            load_records(p)


def _expected_bytes(records, experiment, params):
    """The artifact ``save_records`` must leave: the payload rendered
    by ``json.dumps(payload, indent=2, sort_keys=True)``."""
    payload = {
        "format_version": FORMAT_VERSION,
        "experiment": experiment,
        "params": params,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "records": records,
    }
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")


#: An mtime no write made in this test run can carry.
_OLD_MTIME_NS = 1_000_000_000


@pytest.fixture
def renames(monkeypatch):
    """Every ``os.replace`` call (the artifact writer's rename), as
    (source, target) pairs."""
    calls = []
    original = os.replace

    def spy(src, dst):
        calls.append((Path(src), Path(dst)))
        return original(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    return calls


class TestIdempotentAtomicWrites:
    RECORDS = [{"n": 10, "messages": 20.0}, {"n": 20, "messages": 41.0}]

    def _save(self, path, records=None):
        save_records(
            path, records or self.RECORDS, experiment="x",
            params={"sizes": [10, 20]},
        )

    def test_identical_resave_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "out.json"
        self._save(path)
        os.utime(path, ns=(_OLD_MTIME_NS, _OLD_MTIME_NS))
        before = path.stat()
        self._save(path)
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mtime_ns == before.st_mtime_ns == _OLD_MTIME_NS

    def test_changed_payload_is_renamed_into_place(self, tmp_path, renames):
        path = tmp_path / "out.json"
        self._save(path)
        changed = [{"n": 10, "messages": 21.0}]
        self._save(path, changed)
        assert [dst for _, dst in renames] == [path, path]
        for src, _ in renames:
            assert src.parent == path.parent
            assert src.name.startswith(f"out.json.tmp.{os.getpid()}-")
        # Each write gets its own temp name.
        assert renames[0][0] != renames[1][0]
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert path.read_bytes() == _expected_bytes(
            changed, "x", {"sizes": [10, 20]}
        )

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda good: b"", id="empty"),
            pytest.param(lambda good: good[: len(good) // 2], id="truncated"),
            pytest.param(lambda good: b"\xff\xfe" + good[2:], id="not-utf8"),
        ],
    )
    def test_damaged_artifact_is_replaced(self, tmp_path, damage, renames):
        path = tmp_path / "out.json"
        good = _expected_bytes(self.RECORDS, "x", {"sizes": [10, 20]})
        path.write_bytes(damage(good))
        self._save(path)
        assert path.read_bytes() == good
        assert [dst for _, dst in renames] == [path]
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_merge_over_identical_records_writes_nothing(
        self, tmp_path, renames
    ):
        path = tmp_path / "cells.json"
        records = [{"key": "a", "messages": 3}, {"key": "b", "messages": 5}]
        merge_records(path, records, experiment="sweep/x")
        os.utime(path, ns=(_OLD_MTIME_NS, _OLD_MTIME_NS))
        before = path.stat()
        merged = merge_records(path, records, experiment="sweep/x")
        after = path.stat()
        assert merged == records
        assert len(renames) == 1  # the first merge's write only
        assert after.st_ino == before.st_ino
        assert after.st_mtime_ns == _OLD_MTIME_NS


class TestCompare:
    def _payload(self, values):
        return {"records": [{"messages": v} for v in values]}

    def test_no_drift(self):
        drifts = compare_records(
            self._payload([100, 200]), self._payload([110, 190]),
            key="messages",
        )
        assert drifts == []

    def test_detects_drift(self):
        drifts = compare_records(
            self._payload([100]), self._payload([200]), key="messages"
        )
        assert len(drifts) == 1
        assert "drifted" in drifts[0]

    def test_detects_count_change(self):
        drifts = compare_records(
            self._payload([1]), self._payload([1, 2]), key="messages"
        )
        assert any("count" in d for d in drifts)

    def test_ignores_non_numeric(self):
        old = {"records": [{"messages": "n/a"}]}
        new = {"records": [{"messages": 5}]}
        assert compare_records(old, new, key="messages") == []

    def test_tolerance(self):
        drifts = compare_records(
            self._payload([100]), self._payload([120]),
            key="messages", tolerance=0.1,
        )
        assert drifts
        assert not compare_records(
            self._payload([100]), self._payload([120]),
            key="messages", tolerance=0.3,
        )
