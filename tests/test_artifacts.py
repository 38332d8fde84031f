"""The one artifact writer and the one runtime-store walk
(:mod:`repro.artifacts`)."""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.artifacts as artifacts
from repro.artifacts import Store, purge_store, store_report, write_atomic
from repro.check.controller import save_replay
from repro.opt.atlas import empty_atlas, save_atlas

#: An mtime no write made in this test run can carry.
OLD_MTIME_NS = 1_000_000_000


def _age(path: Path) -> os.stat_result:
    os.utime(path, ns=(OLD_MTIME_NS, OLD_MTIME_NS))
    return path.stat()


def _temps(directory: Path):
    return [p for p in directory.rglob("*") if ".tmp." in p.name]


class TestWriteAtomic:
    def test_unchanged_bytes_are_not_written(self, tmp_path):
        path = tmp_path / "a.json"
        write_atomic(path, b"same")
        before = _age(path)
        write_atomic(path, b"same")
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mtime_ns == OLD_MTIME_NS

    def test_changed_bytes_are_renamed_into_place(self, tmp_path):
        path = tmp_path / "sub" / "a.json"  # the directory is created
        write_atomic(path, b"old")
        before = path.stat()
        write_atomic(path, b"new, longer")
        assert path.read_bytes() == b"new, longer"
        # A rename installs a new inode; a rewrite in place would not.
        assert path.stat().st_ino != before.st_ino
        assert _temps(tmp_path) == []

    def test_failed_rename_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        write_atomic(path, b"old")

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert _temps(tmp_path) == []

    def test_failed_write_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        write_atomic(path, b"old")
        real_open = open

        class FullDisk:
            """Writes half the bytes, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(artifacts, "open", open_, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_atomic(path, b"new bytes")
        assert path.read_bytes() == b"old"
        assert _temps(tmp_path) == []

    def test_threads_never_share_a_temp_file(self, tmp_path, monkeypatch):
        # Both threads write their temp file before either renames.  With
        # a pid-only temp name the second writer would truncate the
        # first one's temp, and one rename would find it gone.
        path = tmp_path / "a.json"
        payloads = [b"a" * 1000, b"b" * 2000]
        both_written = threading.Barrier(len(payloads))
        real_replace = os.replace

        def replace(src, dst):
            both_written.wait(timeout=10)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors = []

        def write(data):
            try:
                write_atomic(path, data)
            except Exception as exc:  # noqa: BLE001 — asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        assert errors == []
        assert path.read_bytes() in payloads
        assert _temps(tmp_path) == []


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _api_docs(directory: Path) -> Path:
    """Regenerate the API reference into ``directory``."""
    out = directory / "docs" / "api.md"
    subprocess.run(
        [sys.executable, str(SCRIPTS / "gen_api_docs.py"), "--out", str(out)],
        check=True, capture_output=True,
    )
    return out


SAVERS = {
    "replay": lambda d: save_replay(
        {"kind": "repro-check-replay", "choices": [1, 0]}, d / "r.json"
    ),
    "atlas": lambda d: save_atlas(empty_atlas(), d / "ATLAS.json"),
    "api-docs": _api_docs,
}


@pytest.mark.parametrize("save", SAVERS.values(), ids=list(SAVERS))
def test_identical_resave_leaves_the_file_untouched(tmp_path, save):
    path = save(tmp_path)
    before = _age(path)
    assert save(tmp_path) == path
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert after.st_mtime_ns == OLD_MTIME_NS


class TestStoreWalk:
    @staticmethod
    def _store(root):
        # Entries are *.json anywhere below root; "bad" in a name makes
        # an entry stale for that reason.
        return Store(
            "demo", root, "**/*.json",
            lambda p: "bad" if "bad" in p.name else "",
            debris=("*.tmp.*", "*.lock"),
        )

    def _fill(self, root):
        files = {
            "ab/live.json": b"12345",
            "ab/bad1.json": b"1",
            "cd/bad2.json": b"12",
            "ab/live.json.tmp.1-00ff00ff": b"half",
            "cd/x.lock": b"",
            "notes.txt": b"not an entry",
        }
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)

    def test_report_counts_entries_only(self, tmp_path):
        self._fill(tmp_path)
        assert store_report(self._store(tmp_path)) == {
            "entries": 3, "live": 1, "stale": 2, "bytes": 8,
            "stale_by": {"bad": 2},
        }

    def test_stale_purge_keeps_live_entries_and_debris(self, tmp_path):
        self._fill(tmp_path)
        assert purge_store(self._store(tmp_path), stale_only=True) == 2
        left = sorted(
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.*")
        )
        assert left == [
            "ab/live.json", "ab/live.json.tmp.1-00ff00ff", "cd/x.lock",
            "notes.txt",
        ]

    def test_full_purge_removes_entries_and_debris(self, tmp_path):
        self._fill(tmp_path)
        assert purge_store(self._store(tmp_path)) == 3
        assert [p.name for p in tmp_path.rglob("*.*")] == ["notes.txt"]

    def test_missing_root_is_an_empty_store(self, tmp_path):
        store = self._store(tmp_path / "absent")
        assert store_report(store)["entries"] == 0
        assert purge_store(store) == 0
