"""The committed ``results/*.json`` regenerate exactly.

``scripts/regen_experiments.py`` is the one path from the code to the
result files EXPERIMENTS.md cites.  This runs it into a scratch
directory and requires every committed file's ``records`` to equal the
fresh ones.  Records compare as canonical JSON, so ``0`` and ``0.0``
differ and a float that moves in its last digit fails.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = sorted((REPO_ROOT / "results").glob("*.json"))


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("regen")
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "regen_experiments.py"),
            "--outdir",
            str(outdir),
        ],
        capture_output=True,
        text=True,
        timeout=400,
    )
    assert result.returncode == 0, result.stderr[-1000:]
    return outdir


def _records(path: pathlib.Path) -> str:
    return json.dumps(json.loads(path.read_text())["records"], sort_keys=True)


@pytest.mark.parametrize("committed", RESULTS, ids=lambda p: p.stem)
def test_committed_records_regenerate_exactly(committed, fresh):
    assert _records(committed) == _records(fresh / committed.name)
