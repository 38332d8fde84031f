"""One writer for every whole-file artifact, and one walk over the
runtime stores.

:func:`write_atomic` is how result records, cell envelopes, compiled
topologies, check replays, ``ATLAS.json``, bench envelopes,
``--metrics`` snapshots and the salt memo reach disk.  A
:class:`Store` is one of the three stores ``repro cache`` reports and
purges (:func:`runtime_stores`); :func:`store_report` and
:func:`purge_store` walk any of them.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

PathLike = Union[str, Path]


def write_atomic(path: PathLike, data: bytes) -> None:
    """Make ``path`` hold exactly ``data``.

    Nothing is written when the file already holds ``data``.
    Otherwise the bytes go to ``<name>.tmp.<pid>-<random>`` in the same
    directory (created if missing), which is renamed over ``path``; a
    temp name is unique per call, so threads of one process never
    share one, and it never matches a store's entry glob.  A failed
    write or rename removes the temp and re-raises.  No fsync: the
    rename protects against a killed writer, not a lost machine."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            # A size mismatch settles it without reading the file.
            size = os.fstat(fh.fileno()).st_size
            if size == len(data) and fh.read() == data:
                return
    except OSError:  # no file yet (or unreadable: replace it)
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.tmp.{os.getpid()}-{os.urandom(4).hex()}"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Store:
    """One on-disk runtime store.

    ``entries`` is the glob (relative to ``root``; ``**/`` walks
    subdirectories) its artifacts match.  ``stale`` maps one entry to
    why the current code can no longer use it, or ``""`` when it is
    live.  ``debris`` are the globs, matched anywhere under ``root``,
    of files a full purge removes besides the entries: temp files of
    killed writers (a live writer may own one, so a stale-only purge
    keeps them) and, for topologies, build lock files."""

    name: str
    root: Path
    entries: str
    stale: Callable[[Path], str]
    debris: Tuple[str, ...] = ("*.tmp.*",)

    def walk(self) -> List[Path]:
        """Every entry, sorted; none when the root does not exist."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(self.entries))


def store_report(store: Store) -> Dict[str, Any]:
    """Count, size and classify every entry of ``store``.

    Returns ``{"entries", "live", "stale", "bytes", "stale_by"}``, where
    ``stale_by`` maps each stale reason to its count."""
    report: Dict[str, Any] = {
        "entries": 0, "live": 0, "stale": 0, "bytes": 0,
        "stale_by": Counter(),
    }
    for path in store.walk():
        report["entries"] += 1
        report["bytes"] += path.stat().st_size
        reason = store.stale(path)
        if reason:
            report["stale"] += 1
            report["stale_by"][reason] += 1
        else:
            report["live"] += 1
    return report


def purge_store(store: Store, stale_only: bool = False) -> int:
    """Delete entries of ``store``; returns how many.

    ``stale_only`` deletes the stale entries; otherwise every entry
    goes, and the debris with it."""
    removed = 0
    for path in store.walk():
        if stale_only and not store.stale(path):
            continue
        path.unlink()
        removed += 1
    if not stale_only and store.root.is_dir():
        for pattern in store.debris:
            for path in store.root.rglob(pattern):
                path.unlink()
    return removed


def runtime_stores(
    cache_dir: PathLike, topology_dir: PathLike, replay_dir: PathLike
) -> List[Store]:
    """The three runtime stores, in ``repro cache info``'s row order."""
    from repro.check.controller import replay_is_stale
    from repro.experiments.parallel import classify_cell_envelope
    from repro.graphs.compile import TopologyStore

    topologies = TopologyStore(topology_dir)
    return [
        Store("cells", Path(cache_dir), "**/*.json",
              lambda p: classify_cell_envelope(p)[1]),
        Store("topologies", topologies.root, "**/*.topo",
              lambda p: "" if topologies.entry_is_live(p) else "stale",
              debris=("*.tmp.*", "*.lock")),
        Store("replays", Path(replay_dir), "**/*.json",
              lambda p: "stale" if replay_is_stale(p) else ""),
    ]
