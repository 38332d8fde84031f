"""Telemetry sinks.

A :class:`Recorder` receives structured events (:mod:`repro.obs.events`)
and does nothing else: counts and timings belong to the metrics
registry (:mod:`repro.obs.metrics`), lifecycles to the event stream.

The contract hot paths rely on: check ``recorder.enabled`` before
building an event dict.  :class:`NullRecorder` reports ``enabled =
False`` and makes every method a no-op, so the default configuration
costs one attribute read per would-be event — engine conformance
(bit-identical sweep rows with a recorder attached or not) is enforced
by ``tests/test_telemetry.py``.
"""

from __future__ import annotations

import io
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.obs.events import make_event, serialize_event


class Recorder:
    """Base telemetry sink; subclasses override :meth:`write`."""

    #: Hot paths skip event construction when this is False.
    enabled: bool = True

    # -- events ----------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Build, validate, and sink one event."""
        self.write(make_event(kind, **fields))

    def write(self, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Flush and release the sink; no-op by default."""

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullRecorder(Recorder):
    """The zero-overhead default: every operation is a no-op."""

    enabled = False

    def emit(self, kind: str, **fields: Any) -> None:
        pass

    def write(self, event: Dict[str, Any]) -> None:
        pass


#: Shared no-op sink; safe to reuse everywhere (it holds no state).
NULL_RECORDER = NullRecorder()


class MemoryRecorder(Recorder):
    """Collects events in a list — the test/bench sink."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def write(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [e["kind"] for e in self.events]

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]


class JsonlRecorder(Recorder):
    """Streams events to a JSONL file, one line per event.

    Lines are written under a lock (the executor's completion callbacks
    and a progress thread may interleave) and flushed per event so a
    crashed sweep leaves a readable prefix — the flight-recorder
    property the whole layer exists for.
    """

    def __init__(self, target: Union[str, Path, TextIO]):
        if isinstance(target, (str, Path)):
            path = Path(target)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            self._fh: TextIO = open(path, "w", encoding="utf-8")
            self._owns_fh = True
            self.path: Optional[Path] = path
        else:
            self._fh = target
            self._owns_fh = False
            self.path = None
        self._lock = threading.Lock()
        self._closed = False

    def write(self, event: Dict[str, Any]) -> None:
        line = serialize_event(event)
        with self._lock:
            if self._closed:
                return
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.flush()
            except (OSError, ValueError, io.UnsupportedOperation):
                pass
            if self._owns_fh:
                self._fh.close()
