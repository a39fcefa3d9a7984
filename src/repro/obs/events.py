"""Pluggable event sinks: a ring buffer and a JSONL file writer.

Every observability event is one flat JSON-ready dict with three
standard fields — ``seq`` (monotonic per process), ``ts`` (Unix time),
``kind`` (``"span"`` / ``"query"`` / ``"slice"`` / ``"session"`` /
``"mutant"``) — plus kind-specific fields documented in
``docs/OBSERVABILITY.md``. Sinks receive the same dict object; they must
not mutate it.

The ring buffer is the default sink (installed by
:func:`repro.obs.enable`) so recent events are always inspectable
in-process; the JSONL writer streams events to a file for offline
analysis (``repro debug ... --journal out.jsonl`` writes one through
:class:`~repro.obs.journal.JournalWriter`). Writes flush
immediately: event volume is phase- and query-granular, never
per-statement, so durability wins over buffering.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from typing import IO


def _fire_write_fault(path: str):
    """Consult the fault-injection plan if the resilience layer is
    loaded (``sys.modules`` probe keeps this module import-light)."""
    faults = sys.modules.get("repro.resilience.faults")
    if faults is None:
        return None
    return faults.fire("sink.write", key=path)


def _count_sink_error() -> None:
    obs = sys.modules.get("repro.obs")
    if obs is not None:
        obs.add("resilience.sink_errors")


class EventSink:
    """Interface: override :meth:`write` (and optionally :meth:`close`)."""

    def write(self, event: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (file handles); idempotent."""


class RingBufferSink(EventSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._buffer: deque[dict] = deque(maxlen=capacity)

    def write(self, event: dict) -> None:
        self._buffer.append(event)

    def events(self) -> list[dict]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlFileSink(EventSink):
    """Appends one JSON object per line to ``path``.

    **Fault tolerance**: a failed write (``OSError`` — disk full,
    revoked handle, or the ``sink.write`` injection point) never
    propagates into the pipeline; it is counted in ``errors`` (and the
    ``resilience.sink_errors`` metric), and after ``max_errors``
    consecutive failures the sink degrades to a no-op so a dead disk
    cannot slow every event.

    **Atomic mode**: with ``atomic=True`` events stream to
    ``<path>.part`` and the finished file is published to ``path`` with
    ``os.replace`` on :meth:`close` — downstream consumers see either
    the complete event log or none, never a torn one.
    """

    def __init__(self, path: str, atomic: bool = False, max_errors: int = 8):
        self.path = path
        self.atomic = atomic
        self.max_errors = max_errors
        self.errors = 0
        self._write_path = f"{path}.part" if atomic else path
        self._handle: IO[str] | None = open(self._write_path, "w", encoding="utf-8")
        # Serializes writes from concurrent emitters (worker aggregation
        # threads, the future debug service): each event lands as one
        # whole line, so the file is always valid JSONL.
        self._lock = threading.Lock()

    @property
    def degraded(self) -> bool:
        """True once the sink gave up after ``max_errors`` failures."""
        return self._handle is None and self.errors >= self.max_errors

    def write(self, event: dict) -> None:
        with self._lock:
            if self._handle is None:
                return
            try:
                spec = _fire_write_fault(self.path)
                if spec is not None:
                    raise OSError(f"{spec.message} [sink.write]")
                self._handle.write(json.dumps(event, default=str) + "\n")
                self._handle.flush()
            except OSError:
                self.errors += 1
                _count_sink_error()
                if self.errors >= self.max_errors:
                    try:
                        self._handle.close()
                    except OSError:
                        pass
                    self._handle = None

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
                if self.atomic:
                    try:
                        os.replace(self._write_path, self.path)
                    except OSError:
                        pass


#: currently attached sinks (managed via repro.obs.add_sink/remove_sink)
SINKS: list[EventSink] = []

_seq = 0
_SEQ_LOCK = threading.Lock()


def broadcast(kind: str, fields: dict) -> None:
    """Stamp ``seq``/``ts``/``kind`` onto ``fields`` and fan out to sinks.

    Unconditional: enabled-gating happens at the instrumentation sites
    (:func:`repro.obs.emit` and live spans), not here. With no sinks
    registered the event dict is never built — callers on hot paths can
    rely on a sink-less broadcast being one list test. The seq stamp and
    the fan-out happen under one lock, so concurrent emitters produce a
    strictly ordered, gap-free sequence in every sink.
    """
    if not SINKS:
        return
    global _seq
    with _SEQ_LOCK:
        _seq += 1
        event = {"seq": _seq, "ts": time.time(), "kind": kind}
        event.update(fields)
        for sink in list(SINKS):
            sink.write(event)


def reset_seq() -> None:
    global _seq
    with _SEQ_LOCK:
        _seq = 0
