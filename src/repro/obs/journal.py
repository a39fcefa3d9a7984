"""The session flight recorder: a schema-versioned JSONL journal.

A journal is the durable record of one pipeline invocation — trace
construction, budget draws, cache hits and misses, slice prunes, every
debugger question with its node id and answer source, every verdict
transition — written as JSON lines so it can be replayed
(:mod:`repro.core.replay`), exported to Perfetto
(:mod:`repro.obs.export`), or grepped.

File format (``gadt_journal/1``): the first line is a header record ::

    {"kind": "journal", "schema": "gadt_journal/1", "ts": ..., "meta": {...}}

where ``meta`` carries everything a deterministic re-run needs —
``command``, ``program`` (path), ``source`` (the full program text),
``inputs``, ``backend``, ``strategy``, ``enable_slicing``, ``argv``.
Every following line is one ordinary observability event exactly as
:func:`repro.obs.emit` broadcast it (``seq``/``ts``/``kind`` plus
kind-specific fields; span events carry ``span_id``/``parent_id``, and
events emitted inside a span carry the owning ``span_id``). A journal
is thus its header plus exactly the command's event stream, and the
causal chain is reconstructible offline.

:class:`JournalWriter` is a :class:`~repro.obs.events.JsonlFileSink`
subclass, inheriting its fault tolerance (failed writes degrade, never
crash the pipeline) and atomic-publication mode.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.events import JsonlFileSink

JOURNAL_SCHEMA = "gadt_journal/1"


class JournalError(Exception):
    """The journal file is missing, torn, or not a journal at all."""


class JournalWriter(JsonlFileSink):
    """A JSONL sink that prefixes the stream with the journal header."""

    def __init__(
        self,
        path: str,
        meta: dict | None = None,
        atomic: bool = False,
        max_errors: int = 8,
    ):
        super().__init__(path, atomic=atomic, max_errors=max_errors)
        self.meta = dict(meta or {})
        header = {
            "kind": "journal",
            "schema": JOURNAL_SCHEMA,
            "ts": time.time(),
            "meta": self.meta,
        }
        super().write(header)


@dataclass
class Journal:
    """A parsed journal: the header metadata plus the event records."""

    schema: str | None
    meta: dict
    records: list[dict] = field(default_factory=list)
    #: the final line was torn mid-record (crashed writer); the readable
    #: prefix is still served, the torn tail is dropped
    truncated: bool = False
    #: 1-based line number of the torn tail (None when not truncated)
    truncated_line: int | None = None

    def of_kind(self, kind: str) -> list[dict]:
        return [record for record in self.records if record.get("kind") == kind]

    def queries(self) -> list[dict]:
        """Every debugger question, in the order it was asked."""
        return self.of_kind("query")

    def verdicts(self) -> list[dict]:
        """Judgement transitions of the tree search, in order."""
        return self.of_kind("verdict")

    def spans(self) -> list[dict]:
        return self.of_kind("span")

    def traces(self) -> list[dict]:
        """Trace-construction records (carry the ``root`` node id the
        replayer uses to normalize recorded node ids)."""
        return self.of_kind("trace")

    def session(self) -> dict | None:
        """The final per-session accounting record, if the journal
        covers a debug session."""
        sessions = self.of_kind("session")
        return sessions[-1] if sessions else None

    def __len__(self) -> int:
        return len(self.records)


def read_journal(path: str, require_header: bool = True) -> Journal:
    """Parse a journal (or a headerless event stream).

    With ``require_header`` (the default), the first line must be a
    ``gadt_journal/1`` header; the exporter passes ``False`` so plain
    event streams stay exportable.

    A torn *final* line — the signature a crashed writer leaves, since
    every complete event is flushed as one whole line — is tolerated:
    the readable prefix is returned with ``truncated`` set and the
    ``journal.truncated`` counter bumped. Invalid JSON anywhere else is
    real corruption and still raises :class:`JournalError`.
    """
    import sys

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise JournalError(f"cannot read journal {path!r}: {error}") from error
    schema: str | None = None
    meta: dict = {}
    records: list[dict] = []
    truncated = False
    truncated_line: int | None = None
    lines = text.splitlines()
    payload_lines = [
        number for number, line in enumerate(lines, start=1) if line.strip()
    ]
    first_payload_line = payload_lines[0] if payload_lines else 0
    last_payload_line = payload_lines[-1] if payload_lines else 0
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            # only a torn line with a readable prefix before it is a
            # crashed writer's tail; a torn first line is corruption
            if line_no == last_payload_line and line_no > first_payload_line:
                truncated = True
                truncated_line = line_no
                obs = sys.modules.get("repro.obs")
                if obs is not None:
                    obs.add("journal.truncated")
                break
            if line_no == first_payload_line == last_payload_line and require_header:
                raise JournalError(
                    f"{path}: not a journal (no {JOURNAL_SCHEMA} header "
                    "line); record one with --journal PATH"
                ) from error
            raise JournalError(f"{path}:{line_no}: invalid JSON: {error}") from error
        if not isinstance(record, dict):
            raise JournalError(f"{path}:{line_no}: expected a JSON object")
        if record.get("kind") == "journal":
            if schema is not None:
                raise JournalError(f"{path}:{line_no}: duplicate journal header")
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA:
                raise JournalError(
                    f"{path}: unsupported journal schema {schema!r} "
                    f"(expected {JOURNAL_SCHEMA})"
                )
            meta = record.get("meta") or {}
            continue
        records.append(record)
    if schema is None and require_header:
        raise JournalError(
            f"{path}: not a journal (no {JOURNAL_SCHEMA} header line); "
            "record one with --journal PATH"
        )
    return Journal(
        schema=schema,
        meta=meta,
        records=records,
        truncated=truncated,
        truncated_line=truncated_line,
    )


class recording:
    """Context manager for library use: record everything :mod:`repro.obs`
    emits inside the block into a journal file ::

        with journal.recording("session.journal", meta={"source": src}):
            system = GadtSystem.from_source(src)
            system.debugger(oracle).debug()

    Observability is enabled for the duration (and restored after); the
    writer is detached and closed on exit.
    """

    def __init__(self, path: str, meta: dict | None = None, atomic: bool = False):
        self.path = path
        self.meta = meta
        self.atomic = atomic
        self.writer: JournalWriter | None = None
        self._was_enabled = False

    def __enter__(self) -> JournalWriter:
        from repro import obs

        self._was_enabled = obs.enabled()
        obs.enable()
        self.writer = JournalWriter(self.path, meta=self.meta, atomic=self.atomic)
        obs.add_sink(self.writer)
        return self.writer

    def __exit__(self, exc_type, exc, tb) -> None:
        from repro import obs

        if self.writer is not None:
            obs.remove_sink(self.writer)
            self.writer.close()
        if not self._was_enabled:
            obs.disable()
