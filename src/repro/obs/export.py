"""Chrome trace-event export: journals viewable in ui.perfetto.dev.

Converts a recorded journal (or a headerless event stream) into the
Chrome trace-event JSON format — the lingua franca of Perfetto, chrome
://tracing, and speedscope:

* **span** records become ``"X"`` (complete) events: the span event is
  emitted at span *end* and carries ``duration_s``, so the begin
  timestamp is ``ts - duration_s``; nesting re-assembles visually from
  the overlap on the main track;
* **query / slice / verdict / budget / trace / session** records become
  ``"i"`` (instant) markers on the main track, with every field in
  ``args`` for the inspection panel;
* **cache** records become ``"C"`` (counter) samples — running
  hit/miss totals drawn as a stacked area chart;
* **mutant** records are laid out as separate **sweep worker tracks**:
  each mutant's ``seconds`` slice starts at its recorded ``started``
  time, on the lane of the process (``pid``) that ran it — the sweep's
  measured parallelism;
* ``"M"`` metadata events name the process and every track.

Timestamps are microseconds rebased to the earliest event, so the
viewport opens on the session rather than on the Unix epoch.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.journal import Journal, read_journal

#: trace-event kinds rendered as instant markers on the main track
INSTANT_KINDS = ("query", "slice", "verdict", "budget", "trace", "session")

#: tid of the main pipeline track; worker lanes start above it
MAIN_TID = 1
WORKER_TID_BASE = 100


def _instant_name(record: dict) -> str:
    kind = record.get("kind", "event")
    unit = record.get("unit") or record.get("program") or record.get("cache")
    if kind == "query":
        return f"query {unit}? {record.get('answer', '')}".rstrip()
    if kind == "verdict":
        return f"verdict {unit}: {record.get('verdict', '')}".rstrip()
    if kind == "slice":
        return f"slice {unit}/{record.get('variable', '?')}"
    if kind == "budget":
        return f"budget {record.get('action', '')}".rstrip()
    if unit:
        return f"{kind} {unit}"
    return kind


def _args(record: dict) -> dict:
    return {
        key: value
        for key, value in record.items()
        if key not in ("seq", "ts", "kind")
    }


def _worker_slices(mutants: list[dict]) -> list[dict]:
    """Worker-lane ``X`` events for a mutation sweep.

    Each mutant's slice sits at its recorded start, on one lane per
    process that ran mutants (lanes numbered in order of first start).
    A record without a start gets no slice: its mutant was settled in
    the parent, or the journal predates the field.
    """
    started = [record for record in mutants if record.get("started") is not None]
    lanes: dict[object, int] = {}
    events = []
    for record in sorted(started, key=lambda record: record["started"]):
        lane = lanes.setdefault(record.get("pid"), len(lanes))
        events.append(
            {
                "name": record.get("description", "mutant"),
                "ph": "X",
                "ts": record["started"],  # rebased to µs later
                "dur": float(record.get("seconds") or 0.0),
                "pid": 1,
                "tid": WORKER_TID_BASE + lane,
                "cat": "mutant",
                "args": _args(record),
            }
        )
    return events


def to_chrome_trace(journal: Journal) -> dict:
    """The journal as a Chrome trace-event JSON document."""
    raw_events: list[dict] = []

    for record in journal.spans():
        duration = float(record.get("duration_s") or 0.0)
        raw_events.append(
            {
                "name": record.get("name", "span"),
                "ph": "X",
                "ts": record["ts"] - duration,
                "dur": duration,
                "pid": 1,
                "tid": MAIN_TID,
                "cat": "span",
                "args": _args(record),
            }
        )

    for record in journal.records:
        if record.get("kind") in INSTANT_KINDS:
            raw_events.append(
                {
                    "name": _instant_name(record),
                    "ph": "i",
                    "ts": record["ts"],
                    "s": "t",
                    "pid": 1,
                    "tid": MAIN_TID,
                    "cat": record["kind"],
                    "args": _args(record),
                }
            )

    hits = misses = 0
    for record in journal.of_kind("cache"):
        outcome = record.get("outcome")
        if outcome in ("hit", "disk-hit"):
            hits += 1
        elif outcome == "miss":
            misses += 1
        raw_events.append(
            {
                "name": "cache",
                "ph": "C",
                "ts": record["ts"],
                "pid": 1,
                "args": {"hits": hits, "misses": misses},
            }
        )

    worker_events = _worker_slices(journal.of_kind("mutant"))
    raw_events.extend(worker_events)

    # Rebase to the earliest begin time and convert to microseconds.
    base = min((event["ts"] for event in raw_events), default=0.0)
    for event in raw_events:
        event["ts"] = round((event["ts"] - base) * 1e6, 3)
        if "dur" in event:
            event["dur"] = round(event["dur"] * 1e6, 3)

    trace_events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro (GADT pipeline)"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": MAIN_TID,
            "args": {"name": "pipeline"},
        },
    ]
    worker_pids = {event["tid"]: event["args"].get("pid") for event in worker_events}
    for tid, pid in sorted(worker_pids.items()):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"sweep worker {tid - WORKER_TID_BASE} (pid {pid})"},
            }
        )
    trace_events.extend(sorted(raw_events, key=lambda event: event["ts"]))

    meta = journal.meta
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": journal.schema or "events-only",
            "command": meta.get("command"),
            "program": meta.get("program"),
            "backend": meta.get("backend"),
        },
    }


def export_journal(
    journal_path: str, output_path: str | None = None, fmt: str = "perfetto"
) -> str:
    """Export a journal file; returns the output path written.

    ``fmt`` accepts ``"perfetto"`` (alias ``"chrome"``). Headerless
    event streams export too — the header only adds metadata.
    """
    if fmt not in ("perfetto", "chrome"):
        raise ValueError(f"unknown export format {fmt!r}")
    journal = read_journal(journal_path, require_header=False)
    document = to_chrome_trace(journal)
    if output_path is None:
        output_path = f"{journal_path}.perfetto.json"
    Path(output_path).write_text(json.dumps(document) + "\n", encoding="utf-8")
    return output_path
