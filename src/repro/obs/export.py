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
  outcomes are aggregated after the sweep ends (the crash-isolation
  pool reports no per-worker timeline), so each mutant's ``seconds``
  slice is greedily packed onto the first free worker lane inside the
  ``mutants.evaluate`` span window — a faithful shape of the sweep's
  parallelism, reconstructed from what the journal carries;
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


def _pack_mutants(mutants: list[dict], spans: list[dict]) -> list[dict]:
    """Synthesize worker-lane ``X`` events for a mutation sweep.

    The sweep aggregates outcomes in the parent process after all
    workers finish, so mutant events share one end-of-sweep timestamp;
    each carries its own wall time (``seconds``). Greedy lane packing
    inside the ``mutants.evaluate`` window reconstructs a plausible
    parallel timeline: lane count ≈ observed concurrency.
    """
    window_end = None
    window_start = None
    for span in spans:
        if span.get("name") == "mutants.evaluate":
            window_end = span["ts"]
            window_start = span["ts"] - span.get("duration_s", 0.0)
    events = []
    lanes: list[float] = []
    for record in mutants:
        seconds = float(record.get("seconds") or 0.0)
        start_floor = (
            window_start
            if window_start is not None
            else record["ts"] - seconds
        )
        # Reuse the earliest-free lane while the slice still fits inside
        # the sweep window; otherwise open a new lane. Lane count then
        # converges on the sweep's actual concurrency (total work over
        # window length), without the pool reporting worker ids.
        lane = None
        if lanes:
            best = min(range(len(lanes)), key=lanes.__getitem__)
            if window_end is None or lanes[best] + seconds <= window_end + 1e-6:
                lane = best
        if lane is None:
            lane = len(lanes)
            lanes.append(start_floor)
        start = max(start_floor, lanes[lane])
        lanes[lane] = start + seconds
        events.append(
            {
                "name": record.get("description", "mutant"),
                "ph": "X",
                "ts": start,  # rebased to µs later
                "dur": seconds,
                "pid": 1,
                "tid": WORKER_TID_BASE + lane,
                "cat": "mutant",
                "args": _args(record),
            }
        )
    return events


def to_chrome_trace(journal: Journal) -> dict:
    """The journal as a Chrome trace-event JSON document."""
    spans = journal.spans()
    raw_events: list[dict] = []

    for record in spans:
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

    worker_events = _pack_mutants(journal.of_kind("mutant"), spans)
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
    worker_tids = sorted({event["tid"] for event in worker_events})
    for tid in worker_tids:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"sweep worker {tid - WORKER_TID_BASE}"},
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
