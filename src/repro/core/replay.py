"""Deterministic session replay from a recorded journal.

``repro replay JOURNAL`` regression-debugs the debugger itself: it
re-runs a recorded debug session from scratch — re-transforming,
re-tracing (optionally on the *other* backend), re-slicing — while
answering every query from the journal instead of an oracle, and
verifies that the re-run asks the same questions about the same
activations, takes the same verdict transitions, and produces the same
final accounting. Any divergence is reported and exits nonzero.

Node-id normalization: :class:`~repro.tracing.execution_tree.ExecNode`
ids come from a process-global counter, so recorded and replayed ids
differ by a constant offset — the difference between the replayed root
id and the ``root`` field of the journal's trace record. Node
*allocation order* is deterministic and identical across backends
(pre-order over the execution tree), which is what makes cross-backend
replay a meaningful conformance check.

The re-run is a plain :class:`~repro.core.gadt.GadtDebugger` whose
oracle is a :class:`JournalOracle`, so every query goes down the live
answer chain. The journal's answers stand in for the whole chain, in
order, each under its recorded source; cache-sourced records are not
handed out, because the re-run's own answer cache must produce them.
After the run, the re-run's query and verdict events are compared with
the recorded ones. Slicing is *not* replayed from the journal: it
re-executes for real, driven by the recorded error indications, so a
slicer regression shows up as a question-sequence or accounting
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compile import BACKENDS
from repro.core.algorithmic import SOURCE_LABELS
from repro.core.gadt import GadtDebugger, GadtSystem
from repro.core.oracle import Oracle
from repro.core.queries import Answer, AnswerKind, AnswerSource, Query
from repro.core.strategies import available_strategies
from repro.obs.journal import Journal, JournalError

#: reverse of :data:`~repro.core.algorithmic.SOURCE_LABELS`
LABEL_SOURCES = {label: source for source, label in SOURCE_LABELS.items()}


class ReplayDivergence(Exception):
    """The re-run departed from the recorded session."""


@dataclass
class ReplayReport:
    """Outcome of one journal replay."""

    ok: bool
    backend: str
    queries: int = 0
    verdicts: int = 0
    bug_unit: str | None = None
    divergences: list[str] = field(default_factory=list)
    session_report: dict | None = None

    def render(self) -> str:
        status = "identical" if self.ok else "DIVERGED"
        lines = [
            f"replay ({self.backend} backend): {status} — "
            f"{self.queries} queries, {self.verdicts} verdicts, "
            f"bug unit: {self.bug_unit or 'none'}"
        ]
        for divergence in self.divergences:
            lines.append(f"  divergence: {divergence}")
        return "\n".join(lines)


class JournalOracle(Oracle):
    """An oracle that hands out a journal's recorded answers, in order.

    Cache-sourced records are skipped: the re-run's own answer cache
    must produce them, which the query comparison after the run checks.
    Each answer keeps its recorded source, so the re-run counts it where
    the recorded session did.
    """

    def __init__(self, recorded_queries: list[dict], node_offset: int):
        self._pending = [
            (number, record)
            for number, record in enumerate(recorded_queries, 1)
            if record.get("source") != SOURCE_LABELS[AnswerSource.CACHE]
        ]
        self._cursor = 0
        self._offset = node_offset

    def answer(self, query: Query) -> Answer:
        node = query.node.node_id - self._offset
        if self._cursor >= len(self._pending):
            raise ReplayDivergence(
                f"extra query: the re-run asked about {query.unit_name} "
                f"(node {node}) but the journal has no more recorded answers"
            )
        number, record = self._pending[self._cursor]
        self._cursor += 1
        recorded_node = record.get("node")
        if record.get("unit") != query.unit_name or (
            recorded_node is not None and recorded_node != node
        ):
            raise ReplayDivergence(
                f"the re-run asked about {query.unit_name} (node {node}) "
                f"where the journal recorded query #{number} about "
                f"{record.get('unit')} (node {recorded_node})"
            )
        source = LABEL_SOURCES.get(record.get("source"))
        if source is None:
            raise ReplayDivergence(
                f"query #{number}: unknown recorded answer source "
                f"{record.get('source')!r}"
            )
        try:
            kind = AnswerKind(record.get("answer"))
        except ValueError as error:
            raise ReplayDivergence(
                f"query #{number}: unknown recorded answer "
                f"{record.get('answer')!r}"
            ) from error
        return Answer(
            kind=kind,
            source=source,
            error_variable=record.get("error_variable"),
            error_position=record.get("error_position"),
            note="replayed from journal",
        )


class _ListSink:
    """Minimal private sink capturing the replay's own event stream."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:  # EventSink protocol
        pass


#: event fields compared between the recorded and the replayed run
_COMPARED_FIELDS = {
    "query": ("unit", "node", "source", "answer", "error_variable", "error_position"),
    "verdict": ("verdict", "unit", "node"),
}


def _sequence(events: list[dict], kind: str, offset: int = 0) -> list[dict]:
    """The compared fields of every ``kind`` event, node ids shifted back
    by ``offset`` into the recorded session's numbering."""
    sequence = []
    for event in events:
        if event.get("kind") == kind:
            fields = {
                name: event[name]
                for name in _COMPARED_FIELDS[kind]
                if event.get(name) is not None
            }
            if "node" in fields:
                fields["node"] -= offset
            sequence.append(fields)
    return sequence


def _first_difference(kind: str, recorded: list, replayed: list) -> str | None:
    """Where two event sequences part, or ``None`` if they are equal."""
    for number, (was, now) in enumerate(zip(recorded, replayed), 1):
        if was != now:
            return f"{kind} #{number}: recorded {was}, replayed {now}"
    if len(recorded) != len(replayed):
        return f"{len(recorded)} recorded vs {len(replayed)} replayed"
    return None


#: session-report keys compared between recorded and replayed runs
#: (wall time is excluded — it can never reproduce)
_COMPARED_REPORT_KEYS = (
    "localized",
    "bug_unit",
    "queries",
    "user_questions",
    "auto_answers",
    "interactions_saved",
    "slices",
    "uncertain",
    "partial",
)


def replay_journal(
    journal: Journal,
    backend: str | None = None,
) -> ReplayReport:
    """Re-run the debug session a journal recorded; verify the transcript.

    ``backend`` overrides the recorded execution backend — replaying an
    interpreter-recorded session on the compiled backend (or vice versa)
    is the strongest conformance check the system has.
    """
    from repro import obs

    meta = journal.meta or {}
    source = meta.get("source")
    if not source:
        raise JournalError(
            "journal metadata carries no program source; "
            "record with --journal on a program-running command"
        )
    recorded_queries = journal.queries()
    if not recorded_queries:
        raise JournalError("journal records no debug queries; nothing to replay")
    traces = journal.traces()
    if not traces:
        raise JournalError("journal records no trace construction")
    # The session's own trace is the first one recorded: the target
    # program is traced before any reference oracle builds its trace.
    recorded_trace = traces[0]
    recorded_root = recorded_trace.get("root")
    if recorded_root is None:
        raise JournalError("journal trace record carries no root node id")
    recorded_session = journal.session()

    strategy = meta.get("strategy") or "top-down"
    if strategy not in available_strategies():
        raise JournalError(
            f"journal was recorded under strategy {strategy!r}, which this "
            f"build does not provide (available: "
            f"{', '.join(available_strategies())})"
        )

    backend_used = backend or meta.get("backend") or recorded_trace.get("backend")
    if backend_used is not None and backend_used not in BACKENDS:
        raise JournalError(
            f"journal was recorded under backend {backend_used!r}, which is "
            f"not one of {', '.join(BACKENDS)}"
        )

    was_enabled = obs.enabled()
    obs.enable()
    sink = _ListSink()
    obs.add_sink(sink)
    try:
        system = GadtSystem.from_source(
            source,
            program_inputs=meta.get("inputs"),
            backend=backend_used,
        )
        offset = system.trace.tree.root.node_id - recorded_root
        debugger = GadtDebugger(
            system.trace,
            JournalOracle(recorded_queries, offset),
            strategy=strategy,
            enable_slicing=meta.get("enable_slicing", True),
        )
        report = ReplayReport(ok=True, backend=system.trace.backend)
        result = None
        try:
            result = debugger.debug(
                assume_symptom=meta.get("assume_symptom", True)
            )
        except ReplayDivergence as divergence:
            report.ok = False
            report.divergences.append(str(divergence))
        replayed = {
            kind: _sequence(sink.events, kind, offset) for kind in _COMPARED_FIELDS
        }
        report.queries = len(replayed["query"])
        report.verdicts = len(replayed["verdict"])
        if result is None:
            return report

        report.bug_unit = result.bug_unit
        report.session_report = result.report()
        for kind, sequence in replayed.items():
            detail = _first_difference(
                kind, _sequence(journal.records, kind), sequence
            )
            if detail is not None:
                report.ok = False
                report.divergences.append(f"{kind} sequence differs ({detail})")

        if recorded_session is not None:
            recorded_report = recorded_session.get("report") or {}
            for key in _COMPARED_REPORT_KEYS:
                if recorded_report.get(key) != report.session_report.get(key):
                    report.ok = False
                    report.divergences.append(
                        f"session report field {key!r}: recorded "
                        f"{recorded_report.get(key)!r}, replayed "
                        f"{report.session_report.get(key)!r}"
                    )
        return report
    finally:
        obs.remove_sink(sink)
        if not was_enabled:
            obs.disable()


def replay_file(path: str, backend: str | None = None) -> ReplayReport:
    """Read a journal file and replay it (the ``repro replay`` body)."""
    from repro.obs.journal import read_journal

    journal = read_journal(path)
    if journal.truncated:
        # A torn tail means the recorded session is incomplete; a replay
        # would always "diverge" at the cut, which reads as a debugger
        # regression when the real problem is a crashed writer.
        raise JournalError(
            f"{path}: journal truncated at line {journal.truncated_line} "
            "(writer crashed mid-record?) — an incomplete session cannot "
            "be replayed"
        )
    return replay_journal(journal, backend=backend)
