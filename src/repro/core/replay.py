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

The journal's query records are consumed strictly in order, one per
resolved query — including cache-sourced re-answers — because
:meth:`~repro.core.algorithmic.AlgorithmicDebugger._account` emits
exactly one record per resolution. Slicing is *not* replayed from the
journal: it re-executes for real, driven by the recorded error
indications, so a slicer regression shows up as a question-sequence or
accounting divergence.
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


class _RefuseOracle(Oracle):
    """Installed during replay; consulting it means a query was asked
    that the journal never recorded."""

    def answer(self, query: Query) -> Answer:  # pragma: no cover - guard
        raise ReplayDivergence(
            f"oracle consulted for {query.unit_name} — not in the journal"
        )


class ReplayDebugger(GadtDebugger):
    """A debugger whose answer chain is the journal's query records."""

    def __init__(self, trace, recorded_queries, node_offset, **kwargs):
        super().__init__(trace, _RefuseOracle(), **kwargs)
        self._recorded = list(recorded_queries)
        self._cursor = 0
        self._offset = node_offset

    @property
    def consumed(self) -> int:
        return self._cursor

    @property
    def leftover(self) -> int:
        return len(self._recorded) - self._cursor

    def _answer_query(self, query, session, result) -> Answer:
        if self._cursor >= len(self._recorded):
            raise ReplayDivergence(
                f"extra query #{self._cursor + 1}: the re-run asked about "
                f"{query.unit_name} (node {query.node.node_id - self._offset}) "
                "but the journal has no more recorded queries"
            )
        record = self._recorded[self._cursor]
        self._cursor += 1
        recorded_node = record.get("node")
        expected_node = (
            recorded_node + self._offset if recorded_node is not None else None
        )
        if record.get("unit") != query.unit_name or (
            expected_node is not None and expected_node != query.node.node_id
        ):
            raise ReplayDivergence(
                f"query #{self._cursor} asks about {query.unit_name} "
                f"(node {query.node.node_id - self._offset}), journal recorded "
                f"{record.get('unit')} (node {recorded_node})"
            )

        source = LABEL_SOURCES.get(record.get("source"))
        if source is None:
            raise ReplayDivergence(
                f"query #{self._cursor}: unknown recorded answer source "
                f"{record.get('source')!r}"
            )
        try:
            kind = AnswerKind(record.get("answer"))
        except ValueError as error:
            raise ReplayDivergence(
                f"query #{self._cursor}: unknown recorded answer "
                f"{record.get('answer')!r}"
            ) from error
        answer = Answer(
            kind=kind,
            source=source,
            error_variable=record.get("error_variable"),
            error_position=record.get("error_position"),
            note="replayed from journal",
        )

        # Mirror the live answer chain's bookkeeping per source, so the
        # accounting (and the slice-pruned arithmetic, which excludes
        # already-answered nodes) reproduces exactly.
        if source is AnswerSource.CACHE:
            self._account(result, query, answer)
            return answer
        if source is AnswerSource.USER:
            result.user_questions += 1
        else:
            result.auto_answers += 1
            if source is AnswerSource.TEST_DATABASE:
                result.used_test_answers = True
        session.ask(query, answer)
        self._answer_cache[query.node.node_id] = answer
        self._account(result, query, answer)
        return answer


class _ListSink:
    """Minimal private sink capturing the replay's own event stream."""

    def __init__(self):
        self.events: list[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:  # EventSink protocol
        pass


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
    recorded_verdicts = journal.verdicts()
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
        debugger = ReplayDebugger(
            system.trace,
            recorded_queries,
            offset,
            strategy=strategy,
            enable_slicing=meta.get("enable_slicing", True),
        )
        report = ReplayReport(ok=True, backend=system.trace.backend)
        try:
            result = debugger.debug(
                assume_symptom=meta.get("assume_symptom", True)
            )
        except ReplayDivergence as divergence:
            report.ok = False
            report.queries = debugger.consumed
            report.divergences.append(str(divergence))
            return report

        report.queries = debugger.consumed
        report.bug_unit = result.bug_unit
        report.session_report = result.report()

        if debugger.leftover:
            report.ok = False
            report.divergences.append(
                f"re-run ended early: {debugger.leftover} recorded "
                "query record(s) left unconsumed"
            )

        replayed_verdicts = [
            event for event in sink.events if event.get("kind") == "verdict"
        ]
        report.verdicts = len(replayed_verdicts)
        recorded_seq = [
            (v.get("verdict"), v.get("unit"), v.get("node"))
            for v in recorded_verdicts
        ]
        replayed_seq = [
            (v.get("verdict"), v.get("unit"), v.get("node") - offset)
            for v in replayed_verdicts
        ]
        if recorded_seq != replayed_seq:
            report.ok = False
            length = min(len(recorded_seq), len(replayed_seq))
            detail = f"{len(recorded_seq)} recorded vs {len(replayed_seq)} replayed"
            for index in range(length):
                if recorded_seq[index] != replayed_seq[index]:
                    detail = (
                        f"verdict #{index + 1}: recorded "
                        f"{recorded_seq[index]}, replayed {replayed_seq[index]}"
                    )
                    break
            report.divergences.append(f"verdict transitions differ ({detail})")

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
