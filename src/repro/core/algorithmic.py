"""The algorithmic debugger core (paper §3, §5.3.1).

The debugger traverses the execution tree asking whether each unit
activation matches the intended behaviour. The search maintains:

* the *currently suspected* unit — known (or assumed, for the root
  symptom) to behave incorrectly, and
* a judgement map over activations.

"The search finally ends, and a bug is localized in a procedure p when
one of the following holds: procedure p contains no procedure calls;
all procedure calls performed from the body of procedure p fulfill the
user's expectations."

Before consulting the oracle (the user), each query runs through the
answer chain: the answer cache, stored assertions, and the test-case
lookup (paper Figure 3) — only unanswered queries cost an interaction.
A ``no, error on <output>`` answer activates the slicing component,
which restricts the remaining search to the pruned execution tree
(paper §5.3.3, §7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.assertions import AssertionStore
from repro.core.oracle import Oracle
from repro.core.queries import Answer, AnswerKind, AnswerSource, Query
from repro.core.session import Session
from repro.core.strategies import Strategy, make_strategy
from repro.slicing.criteria import DynamicCriterion
from repro.slicing.tree_pruning import TreeView, prune_tree
from repro.tgen.lookup import TestCaseLookup
from repro.tracing.execution_tree import ExecNode
from repro.tracing.tracer import TraceResult

#: answer-source labels used in per-session accounting. The first four
#: map :class:`AnswerSource` values; ``slice-pruned`` counts activations
#: the search never had to ask about because a dynamic slice exonerated
#: them (paper §7 — the mechanism behind "fewer user interactions").
SOURCE_LABELS = {
    AnswerSource.USER: "user",
    AnswerSource.ASSERTION: "assertion",
    AnswerSource.TEST_DATABASE: "test-db",
    AnswerSource.CACHE: "cache",
}
SLICE_PRUNED = "slice-pruned"


@dataclass
class DebugResult:
    """Outcome of one debugging session."""

    bug_node: ExecNode | None
    session: Session
    slices: int = 0
    uncertain_nodes: list[ExecNode] = field(default_factory=list)
    #: activations judged correct during the search (dicing material)
    correct_nodes: list[ExecNode] = field(default_factory=list)
    #: query count per answer source ("user" / "assertion" / "test-db" /
    #: "cache" / "slice-pruned"); see :data:`SOURCE_LABELS`. The
    #: session's only tally: every other count is read from it.
    queries_by_source: dict[str, int] = field(default_factory=dict)
    #: wall time of the debugging search (always measured)
    elapsed_s: float = 0.0
    #: the session ran over a degraded (budget-salvaged, depth-capped)
    #: partial trace: the localization is valid for the traced prefix
    #: but the bug may live in an activation the trace never recorded
    partial: bool = False
    degraded_reason: str | None = None
    #: search strategy that drove the session (docs/STRATEGIES.md)
    strategy: str | None = None

    @property
    def bug_unit(self) -> str | None:
        return self.bug_node.unit_name if self.bug_node is not None else None

    @property
    def localized(self) -> bool:
        return self.bug_node is not None

    @property
    def user_questions(self) -> int:
        """Queries that cost a user interaction."""
        return self.queries_by_source.get("user", 0)

    @property
    def auto_answers(self) -> int:
        """Queries an assertion or the test database answered."""
        return self.queries_by_source.get("assertion", 0) + (
            self.queries_by_source.get("test-db", 0)
        )

    @property
    def used_test_answers(self) -> bool:
        return self.queries_by_source.get("test-db", 0) > 0

    @property
    def total_questions(self) -> int:
        return self.user_questions + self.auto_answers

    @property
    def slice_pruned(self) -> int:
        """Activations removed from the search space by dynamic slices."""
        return self.queries_by_source.get(SLICE_PRUNED, 0)

    def report(self) -> dict:
        """Structured per-session accounting (JSON-ready).

        ``queries.total`` counts every resolved query — explicit ones
        (answered by the user, an assertion, the test database, or the
        answer cache) plus the activations a dynamic slice pruned out of
        the search, which a sliceless top-down session would have had to
        ask about. ``by_source`` always sums to ``total``;
        ``interactions_saved`` is ``total`` minus the queries that cost
        a user interaction.
        """
        by_source = {
            label: self.queries_by_source.get(label, 0)
            for label in (*SOURCE_LABELS.values(), SLICE_PRUNED)
        }
        total = sum(by_source.values())
        return {
            "schema": "gadt_session/1",
            "localized": self.localized,
            "bug_unit": self.bug_unit,
            "strategy": self.strategy,
            "queries": {"total": total, "by_source": by_source},
            "user_questions": self.user_questions,
            "auto_answers": self.auto_answers,
            "interactions_saved": total - by_source["user"],
            "slices": self.slices,
            "uncertain": len(self.uncertain_nodes),
            "elapsed_s": self.elapsed_s,
            "partial": self.partial,
            "degraded_reason": self.degraded_reason,
        }


class AlgorithmicDebugger:
    """Algorithmic debugging over a traced execution.

    With the default arguments this is *pure* algorithmic debugging:
    every query goes to the oracle and slicing is off. Supplying an
    assertion store, a test lookup, and ``enable_slicing=True`` yields
    the full GADT behaviour (see :class:`~repro.core.gadt.GadtDebugger`).
    """

    def __init__(
        self,
        trace: TraceResult,
        oracle: Oracle,
        strategy: Strategy | str = "top-down",
        assertions: AssertionStore | None = None,
        test_lookup: TestCaseLookup | None = None,
        enable_slicing: bool = False,
    ):
        self.trace = trace
        self.oracle = oracle
        self.strategy = (
            make_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.assertions = assertions if assertions is not None else AssertionStore()
        self.test_lookup = test_lookup
        self.enable_slicing = enable_slicing
        self._answer_cache: dict[int, Answer] = {}

    # ------------------------------------------------------------------

    def debug(
        self, start: ExecNode | None = None, assume_symptom: bool = True
    ) -> DebugResult:
        """Localize a bug, starting from ``start`` (default: the root).

        Per the paper, the debugger "can be invoked by the user after
        noticing an externally visible symptom of a bug", so the start
        node is assumed erroneous. With ``assume_symptom=False`` the
        start node is queried first, and a "yes" ends the session with
        no bug localized (``result.bug_node is None``).
        """
        started = time.perf_counter()
        visits_before = getattr(self.strategy, "node_visits", None)
        with obs.span("debug.session", strategy=type(self.strategy).__name__):
            result = self._search(start, assume_symptom)
        result.elapsed_s = time.perf_counter() - started
        result.strategy = getattr(self.strategy, "name", None)
        if self.trace.degraded:
            # Degraded tracing (blown budget, salvaged partial tree):
            # the session still localizes, but only over the traced
            # prefix — the result is explicitly partial.
            result.partial = True
            result.degraded_reason = self.trace.degraded_reason
            result.session.note(
                f"trace degraded ({self.trace.degraded_reason}); "
                "result is partial"
            )
        if obs.enabled():
            obs.add("debug.sessions")
            obs.add("debug.slices", result.slices)
            visits_after = getattr(self.strategy, "node_visits", None)
            if visits_after is not None:
                # weighted strategies report how many tree-node touches
                # the search cost — the incremental-index health metric
                obs.add(
                    "debug.strategy_node_visits",
                    visits_after - (visits_before or 0),
                )
            for source, count in result.queries_by_source.items():
                obs.add(f"debug.queries.{source}", count)
            obs.emit("session", report=result.report())
        return result

    def _search(
        self, start: ExecNode | None, assume_symptom: bool
    ) -> DebugResult:
        session = Session()
        result = DebugResult(bug_node=None, session=session)

        current = start if start is not None else self.trace.tree.root
        view = TreeView.full(current)
        judgements: dict[int, bool] = {}

        if not assume_symptom:
            answer = self._answer_query(Query(current), session, result)
            if answer.is_correct or answer.kind is AnswerKind.DONT_KNOW:
                session.note(
                    f"{current.unit_name} behaves as intended; nothing to localize"
                )
                self._verdict(current, "no-symptom")
                return result
            error_variable = answer.resolve_error_variable(current)
            if self.enable_slicing and error_variable is not None:
                view = self._slice(current, error_variable, view, session, result)
        else:
            session.note(
                f"debugging started at {current.unit_name} (symptom assumed)"
            )

        while True:
            candidate = self.strategy.next_query(view, current, judgements)
            if candidate is None:
                result.bug_node = current
                session.localized(current.unit_name)
                self._verdict(current, "bug-localized")
                return result

            answer = self._answer_query(Query(candidate), session, result)

            if answer.kind is AnswerKind.DONT_KNOW:
                judgements[candidate.node_id] = True  # cannot refute: move on
                result.uncertain_nodes.append(candidate)
                self._verdict(candidate, "uncertain")
                continue
            if answer.is_correct:
                judgements[candidate.node_id] = True
                result.correct_nodes.append(candidate)
                self._verdict(candidate, "correct")
                continue

            # Incorrect: the search descends into this activation.
            judgements[candidate.node_id] = False
            self._verdict(candidate, "incorrect")
            current = candidate
            error_variable = answer.resolve_error_variable(candidate)
            if (
                self.enable_slicing
                and error_variable is not None
                and answer.kind is AnswerKind.NO_WITH_ERROR
            ):
                view = self._slice(candidate, error_variable, view, session, result)

    # ------------------------------------------------------------------

    def _slice(
        self,
        node: ExecNode,
        variable: str,
        view: TreeView,
        session: Session,
        result: DebugResult,
    ) -> TreeView:
        criterion = DynamicCriterion(node=node, variable=variable)
        try:
            sliced = prune_tree(self.trace, criterion)
        except KeyError:
            session.note(
                f"slicing on {criterion.describe()} unavailable; continuing unsliced"
            )
            return view
        result.slices += 1
        subtree_ids = {descendant.node_id for descendant in node.walk()}
        before = len(subtree_ids)
        combined = TreeView(
            root=node, kept_ids=(sliced.kept_ids & view.kept_ids) | {node.node_id}
        )
        # Activations the slice just removed from the search space: they
        # were still candidates (in the current view, inside the suspect
        # subtree, not yet answered) and are now exonerated — each one is
        # a query the session no longer needs (paper §7).
        pruned = (
            (view.kept_ids & subtree_ids)
            - combined.kept_ids
            - set(self._answer_cache)
        )
        if pruned:
            result.queries_by_source[SLICE_PRUNED] = (
                result.queries_by_source.get(SLICE_PRUNED, 0) + len(pruned)
            )
        session.note_slice(
            f"slice on {criterion.describe()}: "
            f"{combined.size()} of {before} activations remain"
        )
        if obs.enabled():
            obs.emit(
                "slice",
                unit=node.unit_name,
                variable=variable,
                kept=combined.size(),
                subtree=before,
                pruned=len(pruned),
            )
        return combined

    # ------------------------------------------------------------------
    # the answer chain (paper Figure 3)

    def _answer_query(
        self, query: Query, session: Session, result: DebugResult
    ) -> Answer:
        cached = self._answer_cache.get(query.node.node_id)
        if cached is not None:
            answer = Answer(
                kind=cached.kind,
                source=AnswerSource.CACHE,
                error_variable=cached.error_variable,
                error_position=cached.error_position,
                note="previously answered",
            )
        else:
            answer = self._consult(query)
            session.ask(query, answer)
            self._answer_cache[query.node.node_id] = answer
        self._account(result, query, answer)
        return answer

    def _consult(self, query: Query) -> Answer:
        """Stored assertions, then the test-case lookup, then the oracle."""
        answer = self.assertions.try_answer(query)
        if answer is not None:
            return answer
        if self.test_lookup is not None:
            outcome = self.test_lookup.consult(query.unit_name, query.inputs())
            if outcome.answers_yes:
                return Answer.yes(
                    source=AnswerSource.TEST_DATABASE, note=outcome.detail
                )
        answer = self.oracle.answer(query)
        if answer.kind is AnswerKind.ASSERTION and answer.assertion is not None:
            # Store the assertion, then let it answer this very query.
            self.assertions.add(answer.assertion)
            derived = self.assertions.try_answer(query)
            if derived is None:
                return Answer.dont_know(source=AnswerSource.USER)
            return Answer(
                kind=derived.kind,
                source=AnswerSource.USER,
                error_variable=derived.error_variable,
                error_position=derived.error_position,
                note=f"via new assertion {answer.assertion.text!r}",
            )
        return answer

    @staticmethod
    def _verdict(node: ExecNode, verdict: str) -> None:
        """Journal one judgement transition of the tree search."""
        if obs.enabled():
            obs.emit(
                "verdict",
                unit=node.unit_name,
                node=node.node_id,
                verdict=verdict,
            )

    @staticmethod
    def _account(result: DebugResult, query: Query, answer: Answer) -> None:
        """Count one resolved query under the answer source it names.

        The emitted event is the journal's replay unit: it carries the
        node id, the answer source *and* the answer itself (including
        error indications), so a recorded session can be re-answered
        without the original oracle (:mod:`repro.core.replay`).
        """
        label = SOURCE_LABELS.get(answer.source, answer.source.value)
        result.queries_by_source[label] = (
            result.queries_by_source.get(label, 0) + 1
        )
        if obs.enabled():
            fields: dict = {
                "unit": query.unit_name,
                "node": query.node.node_id,
                "source": label,
                "answer": answer.kind.value,
            }
            if answer.error_variable is not None:
                fields["error_variable"] = answer.error_variable
            if answer.error_position is not None:
                fields["error_position"] = answer.error_position
            obs.emit("query", **fields)
