"""The integrated GADT debugger (the paper's contribution, §5–§8).

``GadtDebugger`` wires the whole pipeline together:

1. the transformation phase removes global side effects and gotos and
   identifies loop units,
2. the tracing phase executes the transformed program and builds the
   execution tree plus the dynamic dependence graph,
3. the debugging phase searches the tree with the answer chain
   (assertions → test-case lookup → user) and dynamic slicing on
   error indications.

"Hence, if the bug is not localized with this combined method we must
repeat the debugging without using the test results" —
:meth:`GadtDebugger.debug_distrusting_tests` implements that fallback:
when a first pass relied on test answers and the localized unit is
rejected (e.g. by the user inspecting its body), the session is repeated
with the test database disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.algorithmic import AlgorithmicDebugger, DebugResult
from repro.core.assertions import AssertionStore
from repro.core.oracle import Oracle
from repro.core.strategies import Strategy
from repro.pascal.semantics import AnalyzedProgram
from repro.tgen.lookup import TestCaseLookup
from repro.tracing.execution_tree import ExecNode
from repro.tracing.tracer import TraceResult, trace_program
from repro.transform.pipeline import TransformedProgram, transform_source


class GadtDebugger(AlgorithmicDebugger):
    """Algorithmic debugging + category-partition testing + slicing."""

    def __init__(
        self,
        trace: TraceResult,
        oracle: Oracle,
        strategy: Strategy | str = "top-down",
        assertions: AssertionStore | None = None,
        test_lookup: TestCaseLookup | None = None,
        enable_slicing: bool = True,
    ):
        super().__init__(
            trace,
            oracle,
            strategy=strategy,
            assertions=assertions,
            test_lookup=test_lookup,
            enable_slicing=enable_slicing,
        )

    def debug_distrusting_tests(
        self,
        start: ExecNode | None = None,
        reject: Callable[[DebugResult], bool] | None = None,
    ) -> DebugResult:
        """Debug; if the result leaned on test answers and ``reject``
        dismisses it, repeat the whole search without the test database
        (the paper's reliability fallback, §5.3.2)."""
        result = self.debug(start=start)
        rejected = reject(result) if reject is not None else False
        if not rejected or not result.used_test_answers:
            return result
        retry = AlgorithmicDebugger(
            self.trace,
            self.oracle,
            strategy=self.strategy,
            assertions=self.assertions,
            test_lookup=None,
            enable_slicing=self.enable_slicing,
        )
        retry_result = retry.debug(start=start)
        retry_result.session.note("test results distrusted; session repeated")
        return retry_result


@dataclass
class GadtSystem:
    """Convenience bundle: one program taken through all three phases."""

    transformed: TransformedProgram
    trace: TraceResult

    @property
    def analysis(self) -> AnalyzedProgram:
        return self.transformed.analysis

    @classmethod
    def from_source(
        cls,
        source: str,
        program_inputs: list[object] | None = None,
        step_limit: int = 2_000_000,
        tolerate_errors: bool = False,
        budget=None,
        degrade: bool = False,
        backend: str | None = None,
        profiler=None,
    ) -> "GadtSystem":
        """Transform, then trace, a Mini-Pascal program (phases I and II).

        Queries are phrased in the user's original terms (paper §6.1):
        both engines record the transformed analysis's
        :class:`~repro.tracing.tracer.ActivationView`, loop units
        included. ``tolerate_errors`` lets a crashing program yield its
        partial execution tree so the crash itself can be debugged.

        ``backend`` selects the trace execution engine (``"interp"`` |
        ``"compiled"``; ``None`` means ``REPRO_BACKEND`` if set, else
        ``"compiled"``).

        ``budget`` (a :class:`repro.resilience.Budget`) bounds the trace;
        with ``degrade``, blowing it salvages a depth-capped partial tree
        (``trace.degraded``) instead of raising, and any debug session
        run over it reports its result as partial.

        The transformation phase is served from the content-addressed
        transform cache (pure function of the source text); only the
        trace — which depends on ``program_inputs`` and carries all
        per-run state — is built fresh on every call.
        """
        transformed = transform_source(source)
        trace = trace_program(
            transformed.analysis,
            inputs=program_inputs,
            step_limit=step_limit,
            tolerate_errors=tolerate_errors,
            budget=budget,
            degrade=degrade,
            backend=backend,
            profiler=profiler,
        )
        return cls(transformed=transformed, trace=trace)

    def debugger(
        self,
        oracle: Oracle,
        strategy: Strategy | str = "top-down",
        assertions: AssertionStore | None = None,
        test_lookup: TestCaseLookup | None = None,
        enable_slicing: bool = True,
    ) -> GadtDebugger:
        """Phase III: build the debugging-phase driver."""
        return GadtDebugger(
            self.trace,
            oracle,
            strategy=strategy,
            assertions=assertions,
            test_lookup=test_lookup,
            enable_slicing=enable_slicing,
        )

    @staticmethod
    def store_lookup(
        directory,
        specs=(),
        selectors=None,
        menu=None,
    ) -> TestCaseLookup:
        """A :class:`TestCaseLookup` backed by the persistent sharded
        test-report store at ``directory`` (see :mod:`repro.store` and
        ``docs/TESTDB.md``): reports recorded by earlier testing runs —
        in this process or any other — answer this session's queries.

        ``specs`` is an iterable of :class:`~repro.tgen.TestSpec`;
        ``selectors`` maps unit names to automatic frame selectors, and
        ``menu`` is the fallback menu interaction for units without one.
        """
        from repro.store import BatchAnswerService, ShardedReportStore

        service = BatchAnswerService(
            ShardedReportStore(directory),
            specs=specs,
            selectors=selectors,
            menu=menu,
        )
        return service.session_lookup()

    def show_bug(self, result: DebugResult) -> str:
        """Original-source rendering of the localized unit (paper §6.1).

        Transparent debugging: the report shows the procedure as the
        user wrote it, not the transformed internal form.
        """
        from repro.core.transparency import TransparencyMap

        if result.bug_node is None:
            return "no bug was localized"
        return TransparencyMap(self.transformed).unit_source(result.bug_node).render()

    def explain_bug(self, result: DebugResult) -> str:
        """The show_bug report plus the statements inside the blamed
        unit that contributed to its erroneous outputs, narrowed by
        dicing against correct activations of the same unit (extension;
        dicing per [Lyle, Weiser 87])."""
        from repro.core.postmortem import contributing_statements, dice_statements

        if result.bug_node is None:
            return "no bug was localized"
        report = self.show_bug(result)
        contributors = contributing_statements(
            self.trace, result.bug_node, self.transformed
        )
        if contributors:
            lines = "\n".join(f"  {item.render()}" for item in contributors)
            report += f"\ncontributing statements:\n{lines}"
        # Dicing: activations of the same unit judged correct elsewhere
        # in the execution exonerate the statements they share.
        good_nodes = [
            node
            for node in self.trace.tree.walk()
            if node.unit_name == result.bug_node.unit_name
            and node.node_id != result.bug_node.node_id
            and any(c.node_id == node.node_id for c in result.correct_nodes)
        ]
        if good_nodes and contributors:
            diced = dice_statements(
                self.trace, result.bug_node, good_nodes, self.transformed
            )
            if diced and len(diced) < len(contributors):
                lines = "\n".join(f"  {item.render()}" for item in diced)
                report += (
                    f"\nnarrowed by dicing against "
                    f"{len(good_nodes)} correct activation(s):\n{lines}"
                )
        return report
