"""Oracles: who answers the debugger's questions.

The paper's oracle is the human user. For reproducibility and for
*measuring* interaction counts, this module provides:

* :class:`InteractiveOracle` — a real terminal dialogue in the paper's
  format;
* :class:`ScriptedOracle` — replays a fixed list of answers, asserting
  the expected question order (used to reproduce the paper's dialogues
  verbatim);
* :class:`FunctionOracle` — wraps any ``Query -> Answer`` callable;
* :class:`ReferenceOracle` — simulates a perfectly knowledgeable user by
  consulting a bug-free *reference program*: first a memoized lookup in
  the reference execution tree (same program inputs), then calling the
  queried unit in isolation on the reference program with the query's
  input values. This is the oracle the benchmarks use, since it answers
  exactly as the paper's idealized user would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, TextIO

from repro.core.queries import Answer, AnswerKind, AnswerSource, Query
from repro.pascal.errors import LexError, ParseError, PascalError, SemanticError
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.pascal.semantics import AnalyzedProgram
from repro.pascal.values import ArrayValue, UNDEFINED, values_equal
from repro.tracing.execution_tree import Binding, BindingMode, ExecNode, NodeKind
from repro.tracing.tracer import TraceResult, decode_exit, trace_program


class Oracle(Protocol):
    def answer(self, query: Query) -> Answer: ...


class FunctionOracle:
    """Adapts a plain callable into an oracle."""

    def __init__(self, function: Callable[[Query], Answer]):
        self._function = function
        self.questions = 0

    def answer(self, query: Query) -> Answer:
        self.questions += 1
        return self._function(query)


@dataclass
class ScriptedOracle:
    """Replays scripted answers, verifying the expected unit order.

    Each entry is ``(expected_unit_name_or_None, answer)``.
    """

    script: list[tuple[str | None, Answer]]
    cursor: int = 0

    def answer(self, query: Query) -> Answer:
        if self.cursor >= len(self.script):
            raise AssertionError(
                f"oracle script exhausted at query {query.render()!r}"
            )
        expected_unit, answer = self.script[self.cursor]
        self.cursor += 1
        if expected_unit is not None and expected_unit != query.unit_name:
            raise AssertionError(
                f"expected a question about {expected_unit!r}, "
                f"got {query.render()!r}"
            )
        return answer

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.script)


class InteractiveOracle:
    """A terminal dialogue in the paper's style.

    Input forms: ``yes``/``y``, ``no``/``n``, ``no 2`` (error on the 2nd
    output), ``no <name>`` (error on output <name>), ``assert <expr>``,
    ``?``/``dont-know``. An answer it cannot read, such as an output
    position or name the unit does not have or an assertion that does
    not parse, is asked again after the usage line.
    """

    def __init__(self, input_fn: Callable[[str], str] = input, output: TextIO | None = None):
        self._input = input_fn
        self._output = output
        self.questions = 0

    def _emit(self, text: str) -> None:
        if self._output is not None:
            self._output.write(text + "\n")

    def answer(self, query: Query) -> Answer:
        self.questions += 1
        while True:
            raw = self._input(f"{query.render()} ").strip()
            parsed = self._parse(raw, query.node)
            if parsed is not None:
                return parsed
            self._emit(
                "answers: yes | no | no <k>|<name> | assert <expr> | dont-know"
            )

    @staticmethod
    def _parse(raw: str, node: ExecNode) -> Answer | None:
        text = raw.strip().lower()
        if text in ("y", "yes"):
            return Answer.yes()
        if text in ("n", "no"):
            return Answer.no()
        if text in ("?", "d", "dont-know", "don't know", "dontknow"):
            return Answer.dont_know()
        if text.startswith("no "):
            spec = raw.strip()[3:].strip()
            if spec.isdigit():
                position = int(spec)
                if not 1 <= position <= len(node.outputs):
                    return None
                return Answer.no_error_on(position=position)
            for binding in node.outputs:
                if binding.name.lower() == spec.lower():
                    return Answer.no_error_on(variable=binding.name)
            return None
        if text.startswith("assert "):
            from repro.core.assertions import Assertion

            try:
                assertion = Assertion(unit=node.unit_name, text=raw.strip()[7:].strip())
            except (LexError, ParseError, SemanticError):
                return None
            return Answer(kind=AnswerKind.ASSERTION, assertion=assertion)
        return None


# ----------------------------------------------------------------------
# the simulated user


def _canonical(value: object) -> object:
    if isinstance(value, ArrayValue):
        return ("array", value.low, value.high, tuple(_canonical(v) for v in value.elements))
    if value is UNDEFINED:
        return ("undefined",)
    return value


def _inputs_key(node: ExecNode) -> tuple:
    return tuple(
        (binding.name, _canonical(binding.value)) for binding in node.inputs
    )


#: what a reference activation did: its outputs and its exit
Expected = tuple[list[Binding], str | None]


def _memo_of(trace: TraceResult) -> dict[tuple, list[Expected]]:
    """A reference trace's activations by :func:`_memo_key`."""
    memo: dict[tuple, list[Expected]] = {}
    for node in trace.tree.walk():
        memo.setdefault(_memo_key(node), []).append((list(node.outputs), node.via_goto))
    return memo


def _memo_key(node: ExecNode) -> tuple:
    """Unit activations are matched by (name, node kind, input values) —
    the kind keeps a loop unit distinct from its own iterations, which
    share the name and often the inputs."""
    kind = "call" if node.kind in (NodeKind.CALL, NodeKind.MAIN) else node.kind.value
    return (node.unit_name, kind, _inputs_key(node))


class ReferenceOracle:
    """Answers queries by consulting a bug-free reference program.

    ``report_error_position=True`` mimics the paper's user, who points
    out *which* output variable is wrong whenever the unit has several
    outputs — the answer that activates the slicing component.
    A transformed reference analysis is traced with its loop units, so
    loop-unit queries are answered from the reference trace too.
    """

    def __init__(
        self,
        reference_analysis: AnalyzedProgram,
        program_inputs: list[object] | None = None,
        report_error_position: bool = True,
        step_limit: int = 2_000_000,
    ):
        self.reference_analysis = reference_analysis
        self.program_inputs = program_inputs
        self.report_error_position = report_error_position
        self.step_limit = step_limit
        self.questions = 0
        self._memo: dict[tuple, list[Expected]] | None = None

    @classmethod
    def from_source(
        cls,
        fixed_source: str,
        program_inputs: list[object] | None = None,
        report_error_position: bool = True,
        step_limit: int = 2_000_000,
        backend: str | None = None,
    ) -> "ReferenceOracle":
        """Build the oracle from bug-free source, transformed and traced
        exactly like the program under debugging (same unit names, same
        loop units, same original view) — maximizing direct
        execution-tree matches before any isolated-call fallback.
        ``backend`` is the engine that traces it."""
        from repro.core.gadt import GadtSystem

        system = GadtSystem.from_source(
            fixed_source,
            program_inputs=program_inputs,
            step_limit=step_limit,
            backend=backend,
        )
        oracle = cls(
            system.analysis,
            program_inputs=program_inputs,
            report_error_position=report_error_position,
            step_limit=step_limit,
        )
        oracle._memo = _memo_of(system.trace)
        return oracle

    # ------------------------------------------------------------------

    def answer(self, query: Query) -> Answer:
        self.questions += 1
        node = query.node
        candidates = self._expected_candidates(node)
        if not candidates:
            return Answer.dont_know()
        # Several reference activations can share the same inputs
        # (e.g. repeated calls); the behaviour is correct if it matches
        # any of them.
        for expected_bindings, expected_goto in candidates:
            if node.via_goto == expected_goto:
                verdict = self._compare(node, expected_bindings)
                if verdict.is_correct:
                    return verdict
        expected_bindings, expected_goto = candidates[0]
        if node.via_goto != expected_goto:
            # Wrong exit side effect: the goto is "one of the results".
            return Answer.no()
        return self._compare(node, expected_bindings)

    # ------------------------------------------------------------------

    def _expected_candidates(self, node: ExecNode) -> list[Expected]:
        memo = self._reference_memo()
        candidates = memo.get(_memo_key(node))
        if candidates:
            return list(candidates)
        if node.kind is NodeKind.CALL:
            isolated = self._isolated_call(node)
            return [isolated] if isolated is not None else []
        return []

    def _reference_memo(self) -> dict[tuple, list[Expected]]:
        if self._memo is None:
            try:
                trace = trace_program(
                    self.reference_analysis,
                    inputs=list(self.program_inputs) if self.program_inputs else None,
                    step_limit=self.step_limit,
                )
            except PascalError:
                self._memo = {}
            else:
                self._memo = _memo_of(trace)
        return self._memo

    def _isolated_call(self, node: ExecNode) -> Expected | None:
        try:
            info = self.reference_analysis.routine_named(node.unit_name)
        except KeyError:
            return None
        inputs = {binding.name: binding.value for binding in node.inputs}
        args = [inputs.get(param.name, UNDEFINED) for param in info.params]
        globals_in = {
            binding.name: binding.value
            for binding in node.inputs
            if binding.is_global
        }
        # Only seed globals the reference program actually declares (a
        # presented global may be a plain parameter on the other side).
        known_globals = {
            symbol.name for symbol in self.reference_analysis.main.locals
        }
        globals_in = {
            name: value
            for name, value in globals_in.items()
            if name in known_globals
        }
        try:
            interpreter = Interpreter(
                self.reference_analysis, io=PascalIO(), step_limit=self.step_limit
            )
            outcome = interpreter.call_routine_by_name(
                node.unit_name, args, globals_in=globals_in
            )
        except PascalError:
            return None
        # A transformed reference exits through its view's exit
        # parameter, read as a traced activation reads it.
        view = self.reference_analysis.view
        exit_param = view and view.exits.get(info.name)
        via_goto = decode_exit(outcome.out_values.get(exit_param)) or outcome.via_goto
        # A value presented as a global may be a threaded parameter in the
        # reference program (or vice versa): resolve by the reference
        # routine's own signature.
        param_names = {param.name for param in info.params}
        expected: list[Binding] = []
        for binding in node.outputs:
            if binding.mode is BindingMode.RESULT:
                expected.append(
                    Binding(binding.name, BindingMode.RESULT, outcome.result)
                )
                continue
            if binding.name in param_names:
                value = outcome.out_values.get(binding.name, UNDEFINED)
            else:
                value = outcome.globals_after.get(binding.name, UNDEFINED)
            if value is UNDEFINED and binding.name not in inputs:
                # The replay never assigned this cell and the trace did
                # not capture its incoming value (an unread var param or
                # global, typically on a goto-escape path). The observed
                # output is then the passthrough of an unknown input:
                # any value is consistent, so the binding is no evidence
                # either way. Without this, an unmutated routine that
                # escapes before assigning its out parameter is blamed
                # for "changing" a value it never touched.
                value = binding.value
            expected.append(
                Binding(
                    binding.name,
                    BindingMode.OUT,
                    value,
                    is_global=binding.is_global,
                )
            )
        return expected, via_goto

    def _compare(self, node: ExecNode, expected: list[Binding]) -> Answer:
        expected_by_name = {binding.name: binding.value for binding in expected}
        mismatches: list[int] = []
        for position, binding in enumerate(node.outputs, start=1):
            want = expected_by_name.get(binding.name, UNDEFINED)
            if not values_equal(binding.value, want):
                mismatches.append(position)
        if not mismatches:
            return Answer.yes()
        if self.report_error_position and len(node.outputs) > 1:
            return Answer.no_error_on(position=mismatches[0])
        return Answer.no()
