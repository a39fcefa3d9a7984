"""Unit tests for oracles, especially the reference-program oracle."""

import io

import pytest

from repro.core import GadtSystem
from repro.core.oracle import (
    FunctionOracle,
    InteractiveOracle,
    ReferenceOracle,
    ScriptedOracle,
)
from repro.core.queries import Answer, AnswerKind, Query
from repro.pascal.semantics import analyze_source
from repro.tracing import trace_source
from repro.tracing.execution_tree import NodeKind
from repro.transform import transform_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE


@pytest.fixture(scope="module")
def reference_oracle():
    return ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))


@pytest.fixture(scope="module")
def buggy_trace():
    return trace_source(FIGURE4_SOURCE)


class TestScriptedOracle:
    def test_replays_in_order(self, buggy_trace):
        oracle = ScriptedOracle(
            script=[("sqrtest", Answer.no()), ("arrsum", Answer.yes())]
        )
        sqrtest = Query(buggy_trace.tree.find("sqrtest"))
        arrsum = Query(buggy_trace.tree.find("arrsum"))
        assert oracle.answer(sqrtest).kind is AnswerKind.NO
        assert oracle.answer(arrsum).kind is AnswerKind.YES
        assert oracle.exhausted

    def test_wrong_unit_raises(self, buggy_trace):
        oracle = ScriptedOracle(script=[("computs", Answer.no())])
        with pytest.raises(AssertionError):
            oracle.answer(Query(buggy_trace.tree.find("arrsum")))

    def test_exhausted_raises(self, buggy_trace):
        oracle = ScriptedOracle(script=[])
        with pytest.raises(AssertionError):
            oracle.answer(Query(buggy_trace.tree.find("arrsum")))


class TestFunctionOracle:
    def test_wraps_callable(self, buggy_trace):
        oracle = FunctionOracle(lambda query: Answer.yes())
        assert oracle.answer(Query(buggy_trace.tree.root)).is_correct
        assert oracle.questions == 1


class TestReferenceOracle:
    def test_correct_unit_answered_yes(self, reference_oracle, buggy_trace):
        arrsum = Query(buggy_trace.tree.find("arrsum"))
        assert reference_oracle.answer(arrsum).is_correct

    def test_buggy_unit_answered_no(self, reference_oracle, buggy_trace):
        decrement = Query(buggy_trace.tree.find("decrement"))
        answer = reference_oracle.answer(decrement)
        assert answer.is_incorrect

    def test_error_position_reported_for_multi_output(
        self, reference_oracle, buggy_trace
    ):
        computs = Query(buggy_trace.tree.find("computs"))
        answer = reference_oracle.answer(computs)
        assert answer.kind is AnswerKind.NO_WITH_ERROR
        assert answer.error_position == 1  # r1 is wrong, r2 fine

    def test_second_output_position(self, reference_oracle, buggy_trace):
        partialsums = Query(buggy_trace.tree.find("partialsums"))
        answer = reference_oracle.answer(partialsums)
        assert answer.kind is AnswerKind.NO_WITH_ERROR
        assert answer.error_position == 2  # s2 wrong, s1 fine

    def test_single_output_plain_no(self, reference_oracle, buggy_trace):
        comput1 = Query(buggy_trace.tree.find("comput1"))
        answer = reference_oracle.answer(comput1)
        assert answer.kind is AnswerKind.NO

    def test_positions_disabled(self, buggy_trace):
        oracle = ReferenceOracle(
            analyze_source(FIGURE4_FIXED_SOURCE), report_error_position=False
        )
        computs = Query(buggy_trace.tree.find("computs"))
        assert oracle.answer(computs).kind is AnswerKind.NO

    def test_isolated_call_for_diverged_inputs(self, reference_oracle, buggy_trace):
        # test(12, 9, ...) never happens in the fixed run; the isolated
        # call fallback must still answer (test itself is correct).
        test_node = Query(buggy_trace.tree.find("test"))
        answer = reference_oracle.answer(test_node)
        assert answer.is_correct

    def test_memoized_lookup_with_program_inputs(self):
        source = """
        program t;
        var x, y: integer;
        procedure double(var v: integer);
        begin v := v * 2 end;
        begin read(x); double(x); writeln(x) end.
        """
        fixed = source
        trace = trace_source(source, inputs=[21])
        oracle = ReferenceOracle(analyze_source(fixed), program_inputs=[21])
        answer = oracle.answer(Query(trace.tree.find("double")))
        assert answer.is_correct

    def test_unknown_unit_dont_know(self, reference_oracle):
        from repro.tracing.execution_tree import ExecNode, NodeKind

        ghost = ExecNode(kind=NodeKind.CALL, unit_name="ghost")
        assert reference_oracle.answer(Query(ghost)).kind is AnswerKind.DONT_KNOW

    def test_question_counter(self, buggy_trace):
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        oracle.answer(Query(buggy_trace.tree.find("arrsum")))
        oracle.answer(Query(buggy_trace.tree.find("computs")))
        assert oracle.questions == 2


class TestInteractiveOracle:
    def answers(self, *lines):
        feed = iter(lines)
        return InteractiveOracle(
            input_fn=lambda prompt: next(feed), output=io.StringIO()
        )

    def test_yes_no(self, buggy_trace):
        oracle = self.answers("yes")
        assert oracle.answer(Query(buggy_trace.tree.find("arrsum"))).is_correct
        oracle = self.answers("n")
        assert oracle.answer(Query(buggy_trace.tree.find("computs"))).is_incorrect

    def test_no_with_position(self, buggy_trace):
        oracle = self.answers("no 1")
        answer = oracle.answer(Query(buggy_trace.tree.find("computs")))
        assert answer.kind is AnswerKind.NO_WITH_ERROR
        assert answer.error_position == 1

    def test_no_with_name(self, buggy_trace):
        oracle = self.answers("no r2")
        answer = oracle.answer(Query(buggy_trace.tree.find("computs")))
        assert answer.error_variable == "r2"

    def test_assert_answer(self, buggy_trace):
        oracle = self.answers("assert r1 = sqr(y)")
        answer = oracle.answer(Query(buggy_trace.tree.find("computs")))
        assert answer.kind is AnswerKind.ASSERTION
        assert answer.assertion is not None
        assert answer.assertion.unit == "computs"

    def test_retry_on_garbage(self, buggy_trace):
        oracle = self.answers("whatever", "yes")
        assert oracle.answer(Query(buggy_trace.tree.find("arrsum"))).is_correct

    def test_dont_know(self, buggy_trace):
        oracle = self.answers("?")
        answer = oracle.answer(Query(buggy_trace.tree.find("arrsum")))
        assert answer.kind is AnswerKind.DONT_KNOW

    def test_out_of_range_position_asks_again(self, buggy_trace):
        node = buggy_trace.tree.find("computs")
        oracle = self.answers("no 9", "no 0", f"no {len(node.outputs)}")
        answer = oracle.answer(Query(node))
        assert answer.error_position == len(node.outputs)
        assert answer.resolve_error_variable(node) == node.outputs[-1].name
        assert oracle._output.getvalue().count("answers: yes | no") == 2

    def test_unknown_output_name_asks_again(self, buggy_trace):
        node = buggy_trace.tree.find("computs")
        name = node.outputs[0].name
        oracle = self.answers("no zzz", f"no {name.upper()}")
        answer = oracle.answer(Query(node))
        assert answer.error_variable == name
        assert oracle._output.getvalue().count("answers: yes | no") == 1

    def test_malformed_assertion_asks_again(self, buggy_trace):
        node = buggy_trace.tree.find("computs")
        oracle = self.answers(
            "assert (x", "assert 1 +", "assert r1 = 9223372036854775808", "assert r1 = sqr(y)"
        )
        answer = oracle.answer(Query(node))
        assert answer.kind is AnswerKind.ASSERTION
        assert answer.assertion.text == "r1 = sqr(y)"
        assert oracle._output.getvalue().count("answers: yes | no") == 3

    def test_malformed_assertion_does_not_end_the_session(self):
        oracle = self.answers(
            "assert (x", "no", "yes", "no 1", "no", "no 2", "no", "no"
        )
        result = GadtSystem.from_source(FIGURE4_SOURCE).debugger(oracle).debug()
        assert result.bug_unit == "decrement"
        assert oracle.questions == 7


class TestTransformedReference:
    FIXED = """
    program t;
    var n, s: integer;
    begin
      n := 3; s := 0;
      while n > 0 do begin s := s + n; n := n - 1 end;
      writeln(s)
    end.
    """

    @staticmethod
    def loop_of(source):
        trace = GadtSystem.from_source(source).trace
        return next(node for node in trace.tree.walk() if node.kind is NodeKind.LOOP)

    def test_loop_unit_queries_are_answered_from_the_reference_trace(self):
        oracle = ReferenceOracle(transform_source(self.FIXED).analysis)
        buggy = self.FIXED.replace("s := s + n;", "s := s + n + 1;")
        assert oracle.answer(Query(self.loop_of(buggy))).is_incorrect
        assert oracle.answer(Query(self.loop_of(self.FIXED))).is_correct


class TestGotoEscapeOutParam:
    """Corpus regression (sweep seeds 592/849, minimized in
    tests/corpus/regress_goto_escape_outparam.pas): a routine that
    leaves via a global goto before assigning its var parameter must
    not be blamed for the passthrough value of that parameter."""

    REFERENCE = (
        "tests/corpus/regress_goto_escape_outparam.pas"  # doc pointer
    )

    FIXED = """
    program t;
    label 9;
    var g, res: integer;
    procedure bump(n: integer);
    begin
      g := g + n
    end;
    procedure escape(var r: integer);
    begin
      if g > 1 then goto 9;
      r := g
    end;
    begin
      g := 0;
      res := 0;
      bump(1);
      escape(res);
      9: writeln(g);
      writeln(res)
    end.
    """
    # the planted bug: main calls bump(2), pushing g over the escape
    # threshold so `escape` jumps out with res untouched
    BUGGY = FIXED.replace("bump(1)", "bump(2)")

    def test_escape_judged_correct_despite_unassigned_out_param(self):
        oracle = ReferenceOracle(analyze_source(self.FIXED))
        trace = trace_source(self.BUGGY)
        node = trace.tree.find("escape")
        assert node.via_goto == "9"
        # r was never captured as an input and never assigned: its
        # observed value is an unknowable passthrough, not a mismatch
        assert oracle.answer(Query(node)).kind is AnswerKind.YES

    def test_all_strategies_blame_main(self):
        from repro.core import AlgorithmicDebugger
        from repro.core.strategies import available_strategies

        oracle = ReferenceOracle(analyze_source(self.FIXED))
        trace = trace_source(self.BUGGY)
        blamed = {
            strategy: AlgorithmicDebugger(
                trace, oracle, strategy=strategy
            ).debug().bug_unit
            for strategy in available_strategies()
        }
        assert set(blamed.values()) == {"t"}, blamed  # the main program
