"""Unit tests for trace-action instrumentation (paper §6)."""

from repro.analysis.sideeffects import analyze_side_effects
from repro.pascal import run_source
from repro.pascal.interpreter import ExecutionHooks, Interpreter, PascalIO
from repro.pascal.pretty import print_program
from repro.pascal.semantics import analyze, analyze_source
from repro.transform.instrument import instrument_program
from repro.transform.loop_units import compute_loop_units


def instrument(source: str):
    analysis = analyze_source(source)
    effects = analyze_side_effects(analysis)
    units = compute_loop_units(analysis)
    return instrument_program(analysis, effects, units), analysis


SIMPLE = """
program t;
var r: integer;
procedure p(a: integer; var b: integer);
begin b := a * 2 end;
begin p(21, r); writeln(r) end.
"""


class TestRoutineInstrumentation:
    def test_enter_and_exit_actions_inserted(self):
        result, _ = instrument(SIMPLE)
        text = print_program(result.program)
        assert "gadt_enter_unit('p', a)" in text
        assert "gadt_exit_unit('p', b)" in text

    def test_enter_is_first_exit_is_last(self):
        result, _ = instrument(SIMPLE)
        routine = result.program.block.routines[0]
        body = routine.block.body.statements
        assert body[0].name == "gadt_enter_unit"
        assert body[-1].name == "gadt_exit_unit"

    def test_instrumented_program_output_unchanged(self):
        result, _ = instrument(SIMPLE)
        new_analysis = analyze(result.program)
        output = Interpreter(new_analysis, io=PascalIO()).run().output
        assert output == run_source(SIMPLE).output

    def test_trace_actions_reach_hooks(self):
        result, _ = instrument(SIMPLE)
        new_analysis = analyze(result.program)
        seen = []

        class Recorder(ExecutionHooks):
            def trace_action(self, stmt, frame, values):
                seen.append((stmt.name, stmt.args[0].value, values))

        Interpreter(new_analysis, io=PascalIO(), hooks=Recorder()).run()
        names = [name for name, _, _ in seen]
        assert names == ["gadt_enter_unit", "gadt_exit_unit"]
        assert seen[0][1] == "p"
        assert seen[0][2] == [21]  # incoming value of a
        assert seen[1][2] == [42]  # outgoing value of b


LOOPED = """
program t;
var i, s: integer;
begin
  s := 0;
  for i := 1 to 3 do s := s + i;
  writeln(s)
end.
"""

WHILE_LOOPED = """
program t;
var i, s: integer;
begin
  s := 0;
  i := 1;
  while i <= 3 do begin s := s + i; i := i + 1 end;
  writeln(s)
end.
"""

REPEAT_LOOPED = """
program t;
var i, s: integer;
begin
  s := 0;
  i := 1;
  repeat s := s + i; i := i + 1 until i > 3;
  writeln(s)
end.
"""


class TestLoopInstrumentation:
    """Loop-unit actions on a three-iteration ``for`` loop; the
    subclasses run the same tests on ``while`` and ``repeat``."""

    LOOPED = LOOPED
    UNIT = "t$for1"

    def test_loop_actions_inserted(self):
        result, _ = instrument(self.LOOPED)
        text = print_program(result.program)
        assert f"gadt_loop_enter('{self.UNIT}'" in text
        assert f"gadt_loop_iter('{self.UNIT}')" in text
        assert f"gadt_loop_exit('{self.UNIT}'" in text

    def test_iteration_action_runs_per_iteration(self):
        result, _ = instrument(self.LOOPED)
        new_analysis = analyze(result.program)
        count = [0]

        class Recorder(ExecutionHooks):
            def trace_action(self, stmt, frame, values):
                if stmt.name == "gadt_loop_iter":
                    count[0] += 1

        Interpreter(new_analysis, io=PascalIO(), hooks=Recorder()).run()
        assert count[0] == 3

    def test_loop_output_unchanged(self):
        result, _ = instrument(self.LOOPED)
        new_analysis = analyze(result.program)
        assert Interpreter(new_analysis, io=PascalIO()).run().output == "6\n"

    def test_instrumented_program_reparses(self):
        result, _ = instrument(self.LOOPED)
        from repro.pascal.parser import parse_program

        text = print_program(result.program)
        reparsed = analyze(parse_program(text))
        assert Interpreter(reparsed, io=PascalIO()).run().output == "6\n"


class TestWhileLoopInstrumentation(TestLoopInstrumentation):
    LOOPED = WHILE_LOOPED
    UNIT = "t$while1"


class TestRepeatLoopInstrumentation(TestLoopInstrumentation):
    LOOPED = REPEAT_LOOPED
    UNIT = "t$repeat1"


class TestSourceMap:
    def test_trace_calls_are_synthesized(self):
        result, _ = instrument(SIMPLE)
        routine = result.program.block.routines[0]
        enter = routine.block.body.statements[0]
        assert result.source_map.is_synthesized(enter.node_id)

    def test_original_statements_mapped(self):
        result, analysis = instrument(SIMPLE)
        routine = result.program.block.routines[0]
        assign = routine.block.body.statements[1]
        original_id = result.source_map.original_id(assign.node_id)
        original_routine = analysis.program.block.routines[0]
        original_assign = original_routine.block.body.statements[0]
        assert original_id == original_assign.node_id
