"""Unit tests for goto restructuring (paper §6)."""

from repro.analysis.sideeffects import analyze_side_effects
from repro.pascal import run_source
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.pascal.parser import parse_program
from repro.pascal.pretty import print_program
from repro.pascal.semantics import analyze, analyze_source
from repro.transform.goto_elimination import break_global_gotos, eliminate_loop_gotos


def run_analysis(analysis, inputs=None) -> str:
    return Interpreter(analysis, io=PascalIO(inputs)).run().output


def apply_global_rounds(source: str, max_rounds: int = 5):
    analysis = analyze_source(source)
    for _ in range(max_rounds):
        result = break_global_gotos(analysis)
        if not result.changed:
            break
        analysis = analyze(result.program)
    return analysis, result


class TestLoopGotos:
    ESCAPE_WHILE = """
    program t;
    label 9;
    var i, acc: integer;
    begin
      acc := 0; i := 0;
      while i < 10 do begin
        i := i + 1;
        acc := acc + i;
        if acc > 7 then goto 9
      end;
      9: writeln(i); writeln(acc)
    end.
    """

    def test_while_escape_rewritten(self):
        analysis = analyze_source(self.ESCAPE_WHILE)
        result = eliminate_loop_gotos(analysis)
        assert result.changed
        text = print_program(result.program)
        assert "gadt_leave_1" in text
        assert "while (i < 10) and (gadt_leave_1 = 0) do" in text

    def test_while_escape_equivalent(self):
        analysis = analyze_source(self.ESCAPE_WHILE)
        result = eliminate_loop_gotos(analysis)
        assert run_analysis(analyze(result.program)) == run_source(
            self.ESCAPE_WHILE
        ).output

    def test_no_goto_inside_rewritten_loop(self):
        analysis = analyze_source(self.ESCAPE_WHILE)
        result = eliminate_loop_gotos(analysis)
        new_analysis = analyze(result.program)
        # The remaining gotos inside the loop only target the fresh label.
        main = new_analysis.main
        for goto in main.local_gotos:
            assert goto.target in ("9", "9000")

    def test_fresh_flags_number_past_existing_ones(self):
        # a flag left by an earlier round, declared in a nested routine
        source = """
        program t;
        label 9;
        var i: integer;
        procedure p;
        var gadt_leave_3: integer;
        begin gadt_leave_3 := 0 end;
        begin
          i := 0;
          while i < 10 do begin
            i := i + 1;
            if i > 3 then goto 9
          end;
          9: writeln(i)
        end.
        """
        result = eliminate_loop_gotos(analyze_source(source))
        assert "while (i < 10) and (gadt_leave_4 = 0) do" in print_program(
            result.program
        )

    def test_loops_without_escapes_return_the_input(self):
        analysis = analyze_source(self.ESCAPE_REPEAT.replace("goto 9", "i := 4"))
        result = eliminate_loop_gotos(analysis)
        assert result.program is analysis.program
        assert not result.changed and not result.source_map.to_original

    ESCAPE_REPEAT = """
    program t;
    label 9;
    var i: integer;
    begin
      i := 0;
      repeat
        i := i + 1;
        if i = 4 then goto 9
      until i >= 10;
      9: writeln(i)
    end.
    """

    def test_repeat_escape_equivalent(self):
        analysis = analyze_source(self.ESCAPE_REPEAT)
        result = eliminate_loop_gotos(analysis)
        assert result.changed
        assert run_analysis(analyze(result.program)) == "4\n"

    ESCAPE_FOR = """
    program t;
    label 9;
    var i, found: integer;
    begin
      found := 0;
      for i := 1 to 100 do begin
        if i * i > 50 then begin found := i; goto 9 end
      end;
      9: writeln(found)
    end.
    """

    def test_for_escape_lowered_to_while(self):
        analysis = analyze_source(self.ESCAPE_FOR)
        result = eliminate_loop_gotos(analysis)
        assert result.changed
        assert run_analysis(analyze(result.program)) == "8\n"

    def test_loop_without_escape_untouched(self):
        source = """
        program t;
        var i, s: integer;
        begin
          s := 0;
          for i := 1 to 3 do s := s + i;
          writeln(s)
        end.
        """
        analysis = analyze_source(source)
        result = eliminate_loop_gotos(analysis)
        assert not result.changed

    def test_goto_within_loop_untouched(self):
        source = """
        program t;
        label 5;
        var i: integer;
        begin
          i := 0;
          while i < 3 do begin
            i := i + 1;
            goto 5;
            i := 99;
            5:
          end;
          writeln(i)
        end.
        """
        analysis = analyze_source(source)
        result = eliminate_loop_gotos(analysis)
        assert not result.changed
        assert run_analysis(analyze(result.program)) == "3\n"

    def test_two_distinct_targets(self):
        source = """
        program t;
        label 7, 8, 9;
        var i: integer;
        begin
          i := 0;
          while true do begin
            i := i + 1;
            if i = 2 then goto 8;
            if i = 5 then goto 9
          end;
          8: writeln(8); goto 7;
          9: writeln(9);
          7:
        end.
        """
        analysis = analyze_source(source)
        result = eliminate_loop_gotos(analysis)
        assert result.changed
        assert run_analysis(analyze(result.program)) == run_source(source).output


class TestGlobalGotos:
    SIMPLE = """
    program t;
    label 9;
    var x: integer;
    procedure q(n: integer);
    begin
      if n > 3 then goto 9;
      x := n
    end;
    begin
      x := 0;
      q(2);
      q(5);
      q(100);
      writeln(x);
      9: writeln(x)
    end.
    """

    def test_exitcond_parameter_added(self):
        analysis, result = apply_global_rounds(self.SIMPLE)
        q = analysis.routine_named("q")
        assert any(p.name == "exitcond_q" for p in q.params)

    def test_no_global_gotos_remain(self):
        analysis, _ = apply_global_rounds(self.SIMPLE)
        for info in analysis.user_routines():
            assert not info.global_gotos

    def test_behaviour_preserved(self):
        analysis, _ = apply_global_rounds(self.SIMPLE)
        assert run_analysis(analysis) == run_source(self.SIMPLE).output

    def test_exit_side_effects_gone(self):
        analysis, _ = apply_global_rounds(self.SIMPLE)
        effects = analyze_side_effects(analysis)
        for info in analysis.user_routines():
            assert not effects.of_info(info).exit_labels

    NESTED = """
    program t;
    label 9;
    var trace: integer;
    procedure inner(n: integer);
    begin
      trace := trace + 1;
      if n = 0 then goto 9
    end;
    procedure outer(n: integer);
    begin
      inner(n);
      trace := trace + 10
    end;
    begin
      trace := 0;
      outer(1);
      outer(0);
      outer(1);
      9: writeln(trace)
    end.
    """

    def test_two_level_unwinding(self):
        analysis, _ = apply_global_rounds(self.NESTED)
        assert run_analysis(analysis) == run_source(self.NESTED).output
        for info in analysis.user_routines():
            assert not info.global_gotos

    def test_skipped_code_after_goto(self):
        # outer(1): +1 +10 = 11; outer(0): +1 then the goto unwinds past
        # outer's '+10' AND the remaining outer(1) call, landing on 9.
        assert run_source(self.NESTED).output == "12\n"

    def test_function_with_global_goto_warned(self):
        source = """
        program t;
        label 9;
        function f(x: integer): integer;
        begin
          if x > 0 then goto 9;
          f := x
        end;
        begin writeln(f(-1)); 9: end.
        """
        analysis = analyze_source(source)
        result = break_global_gotos(analysis)
        assert result.warnings
        assert "function" in result.warnings[0]

    def test_printed_form_matches_paper_pattern(self):
        analysis, _ = apply_global_rounds(self.SIMPLE)
        text = print_program(analysis.program)
        assert "exitcond_q := 0" in text
        assert "exitcond_q := 9" in text  # the exit code is the label
        assert "if exitcond_q = 9 then" in text

    def test_transformed_program_reparses(self):
        analysis, _ = apply_global_rounds(self.SIMPLE)
        text = print_program(analysis.program)
        reparsed = analyze(parse_program(text))
        assert run_analysis(reparsed) == run_source(self.SIMPLE).output
