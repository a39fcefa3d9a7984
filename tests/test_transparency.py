"""Tests for transparent debugging (paper §6.1): original-view queries
and original-source bug reports on transformed programs."""

import pytest

from repro.core import GadtSystem, ReferenceOracle
from repro.core.transparency import TransparencyMap
from repro.pascal import analyze_source

BUGGY = """
program g;
label 9;
var total, limit: integer;
procedure account(n: integer);
begin
  total := total + n + 1; (* bug: extra + 1 *)
  if total > limit then goto 9
end;
procedure run;
begin
  account(5);
  account(7)
end;
begin
  total := 0; limit := 100;
  run;
  writeln(total);
  9: writeln(total)
end.
"""
FIXED = BUGGY.replace(
    "total := total + n + 1; (* bug: extra + 1 *)", "total := total + n;"
)

LOOPY = """
program sums;
var total: integer;
procedure sum_to(n: integer; var total: integer);
var i: integer;
begin
  total := 0;
  for i := 1 to n do
    total := total + i * i (* bug: squares *)
end;
begin
  sum_to(4, total);
  writeln(total)
end.
"""
LOOPY_FIXED = LOOPY.replace(
    "total := total + i * i (* bug: squares *)", "total := total + i"
)


@pytest.fixture(scope="module")
def goto_system():
    return GadtSystem.from_source(BUGGY)


class TestOriginalViewQueries:
    def test_exitcond_params_hidden(self, goto_system):
        account = goto_system.trace.tree.find("account")
        names = {binding.name for binding in account.inputs + account.outputs}
        assert not any(name.startswith("exitcond") for name in names)

    def test_threaded_globals_marked_global(self, goto_system):
        account = goto_system.trace.tree.find("account")
        total_out = account.output_binding("total")
        assert total_out.is_global

    def test_goto_presented_as_result(self):
        source = BUGGY.replace("limit := 100", "limit := 6")
        system = GadtSystem.from_source(source)
        second = system.trace.tree.find("account", occurrence=2)
        assert second.via_goto == "9"
        assert "[exits via goto 9]" in second.render_head()

    def test_no_goto_no_annotation(self, goto_system):
        first = goto_system.trace.tree.find("account")
        assert first.via_goto is None
        assert "goto" not in first.render_head()


class TestBugReports:
    def test_show_bug_renders_original_routine(self, goto_system):
        oracle = ReferenceOracle(analyze_source(FIXED))
        result = goto_system.debugger(oracle).debug()
        assert result.bug_unit == "account"
        report = goto_system.show_bug(result)
        assert "total := total + n + 1" in report
        assert "exitcond" not in report  # the original form, not internal
        assert "original source of account" in report

    def test_show_bug_for_loop_unit(self):
        system = GadtSystem.from_source(LOOPY)
        from repro.transform import transform_source

        reference = transform_source(LOOPY_FIXED)
        oracle = ReferenceOracle(reference.analysis)
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "sum_to$for1"
        report = system.show_bug(result)
        assert "for i := 1 to n do" in report
        assert "total := total + i * i" in report

    def test_show_bug_without_result(self, goto_system):
        from repro.core.algorithmic import DebugResult
        from repro.core.session import Session

        empty = DebugResult(bug_node=None, session=Session())
        assert goto_system.show_bug(empty) == "no bug was localized"


class TestTransparencyMap:
    def test_original_routine_decl(self, goto_system):
        tmap = TransparencyMap(goto_system.transformed)
        decl = tmap.original_routine_decl("account")
        assert decl is not None
        assert len(decl.params) == 1  # only the user's parameter

    def test_unknown_routine_none(self, goto_system):
        tmap = TransparencyMap(goto_system.transformed)
        assert tmap.original_routine_decl("ghost") is None

    def test_main_program_source(self, goto_system):
        tmap = TransparencyMap(goto_system.transformed)
        source = tmap.unit_source(goto_system.trace.tree.root)
        assert source.kind == "program"
        assert "program g;" in source.source


class TestExitAwareOracle:
    def test_wrong_goto_behaviour_detected(self):
        # Bug purely in control flow: the goto fires when it should not.
        buggy = """
        program g;
        label 9;
        var hits: integer;
        procedure probe(n: integer);
        begin
          hits := hits + 1;
          if n > 1 then goto 9 (* bug: should be n > 2 *)
        end;
        begin
          hits := 0;
          probe(2);
          probe(3);
          9: writeln(hits)
        end.
        """
        fixed = buggy.replace(
            "if n > 1 then goto 9 (* bug: should be n > 2 *)",
            "if n > 2 then goto 9",
        )
        system = GadtSystem.from_source(buggy)
        oracle = ReferenceOracle(analyze_source(fixed))
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "probe"

    def test_isolated_call_reports_goto(self):
        from repro.pascal.interpreter import Interpreter

        analysis = analyze_source(
            """
            program t;
            label 9;
            procedure jumper;
            begin goto 9 end;
            begin jumper; 9: end.
            """
        )
        outcome = Interpreter(analysis).call_routine_by_name("jumper", [])
        assert outcome.via_goto == "9"
