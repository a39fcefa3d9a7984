"""Tests for the interpreter hook protocol and input-driven debugging."""

import pytest

from repro.core import AlgorithmicDebugger, GadtSystem, ReferenceOracle
from repro.pascal import analyze_source
from repro.pascal.interpreter import ExecutionHooks, Interpreter, PascalIO
from repro.tracing import trace_source


class Recorder(ExecutionHooks):
    def __init__(self):
        self.events: list[tuple] = []

    def enter_routine(self, call, info, frame):
        self.events.append(("enter", info.name))

    def exit_routine(self, info, frame, via_goto):
        self.events.append(("exit", info.name, via_goto))

    def loop_enter(self, stmt, frame):
        self.events.append(("loop_enter",))

    def loop_iteration(self, stmt, frame, iteration):
        self.events.append(("iter", iteration))

    def loop_exit(self, stmt, frame, iterations):
        self.events.append(("loop_exit", iterations))

    def cell_write(self, cell, index, value):
        self.events.append(("write", index, value))

    def io_write(self, text):
        self.events.append(("io", text))


class TestHookProtocol:
    def run(self, source, inputs=None):
        analysis = analyze_source(source)
        recorder = Recorder()
        Interpreter(analysis, io=PascalIO(inputs), hooks=recorder).run()
        return recorder.events

    def test_routine_events_nest(self):
        events = self.run(
            "program t; procedure inner; begin end; "
            "procedure outer; begin inner end; begin outer end."
        )
        names = [event for event in events if event[0] in ("enter", "exit")]
        assert names == [
            ("enter", "t"),
            ("enter", "outer"),
            ("enter", "inner"),
            ("exit", "inner", None),
            ("exit", "outer", None),
            ("exit", "t", None),
        ]

    def test_loop_events_counted(self):
        events = self.run(
            "program t; var i: integer; begin for i := 1 to 3 do i := i end."
        )
        iterations = [event[1] for event in events if event[0] == "iter"]
        assert iterations == [1, 2, 3]
        assert ("loop_exit", 3) in events

    def test_io_events(self):
        events = self.run("program t; begin write(1); writeln(2) end.")
        io_chunks = [event[1] for event in events if event[0] == "io"]
        assert io_chunks == ["1", "2", "\n"]

    def test_goto_exit_reported(self):
        events = self.run(
            """
            program t;
            label 9;
            procedure jump;
            begin goto 9 end;
            begin jump; 9: end.
            """
        )
        assert ("exit", "jump", next(
            event[2] for event in events if event[0] == "exit" and event[1] == "jump"
        )) in events
        goto_exits = [
            event for event in events if event[0] == "exit" and event[1] == "jump"
        ]
        assert goto_exits[0][2] is not None
        assert goto_exits[0][2].name == "9"


INPUT_DRIVEN = """
program t;
var n, r: integer;
function process(x: integer): integer;
begin
  process := x * x + 1 (* bug: + 1 *)
end;
begin
  read(n);
  r := process(n);
  writeln(r)
end.
"""
INPUT_FIXED = INPUT_DRIVEN.replace("x * x + 1 (* bug: + 1 *)", "x * x")


class TestInputDrivenDebugging:
    def test_trace_with_inputs(self):
        trace = trace_source(INPUT_DRIVEN, inputs=[7])
        node = trace.tree.find("process")
        assert node.input_binding("x").value == 7

    def test_debugging_with_matching_reference_inputs(self):
        system = GadtSystem.from_source(INPUT_DRIVEN, program_inputs=[7])
        oracle = ReferenceOracle(
            analyze_source(INPUT_FIXED), program_inputs=[7]
        )
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "process"

    def test_different_inputs_still_work_via_isolation(self):
        # The reference ran on other inputs: the memoized tree misses,
        # the isolated-call fallback still answers.
        system = GadtSystem.from_source(INPUT_DRIVEN, program_inputs=[9])
        oracle = ReferenceOracle(
            analyze_source(INPUT_FIXED), program_inputs=[3]
        )
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "process"


class TestCliExitCodes:
    def test_debug_exit_zero_on_localization(self, tmp_path):
        from repro.cli import main

        buggy = tmp_path / "b.pas"
        buggy.write_text(INPUT_DRIVEN)
        fixed = tmp_path / "f.pas"
        fixed.write_text(INPUT_FIXED)
        code = main(
            [
                "debug",
                str(buggy),
                "--reference",
                str(fixed),
                "--quiet",
                "--input",
                "7",
            ]
        )
        assert code == 0
