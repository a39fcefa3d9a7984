"""End-to-end reproduction of every figure and example in the paper.

Each test corresponds to a row of the experiment index in DESIGN.md.
"""

import pytest

from repro.core import (
    AlgorithmicDebugger,
    Answer,
    GadtSystem,
    ReferenceOracle,
    ScriptedOracle,
)
from repro.pascal import analyze_source, print_program
from repro.slicing import DynamicCriterion, StaticCriterion, prune_tree, static_slice
from repro.tgen import (
    CaseRunner,
    TestCaseLookup,
    frames_by_script,
    generate_frames,
    instantiate_cases,
)
from repro.tracing import trace_source
from repro.workloads import (
    FIGURE2_SOURCE,
    FIGURE4_FIXED_SOURCE,
    FIGURE4_SOURCE,
    SECTION3_SOURCE,
)
from repro.workloads.arrsum_spec import (
    arrsum_frame_selector,
    arrsum_spec,
    make_arrsum_instantiator,
)
from repro.workloads.paper_programs import SECTION3_FIXED_SOURCE


class TestFigure1:
    """T-GEN specification for arrsum: frames and scripts."""

    def test_script_1_frames(self):
        spec = arrsum_spec()
        frames = generate_frames(spec)
        by_script = frames_by_script(spec, frames)
        assert {frame.render() for frame in by_script["script_1"]} == {
            "(more, mixed, large)",
            "(more, mixed, average)",
        }

    def test_single_choices_generate_one_frame(self):
        frames = generate_frames(arrsum_spec())
        for single in ("zero", "one"):
            matching = [f for f in frames if f.choices[0] == single]
            assert len(matching) == 1


class TestFigure2:
    """Static slice of program p on variable mul."""

    def test_slice_keeps_paper_statements(self, figure2_analysis):
        computed = static_slice(
            figure2_analysis, StaticCriterion.at_routine_exit("p", "mul")
        )
        text = print_program(computed.extract_program())
        for required in ("read(x, y)", "mul := 0", "if x <= 1 then", "mul := x * y"):
            assert required in text
        for dropped in ("sum := 0", "sum := x + y", "read(z)"):
            assert dropped not in text

    def test_slice_drops_unused_declarations(self, figure2_analysis):
        computed = static_slice(
            figure2_analysis, StaticCriterion.at_routine_exit("p", "mul")
        )
        program = computed.extract_program()
        names = [decl.name for decl in program.block.variables]
        assert sorted(names) == ["mul", "x", "y"]


class TestSection3:
    """The P/Q/R dialogue."""

    def test_dialogue(self):
        trace = trace_source(SECTION3_SOURCE)
        oracle = ScriptedOracle(
            script=[
                ("p", Answer.no()),
                ("q", Answer.yes()),
                ("r", Answer.no()),
            ]
        )
        result = AlgorithmicDebugger(trace, oracle).debug()
        assert result.bug_unit == "r"
        assert result.user_questions == 3


class TestFigure7:
    """Execution tree of the Figure 4 program."""

    EXPECTED = """\
Main
  sqrtest(In ary: [1,2], In n: 2, Out isok: false)
    arrsum(In a: [1,2], In n: 2, Out b: 3)
    computs(In y: 3, Out r1: 12, Out r2: 9)
      comput1(In y: 3, Out r1: 12)
        partialsums(In y: 3, Out s1: 6, Out s2: 6)
          sum1(In y: 3, Out s1: 6)
            increment(In y: 3)=4
          sum2(In y: 3, Out s2: 6)
            decrement(In y: 3)=4
        add(In s1: 6, In s2: 6, Out r1: 12)
      comput2(In y: 3, Out r2: 9)
        square(In y: 3, Out r2: 9)
    test(In r1: 12, In r2: 9, Out isok: false)
"""

    def test_tree_renders_exactly(self, figure4_trace):
        assert figure4_trace.tree.render() == self.EXPECTED

    def test_program_produces_false(self):
        from repro.pascal import run_source

        assert run_source(FIGURE4_SOURCE).output == "false\n"
        assert run_source(FIGURE4_FIXED_SOURCE).output == "true\n"


class TestFigure8:
    """Execution tree after slicing on computs' first output."""

    EXPECTED = """\
computs(In y: 3, Out r1: 12, Out r2: 9)
  comput1(In y: 3, Out r1: 12)
    partialsums(In y: 3, Out s1: 6, Out s2: 6)
      sum1(In y: 3, Out s1: 6)
        increment(In y: 3)=4
      sum2(In y: 3, Out s2: 6)
        decrement(In y: 3)=4
    add(In s1: 6, In s2: 6, Out r1: 12)
"""

    def test_pruned_tree_renders_exactly(self, figure4_trace):
        computs = figure4_trace.tree.find("computs")
        view = prune_tree(
            figure4_trace, DynamicCriterion.output_position(computs, 1)
        )
        assert view.render() == self.EXPECTED


class TestFigure9:
    """Execution tree after slicing on partialsums' second output."""

    EXPECTED = """\
partialsums(In y: 3, Out s1: 6, Out s2: 6)
  sum2(In y: 3, Out s2: 6)
    decrement(In y: 3)=4
"""

    def test_pruned_tree_renders_exactly(self, figure4_trace):
        partialsums = figure4_trace.tree.find("partialsums")
        view = prune_tree(
            figure4_trace, DynamicCriterion.output_position(partialsums, 2)
        )
        assert view.render() == self.EXPECTED


class TestSection8:
    """The complete GADT session: 6 user questions, 2 slices, bug found."""

    def test_full_session(self):
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        spec = arrsum_spec()
        frames = generate_frames(spec)
        cases = instantiate_cases(spec, frames, make_arrsum_instantiator(2))
        database = CaseRunner(system.analysis).run_all(cases)
        lookup = TestCaseLookup(database=database)
        lookup.register(spec, arrsum_frame_selector)

        oracle = ScriptedOracle(
            script=[
                ("sqrtest", Answer.no()),
                ("computs", Answer.no_error_on(position=1)),
                ("comput1", Answer.no()),
                ("partialsums", Answer.no_error_on(position=2)),
                ("sum2", Answer.no()),
                ("decrement", Answer.no()),
            ]
        )
        result = system.debugger(oracle, test_lookup=lookup).debug()
        assert result.bug_unit == "decrement"
        assert result.user_questions == 6
        assert result.auto_answers == 1  # arrsum via the test database
        assert result.slices == 2
        assert oracle.exhausted


class TestSection9:
    """Implementation-status claims."""

    def test_growth_factor_under_two_for_typical_procedures(self):
        source = """
        program bank;
        var balance, rate: integer;
        procedure deposit(amount: integer);
        begin balance := balance + amount end;
        procedure accrue;
        begin balance := balance + balance * rate div 100 end;
        begin
          balance := 100; rate := 5;
          deposit(50); accrue;
          writeln(balance)
        end.
        """
        from repro.transform import transform_source

        transformed = transform_source(source)
        factors = transformed.routine_growth_factors()
        assert factors and all(factor < 2.0 for factor in factors.values())

    def test_section3_reference(self):
        trace = trace_source(SECTION3_SOURCE)
        oracle = ReferenceOracle(analyze_source(SECTION3_FIXED_SOURCE))
        result = AlgorithmicDebugger(trace, oracle).debug()
        assert result.bug_unit == "r"
