"""Unit tests for the tracing phase."""

import pytest

from repro import cache
from repro.compile import BACKENDS
from repro.core import GadtSystem, ReferenceOracle
from repro.pascal.semantics import analyze_source
from repro.tracing import trace_source
from repro.tracing.execution_tree import BindingMode, NodeKind
from repro.tracing.tracer import trace_program
from repro.transform import transform_source
from tests.canonical_forms import trace_form


def trace(source: str, inputs=None):
    return trace_source(source, inputs=inputs)


class TestTreeShape:
    def test_single_call(self):
        result = trace(
            """
            program t;
            var x: integer;
            procedure p(a: integer; var b: integer);
            begin b := a + 1 end;
            begin p(1, x); writeln(x) end.
            """
        )
        root = result.tree.root
        assert root.kind is NodeKind.MAIN
        assert [child.unit_name for child in root.children] == ["p"]

    def test_nested_calls(self):
        result = trace(
            """
            program t;
            var x: integer;
            function inner(v: integer): integer;
            begin inner := v * 2 end;
            procedure outer(a: integer; var b: integer);
            begin b := inner(a) + inner(a + 1) end;
            begin outer(3, x) end.
            """
        )
        outer = result.tree.find("outer")
        assert [child.unit_name for child in outer.children] == ["inner", "inner"]

    def test_recursive_calls_nest(self):
        result = trace(
            """
            program t;
            function fact(n: integer): integer;
            begin
              if n <= 1 then fact := 1 else fact := n * fact(n - 1)
            end;
            begin writeln(fact(3)) end.
            """
        )
        outer = result.tree.find("fact")
        assert outer.input_binding("n").value == 3
        middle = outer.children[0]
        assert middle.input_binding("n").value == 2
        assert middle.children[0].input_binding("n").value == 1

    def test_call_count_matches_activations(self):
        result = trace(
            """
            program t;
            var i, s: integer;
            procedure bump(var x: integer);
            begin x := x + 1 end;
            begin s := 0; for i := 1 to 4 do bump(s); writeln(s) end.
            """
        )
        bumps = [n for n in result.tree.walk() if n.unit_name == "bump"]
        assert len(bumps) == 4


class TestBindings:
    def test_value_param_in_binding(self):
        result = trace(
            """
            program t;
            var x: integer;
            procedure p(a: integer; var b: integer);
            begin b := a end;
            begin p(7, x) end.
            """
        )
        node = result.tree.find("p")
        assert node.input_binding("a").value == 7
        assert node.output_binding("b").value == 7

    def test_write_only_var_param_has_no_in_binding(self):
        result = trace(
            """
            program t;
            var x: integer;
            procedure p(var b: integer);
            begin b := 1 end;
            begin p(x) end.
            """
        )
        node = result.tree.find("p")
        assert [binding.name for binding in node.inputs] == []

    def test_read_write_var_param_has_both(self):
        result = trace(
            """
            program t;
            var x: integer;
            procedure p(var b: integer);
            begin b := b * 2 end;
            begin x := 5; p(x) end.
            """
        )
        node = result.tree.find("p")
        assert node.input_binding("b").value == 5
        assert node.output_binding("b").value == 10

    def test_function_result_binding(self):
        result = trace(
            """
            program t;
            function f(x: integer): integer;
            begin f := x + 1 end;
            begin writeln(f(1)) end.
            """
        )
        node = result.tree.find("f")
        result_binding = node.outputs[-1]
        assert result_binding.mode is BindingMode.RESULT
        assert result_binding.value == 2

    def test_global_read_binding(self):
        result = trace(
            """
            program t;
            var g, x: integer;
            procedure p(var b: integer);
            begin b := g end;
            begin g := 9; p(x) end.
            """
        )
        node = result.tree.find("p")
        g_binding = node.input_binding("g")
        assert g_binding.is_global and g_binding.value == 9

    def test_global_write_binding(self):
        result = trace(
            """
            program t;
            var g: integer;
            procedure p;
            begin g := 5 end;
            begin p; writeln(g) end.
            """
        )
        node = result.tree.find("p")
        assert node.output_binding("g").value == 5

    def test_array_bindings_snapshot(self):
        result = trace(
            """
            program t;
            type arr = array[1..2] of integer;
            var a: arr;
            procedure p(v: arr; var w: arr);
            begin w[1] := v[1] + v[2]; w[2] := 0 end;
            begin a := [1, 2]; p(a, a) end.
            """
        )
        node = result.tree.find("p")
        from repro.pascal.values import ArrayValue

        assert node.input_binding("v").value == ArrayValue.from_values([1, 2])
        assert node.output_binding("w").value == ArrayValue.from_values([3, 0])


class TestGotoExit:
    def test_via_goto_recorded(self):
        result = trace(
            """
            program t;
            label 9;
            procedure jumper;
            begin goto 9 end;
            begin jumper; 9: writeln(1) end.
            """
        )
        node = result.tree.find("jumper")
        assert node.via_goto == "9"

    def test_normal_exit_has_no_goto(self):
        result = trace(
            """
            program t;
            procedure quiet;
            begin end;
            begin quiet end.
            """
        )
        assert result.tree.find("quiet").via_goto is None


class TestLoopUnits:
    def source(self):
        return """
        program t;
        var n, s: integer;
        begin
          n := 3; s := 0;
          while n > 0 do begin s := s + n; n := n - 1 end;
          writeln(s)
        end.
        """

    def trace_with_units(self):
        return trace_program(transform_source(self.source()).analysis)

    def test_loop_node_created(self):
        result = self.trace_with_units()
        loop = result.tree.find("t$while1")
        assert loop.kind is NodeKind.LOOP
        assert loop.input_binding("n").value == 3
        assert loop.output_binding("s").value == 6

    def test_iteration_nodes(self):
        result = self.trace_with_units()
        loop = result.tree.find("t$while1")
        iterations = [c for c in loop.children if c.kind is NodeKind.ITERATION]
        assert [node.iteration for node in iterations] == [1, 2, 3]
        assert iterations[0].input_binding("n").value == 3
        assert iterations[0].output_binding("s").value == 3
        assert iterations[2].output_binding("s").value == 6

    def test_untraced_loops_invisible(self):
        result = trace(self.source())  # no unit registry
        assert all(node.kind is not NodeKind.LOOP for node in result.tree.walk())

    def test_call_inside_loop_nests_under_iteration(self):
        source = """
        program t;
        var i, s: integer;
        procedure bump(var x: integer);
        begin x := x + 1 end;
        begin
          s := 0;
          for i := 1 to 2 do bump(s);
          writeln(s)
        end.
        """
        result = trace_program(transform_source(source).analysis)
        loop = result.tree.find("t$for1")
        first_iteration = loop.children[0]
        assert first_iteration.kind is NodeKind.ITERATION
        assert [c.unit_name for c in first_iteration.children] == ["bump"]


class TestTransformedAnalysisAlone:
    """A transformed analysis carries everything its trace records: the
    side effects, the user's view and the loop units."""

    SOURCE = """
    program t;
    var n, s: integer;
    procedure add(k: integer);
    begin s := s + k end;
    begin
      n := 3; s := 0;
      while n > 0 do begin add(n); n := n - 1 end;
      writeln(s)
    end.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_analysis_alone_traces_as_the_debugger_does(self, backend):
        analysis = transform_source(self.SOURCE).analysis
        alone = trace_program(analysis, backend=backend)
        system = GadtSystem.from_source(self.SOURCE, backend=backend)
        assert system.analysis is analysis
        kinds = [node.kind for node in alone.tree.walk()]
        assert NodeKind.LOOP in kinds and NodeKind.ITERATION in kinds
        assert trace_form(alone, analysis) == trace_form(system.trace, analysis)

    def test_a_program_and_its_reference_share_one_traced_compile(self):
        compile_cache = cache.register("compile")
        cache.clear_caches()
        GadtSystem.from_source(self.SOURCE, backend="compiled")
        hits = compile_cache.hits
        ReferenceOracle.from_source(self.SOURCE, backend="compiled")
        assert len(compile_cache) == 1
        assert compile_cache.hits == hits + 1


class TestOutputWriters:
    def test_every_output_has_writers(self, figure4_trace):
        tree = figure4_trace.tree
        for node in tree.walk():
            for binding in node.outputs:
                key = (node.node_id, binding.name)
                assert key in tree.output_writers, (node.unit_name, binding.name)
                assert tree.output_writers[key], (node.unit_name, binding.name)

    def test_occurrences_owned_by_nodes(self, figure4_trace):
        tree = figure4_trace.tree
        ddg = figure4_trace.dependence_graph
        assert len(ddg) > 0
        for occ_id in ddg.occurrences:
            assert occ_id in tree.occurrence_owner
