"""Tests for the performance layer: content-addressed caches, the
null-hook interpreter fast path, and the compact dependence graph."""

from repro.cache import cache_stats, clear_caches, set_enabled, source_key
from repro.core import GadtSystem
from repro.pascal import ExecutionHooks, Interpreter, analyze_source, run_source
from repro.pascal.interpreter import Frame
from repro.tracing.dynamic_deps import DynamicDependenceGraph, Occurrence
from repro.tracing.execution_tree import Binding, BindingMode, ExecNode, NodeKind
from repro.transform import transform_source

SOURCE = """
program p;
var total, i: integer;
function double(x: integer): integer;
begin double := x * 2 end;
begin
  total := 0;
  for i := 1 to 5 do total := total + double(i);
  writeln(total)
end.
"""


class TestAnalysisCache:
    def test_identical_source_returns_same_object(self):
        first = analyze_source(SOURCE)
        second = analyze_source(SOURCE)
        assert first is second

    def test_any_edit_returns_fresh_analysis(self):
        first = analyze_source(SOURCE)
        edited = SOURCE.replace("x * 2", "x * 3")
        assert analyze_source(edited) is not first

    def test_whitespace_edit_is_an_edit(self):
        first = analyze_source(SOURCE)
        assert analyze_source(SOURCE + " ") is not first

    def test_cached_false_forces_rebuild(self):
        first = analyze_source(SOURCE)
        assert analyze_source(SOURCE, cached=False) is not first

    def test_disable_bypasses_cache(self):
        first = analyze_source(SOURCE)
        set_enabled(False)
        try:
            assert analyze_source(SOURCE) is not first
        finally:
            set_enabled(True)

    def test_clear_caches_drops_entries(self):
        first = analyze_source(SOURCE)
        clear_caches()
        assert analyze_source(SOURCE) is not first

    def test_stats_report_hits(self):
        clear_caches()
        analyze_source(SOURCE)
        analyze_source(SOURCE)
        stats = cache_stats()["analysis"]
        assert stats["entries"] >= 1
        assert stats["hits"] >= 1

    def test_source_key_distinguishes_options(self):
        assert source_key("x") != source_key("y")


class TestTransformCache:
    def test_identical_source_returns_same_transform(self):
        assert transform_source(SOURCE) is transform_source(SOURCE)

    def test_gadt_system_shares_cached_transform(self):
        first = GadtSystem.from_source(SOURCE)
        second = GadtSystem.from_source(SOURCE)
        assert first.transformed is second.transformed
        # the trace carries per-run state and must stay per-instance
        assert first.trace is not second.trace

    def test_cached_transform_produces_working_sessions(self):
        from repro.core import ReferenceOracle

        buggy = SOURCE.replace("x * 2", "x + 2")
        system = GadtSystem.from_source(buggy)
        oracle = ReferenceOracle.from_source(SOURCE)
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "double"


class TestNullHookFastPath:
    """An unobserved run (no hooks) and an observed one take the same
    statement dispatch and agree on output and step count."""

    def test_fast_and_traced_paths_agree(self):
        class Counter(ExecutionHooks):
            def __init__(self):
                self.statements = 0

            def before_stmt(self, stmt, frame):
                self.statements += 1

        counter = Counter()
        analysis = analyze_source(SOURCE)
        fast = Interpreter(analysis).run()
        traced_interp = Interpreter(analysis, hooks=counter)
        traced = traced_interp.run()
        assert fast.output == traced.output == "30\n"
        assert fast.steps == traced.steps
        assert counter.statements > 0

    def test_run_source_matches_traced_output(self):
        from repro.tracing import trace_source

        assert run_source(SOURCE).output == trace_source(SOURCE).execution.output


class TestCompactStructures:
    def test_hot_objects_have_no_instance_dict(self):
        occ = Occurrence(1, 2, 3, 4)
        node = ExecNode(kind=NodeKind.CALL, unit_name="u")
        frame = Frame(routine=analyze_source(SOURCE).main)
        binding = Binding("x", BindingMode.IN, 1)
        for hot in (occ, node, frame, binding):
            assert not hasattr(hot, "__dict__"), type(hot).__name__

    def test_backward_slice_matches_reference_closure(self):
        graph = DynamicDependenceGraph()
        for occ_id in range(1, 8):
            graph.new_occurrence(None, 0, occ_id)
        edges = [(2, 1), (3, 2), (5, 4), (6, 5), (6, 1), (7, 6)]
        for src, dst in edges:
            graph.add_dep(src, dst)

        def reference_closure(seeds):
            dep_map = {}
            for src, dst in edges:
                dep_map.setdefault(src, set()).add(dst)
            visited = set(seeds)
            stack = list(seeds)
            while stack:
                for dep in dep_map.get(stack.pop(), ()):
                    if dep not in visited:
                        visited.add(dep)
                        stack.append(dep)
            return visited

        for seeds in ({3}, {7}, {3, 7}, {1}, set()):
            assert graph.backward_slice(seeds) == reference_closure(seeds)

    def test_duplicate_edges_not_stored(self):
        graph = DynamicDependenceGraph()
        graph.new_occurrence(None, 0, 1)
        graph.new_occurrence(None, 0, 2)
        graph.add_dep(2, 1)
        graph.add_dep(2, 1)
        assert graph.deps_of(2) == [1]
        assert graph.edge_count() == 1

    def test_out_of_range_seeds_are_kept_but_not_walked(self):
        graph = DynamicDependenceGraph()
        graph.new_occurrence(None, 0, 1)
        assert graph.backward_slice({1, 99}) == {1, 99}
