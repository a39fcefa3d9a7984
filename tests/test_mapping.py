"""Unit tests for the original↔transformed source map."""

from repro.pascal import ast_nodes as ast
from repro.pascal.parser import parse_program
from repro.transform.mapping import SourceMap


def nodes_of(source: str):
    return list(parse_program(source).walk())


class TestBasics:
    def test_record_and_lookup(self):
        a = ast.IntLiteral(value=1)
        b = ast.IntLiteral(value=1)
        source_map = SourceMap()
        source_map.record(b, a)
        assert source_map.original_id(b.node_id) == a.node_id
        assert source_map.original_id(a.node_id) is None

    def test_synthesized(self):
        node = ast.IntLiteral(value=0)
        source_map = SourceMap()
        source_map.record_synthesized(node)
        assert source_map.is_synthesized(node.node_id)
        assert source_map.original_id(node.node_id) is None


class TestComposition:
    def test_chain_composes(self):
        original = ast.IntLiteral(value=1)
        middle = ast.IntLiteral(value=1)
        final = ast.IntLiteral(value=1)
        first = SourceMap()
        first.record(middle, original)
        second = SourceMap()
        second.record(final, middle)
        combined = second.compose(first)
        assert combined.original_id(final.node_id) == original.node_id

    def test_synthesized_mid_node_stays_synthesized(self):
        middle = ast.IntLiteral(value=0)
        final = ast.IntLiteral(value=0)
        first = SourceMap()
        first.record_synthesized(middle)
        second = SourceMap()
        second.record(final, middle)
        combined = second.compose(first)
        assert combined.is_synthesized(final.node_id)
        assert combined.original_id(final.node_id) is None

    def test_unknown_mid_id_treated_as_synthesized(self):
        ghost = ast.IntLiteral(value=0)  # never recorded in the first map
        final = ast.IntLiteral(value=0)
        first = SourceMap()
        second = SourceMap()
        second.record(final, ghost)
        combined = second.compose(first)
        assert combined.is_synthesized(final.node_id)

    def test_new_synthesized_survive_composition(self):
        fresh = ast.IntLiteral(value=0)
        first = SourceMap()
        second = SourceMap()
        second.record_synthesized(fresh)
        combined = second.compose(first)
        assert combined.is_synthesized(fresh.node_id)


class TestPipelineTotality:
    def test_every_transformed_node_is_mapped_or_synthesized(self):
        """The pipeline's composed map must classify every node."""
        from repro.transform import transform_source

        source = """
        program t;
        label 9;
        var total: integer;
        procedure bump(n: integer);
        begin
          total := total + n;
          if total > 10 then goto 9
        end;
        begin
          total := 0;
          bump(4); bump(5); bump(6);
          9: writeln(total)
        end.
        """
        transformed = transform_source(source)
        original_ids = {
            node.node_id for node in transformed.original_analysis.program.walk()
        }
        for node in transformed.program.walk():
            original = transformed.source_map.original_id(node.node_id)
            synthesized = transformed.source_map.is_synthesized(node.node_id)
            assert original is not None or synthesized, node
            if original is not None:
                assert original in original_ids

    def test_instrumented_map_also_total(self):
        from repro.transform import transform_source

        transformed = transform_source(
            "program t; var i, s: integer; "
            "begin s := 0; for i := 1 to 3 do s := s + i; writeln(s) end."
        )
        instrumented = transformed.instrumented
        original_ids = {
            node.node_id for node in transformed.original_analysis.program.walk()
        }
        for node in instrumented.program.walk():
            original = instrumented.source_map.original_id(node.node_id)
            synthesized = instrumented.source_map.is_synthesized(node.node_id)
            assert original is not None or synthesized
            if original is not None:
                assert original in original_ids
