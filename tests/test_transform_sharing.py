"""Copy-on-write passes: what the transform passes share, and what not.

Each goto pass returns, as the same object, every statement, expression
and routine it does not rewrite, and copies only rewritten nodes and
their ancestors. These tests check, over the fixed hosts, the
``tests/corpus`` programs and corpus seeds 0-39, that the sharing stays
safe:

* the pipeline leaves the user's analysis and every node of the user's
  program as they were;
* no pass output holds a node object or a node id twice;
* the transformed program shares no node with the user's, and its
  source map takes each of its nodes to a node of the user's program or
  marks it synthesized;
* a goto pass returns a routine it leaves as it was as the same object.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.pascal import ast_nodes as ast
from repro.pascal.pretty import print_routine
from repro.pascal.semantics import analyze_source
from repro.tgen.corpus import generate_program
from repro.transform.pipeline import transform_program
from tests.canonical_forms import canonical
from tests.test_mutant_patch import HOSTS
from tests.test_pass_shortcuts import recorded_passes

CORPUS_DIR = Path(__file__).parent / "corpus"

PROGRAMS = {
    **HOSTS,
    **{path.stem: path.read_text() for path in sorted(CORPUS_DIR.glob("*.pas"))},
    **{f"seed{seed}": generate_program(seed) for seed in range(40)},
}


def node_fields(program: ast.Program) -> list[tuple]:
    """Every node of ``program`` in pre-order: its object, id, location
    and fields, with each child given by object and id."""

    def field(value):
        if isinstance(value, ast.Node):
            return (id(value), value.node_id)
        if isinstance(value, list):
            return tuple(field(item) for item in value)
        return value

    return [
        (
            id(node),
            type(node).__name__,
            node.node_id,
            node.location,
            tuple(field(getattr(node, name)) for name in ast.child_fields(type(node))),
        )
        for node in program.walk()
    ]


def assert_each_node_once(program: ast.Program) -> None:
    nodes = list(program.walk())
    objects = Counter(id(node) for node in nodes)
    ids = Counter(node.node_id for node in nodes)
    assert max(objects.values()) == 1, "a node object appears twice"
    assert max(ids.values()) == 1, "a node id appears twice"


def transform_recorded(source: str):
    """The user's analysis, its transform and every goto pass's
    (name, analysis, result), in order."""
    analysis = analyze_source(source, cached=False)
    with recorded_passes() as calls:
        transformed = transform_program(analysis)
    return analysis, transformed, calls


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_sharing_invariants(name):
    analysis = analyze_source(PROGRAMS[name], cached=False)
    before, fields = canonical(analysis), node_fields(analysis.program)
    with recorded_passes() as calls:
        transformed = transform_program(analysis)

    # the user's analysis and program are untouched
    assert canonical(analysis) == before
    assert node_fields(analysis.program) == fields

    for _name, _analysis, result in calls:
        assert_each_node_once(result.program)
    assert_each_node_once(transformed.program)

    # the transformed program shares nothing with the user's, and maps
    # back to it
    user_nodes = list(analysis.program.walk())
    user_objects = {id(node) for node in user_nodes}
    user_ids = {node.node_id for node in user_nodes}
    source_map = transformed.source_map
    for node in transformed.program.walk():
        assert id(node) not in user_objects
        assert node.node_id not in user_ids
        original = source_map.original_id(node.node_id)
        assert (original in user_ids) != source_map.is_synthesized(node.node_id), node


def untouched_routines(calls) -> tuple[int, list[str]]:
    """How many routines the goto passes that rewrote something left as
    they were, and the names of those among them returned as copies."""
    kept, copied = 0, []
    for name, analysis, result in calls:
        if result.program is analysis.program:
            continue
        before = list(ast.iter_routines(analysis.program))
        after = list(ast.iter_routines(result.program))
        assert len(before) == len(after)
        for old, new in zip(before, after):
            if print_routine(old) == print_routine(new):
                kept += 1
                if new is not old:
                    copied.append(f"{name}: {old.name}")
    return kept, copied


def test_goto_passes_return_untouched_routines_as_they_are():
    kept = 0
    for source in PROGRAMS.values():
        _analysis, _transformed, calls = transform_recorded(source)
        count, copied = untouched_routines(calls)
        assert not copied
        kept += count
    assert kept > 0


def test_a_routine_without_gotos_is_shared_by_the_goto_passes():
    source = """
    program t;
    label 9;
    var total: integer;
    procedure plain(n: integer);
    begin
      total := total + n
    end;
    procedure bump(n: integer);
    begin
      total := total + n;
      if total > 10 then goto 9
    end;
    begin
      total := 0;
      plain(1); bump(4); bump(5); bump(6);
      9: writeln(total)
    end.
    """
    analysis, _transformed, calls = transform_recorded(source)
    plain = analysis.program.block.routines[0]
    rewrote = [result for _, given, result in calls if result.program is not given.program]
    assert rewrote
    for result in rewrote:
        assert result.program.block.routines[0] is plain
