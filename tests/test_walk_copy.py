"""Regression tests for the iterative AST walk and the one-pass copy.

``Node.walk`` and ``iter_statements`` are explicit-stack pre-order
walks, and ``Rewriter.copy`` records the source map while cloning. All
three are checked against the recursive code they replaced, kept here
as the reference.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.pascal import ast_nodes as ast
from repro.pascal.pretty import print_program
from repro.pascal.semantics import analyze_source
from repro.tgen.corpus import generate_program
from repro.transform import transform_source
from repro.transform.pipeline import transform_program
from repro.transform.rewriter import Rewriter
from repro.workloads import FIGURE2_SOURCE, FIGURE4_SOURCE, SECTION3_SOURCE

CORPUS_SEEDS = range(200)

#: disjoint id ranges far above any id the session draws, one per
#: pair of runs that must draw equal ids
_ID_RANGES = itertools.count(10**12, 10**7)


def reference_children(node):
    for f in dataclasses.fields(node):
        if f.name in ("location", "node_id"):
            continue
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def reference_walk(node):
    """The former recursive-generator pre-order walk."""
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


def reference_clone(node):
    """The former clone: no id map, so the caller walks both trees."""
    if not isinstance(node, ast.Node):
        return node
    kwargs = {"location": node.location}
    for f in dataclasses.fields(node):
        if f.name in ("location", "node_id"):
            continue
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            kwargs[f.name] = reference_clone(value)
        elif isinstance(value, list):
            kwargs[f.name] = [reference_clone(item) for item in value]
        else:
            kwargs[f.name] = value
    return type(node)(**kwargs)


def reference_copy(self, node):
    """The former ``Rewriter.copy``: clone, then zip two walks."""
    if node is None:
        return None
    new_node = reference_clone(node)
    for original_sub, new_sub in zip(reference_walk(node), reference_walk(new_node)):
        self.source_map.record(new_sub, original_sub)
    return new_node


def reference_iter_statements(stmt):
    """The former recursive statement walk."""
    yield stmt
    if isinstance(stmt, ast.Compound):
        for child in stmt.statements:
            yield from reference_iter_statements(child)
    elif isinstance(stmt, ast.If):
        yield from reference_iter_statements(stmt.then_branch)
        if stmt.else_branch is not None:
            yield from reference_iter_statements(stmt.else_branch)
    elif isinstance(stmt, ast.While):
        yield from reference_iter_statements(stmt.body)
    elif isinstance(stmt, ast.Repeat):
        for child in stmt.body:
            yield from reference_iter_statements(child)
    elif isinstance(stmt, ast.For):
        yield from reference_iter_statements(stmt.body)


def _same_walk(program: ast.Program) -> None:
    assert [id(n) for n in program.walk()] == [id(n) for n in reference_walk(program)]
    bodies = [program.block.body]
    bodies += [routine.block.body for routine in ast.iter_routines(program)]
    for body in bodies:
        assert [id(s) for s in ast.iter_statements(body)] == [
            id(s) for s in reference_iter_statements(body)
        ]


class TestWalk:
    def test_single_node(self):
        node = ast.IntLiteral(value=1)
        assert list(node.walk()) == [node]
        stmt = ast.EmptyStmt()
        assert list(ast.iter_statements(stmt)) == [stmt]

    def test_paper_programs(self):
        for source in (FIGURE2_SOURCE, FIGURE4_SOURCE, SECTION3_SOURCE):
            _same_walk(analyze_source(source).program)

    def test_corpus_before_and_after_transform(self):
        for seed in CORPUS_SEEDS:
            source = generate_program(seed)
            _same_walk(analyze_source(source).program)
            transformed = transform_source(source)
            _same_walk(transformed.program)
            _same_walk(transformed.instrumented.program)


def _pass_maps(monkeypatch, analysis, copy, id_base):
    """Transform ``analysis`` with ``copy`` as ``Rewriter.copy`` and ids
    drawn from ``id_base``; return every pass's source map and the
    printed programs."""
    maps = []
    rewrite_program = Rewriter.rewrite_program

    def recording(self):
        program = rewrite_program(self)
        maps.append((dict(self.source_map.to_original), set(self.source_map.synthesized)))
        return program

    with monkeypatch.context() as patch:
        patch.setattr(Rewriter, "copy", copy)
        patch.setattr(Rewriter, "rewrite_program", recording)
        patch.setattr(ast, "_NODE_IDS", itertools.count(id_base))
        transformed = transform_program(analysis)
        instrumented = transformed.instrumented
    composed = (
        transformed.source_map.to_original,
        transformed.source_map.synthesized,
        instrumented.source_map.to_original,
        instrumented.source_map.synthesized,
    )
    printed = (print_program(transformed.program), print_program(instrumented.program))
    return maps, composed, printed


class TestCopy:
    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(FIGURE4_SOURCE, id="figure4"),
            pytest.param(SECTION3_SOURCE, id="section3"),
        ]
        + [
            pytest.param(generate_program(seed), id=f"seed{seed}")
            for seed in range(0, 200, 5)
        ],
    )
    def test_source_maps_match_clone_then_walk(self, monkeypatch, source):
        analysis = analyze_source(source)
        base = next(_ID_RANGES)
        new = _pass_maps(monkeypatch, analysis, Rewriter.copy, base)
        old = _pass_maps(monkeypatch, analysis, reference_copy, base)
        assert new[0] and new[0] == old[0]
        assert new[1] == old[1]
        assert new[2] == old[2]

    def test_copy_records_every_cloned_node(self):
        analysis = analyze_source(FIGURE4_SOURCE)
        rewriter = Rewriter(analysis)
        body = analysis.program.block.body
        copied = rewriter.copy(body)
        pairs = list(zip(copied.walk(), body.walk()))
        assert len(pairs) == sum(1 for _ in body.walk())
        assert rewriter.source_map.to_original == {
            new.node_id: old.node_id for new, old in pairs
        }
