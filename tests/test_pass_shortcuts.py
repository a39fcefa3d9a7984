"""Goto passes with nothing to rewrite return their input.

The structured, loop-goto and global-goto passes each decide up front,
from facts they already have, that a program gives them nothing to do,
and then return the input program itself: no copy, no source map, and
the pipeline does not re-analyze. Two properties keep that safe:

* the decision is right: wherever a pass returned its input, running
  its rewriter over that input changes nothing and prints the same
  program;
* the pipeline never writes to its input, which a skipped pass now
  hands on to the next one (it may be the user's cached analysis).

CI runs :func:`assert_shortcuts_hold` on seeds 0-199 as well.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.pascal import ast_nodes as ast
from repro.pascal.pretty import print_program
from repro.pascal.semantics import analyze_source
from repro.tgen.corpus import generate_program
from repro.transform import pipeline
from repro.transform.goto_elimination import (
    _GlobalGotoRewriter,
    _LoopGotoRewriter,
    _StructuredGotoRewriter,
)
from repro.transform.pipeline import transform_program, transform_source
from tests.canonical_forms import canonical
from tests.test_mutant_patch import HOSTS

#: pass function (as the pipeline calls it) -> the rewriter it runs
REWRITERS = {
    "reduce_structured_gotos": _StructuredGotoRewriter,
    "eliminate_loop_gotos": _LoopGotoRewriter,
    "break_global_gotos": _GlobalGotoRewriter,
}


@contextmanager
def recorded_passes():
    """Every (pass name, analysis, result) of the goto passes the
    pipeline runs inside the block, in order."""
    calls: list[tuple] = []
    originals = {name: getattr(pipeline, name) for name in REWRITERS}

    def recorder(name, function):
        def record(analysis, *args, **kwargs):
            result = function(analysis, *args, **kwargs)
            calls.append((name, analysis, result))
            return result

        return record

    for name, function in originals.items():
        setattr(pipeline, name, recorder(name, function))
    try:
        yield calls
    finally:
        for name, function in originals.items():
            setattr(pipeline, name, function)


def assert_shortcuts_hold(source: str) -> set[str]:
    """Transform ``source``; for each pass that returned its input, run
    the pass's rewriter over it and check that it rewrites nothing.
    Returns the names of the passes that returned their input."""
    with recorded_passes() as calls:
        transform_source(source, cached=False)
    skipped: set[str] = set()
    for name, analysis, result in calls:
        if result.program is not analysis.program:
            continue
        skipped.add(name)
        assert not result.changed and not result.eliminated, name
        rewriter = REWRITERS[name](analysis)
        rewritten = rewriter.rewrite_program()
        assert not rewriter.changed, name
        assert not rewriter.eliminated, name
        assert rewriter.warnings == result.warnings, name
        assert print_program(rewritten) == print_program(analysis.program), name
    return skipped


def test_fixed_hosts():
    skipped = set()
    for source in HOSTS.values():
        skipped |= assert_shortcuts_hold(source)
    assert skipped == set(REWRITERS)


@pytest.mark.parametrize("first", range(0, 40, 20))
def test_corpus_seeds(first):
    skipped = set()
    for seed in range(first, first + 20):
        skipped |= assert_shortcuts_hold(generate_program(seed))
    assert skipped == set(REWRITERS)


def test_a_program_without_gotos_skips_every_goto_pass():
    source = HOSTS["FIGURE4_FIXED_SOURCE"]
    with recorded_passes() as calls:
        transformed = transform_source(source, cached=False)
    assert [name for name, _, _ in calls] == list(REWRITERS)
    original = transformed.original_analysis.program
    assert all(result.program is original for _, _, result in calls)
    # globals-to-parameters still copies: the result shares no node
    # with the user's program
    assert not {id(node) for node in transformed.program.walk()} & {
        id(node) for node in original.walk()
    }


# ----------------------------------------------------------------------
# the input stays untouched


@contextmanager
def write_trap(program: ast.Program):
    """Fail on any attribute write to a node of ``program``."""
    watched = {id(node) for node in program.walk()}
    assert "__setattr__" not in ast.Node.__dict__

    def trap(node, name, value):
        if id(node) in watched:
            raise AssertionError(f"{type(node).__name__}.{name} of the input written")
        object.__setattr__(node, name, value)

    ast.Node.__setattr__ = trap
    try:
        yield
    finally:
        del ast.Node.__setattr__


@pytest.mark.parametrize(
    "source",
    [*HOSTS.values(), *(generate_program(seed) for seed in range(20))],
    ids=[*HOSTS, *(f"seed{seed}" for seed in range(20))],
)
def test_transform_program_never_writes_its_input(source):
    analysis = analyze_source(source, cached=False)
    before = canonical(analysis)
    with write_trap(analysis.program):
        transformed = transform_program(analysis)
    assert transformed.original_analysis is analysis
    assert canonical(analysis) == before
