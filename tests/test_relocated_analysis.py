"""Differential tests for analyses of printed text built from the AST.

:func:`~repro.pascal.pretty.print_program` and
:class:`~repro.pascal.pretty.PrintedProgram` register, for the text they
print, a :class:`~repro.pascal.semantics.Relocation`: the analysis of
the text is built from a copy of the printed program, located where a
parse of the text locates each node, with no lex or parse. A relocated
analysis must equal a parse of the text (``analyze_source(text,
cached=False)``) once node ids are renumbered in pre-order: the tree,
every node's location, every side table and every ``RoutineInfo``
field. Runs and traces of the two must agree on both backends.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import cache, obs
from repro.pascal import ast_nodes as ast
from repro.pascal import analyze_source, run_source
from repro.pascal.pretty import PrettyPrinter, PrintedProgram, print_program
from repro.pascal.semantics import (
    _PATCHES,
    Relocation,
    forget_patch,
    registered_patch,
)
from repro.tgen.corpus import generate_program
from repro.transform import transform_source
from repro.workloads import paper_programs
from repro.workloads.mutants import generate_mutants
from tests.canonical_forms import canonical
from tests.test_mutant_patch import assert_runs_and_traces_match

CORPUS_DIR = Path(__file__).parent / "corpus"

HOSTS = {
    **{
        name: getattr(paper_programs, name)
        for name in dir(paper_programs)
        if name.endswith("_SOURCE")
    },
    **{path.stem: path.read_text() for path in sorted(CORPUS_DIR.glob("*.pas"))},
}

CORPUS_SEEDS = range(200)


@pytest.fixture(autouse=True)
def _clean():
    # A printed text may also be a mutant's text, whose registered recipe
    # is an AnalysisPatch: start from empty caches, not from whichever
    # recipe an earlier test left for the same text.
    cache.clear_caches()
    yield
    obs.disable()
    obs.reset()
    cache.set_enabled(True)


def relocated(text: str):
    """The analysis of ``text`` built from its registered recipe."""
    recipe = _PATCHES.peek(cache.source_key(text))
    assert isinstance(recipe, Relocation)
    analysis = recipe.build()
    assert analysis is not None, "the recipe declined: a parse would build another tree"
    return analysis


def assert_relocation_matches_parse(program: ast.Program) -> tuple:
    text = print_program(program)
    built = relocated(text)
    fresh = analyze_source(text, cached=False)
    assert canonical(built) == canonical(fresh)
    # A copy of its own: no node of the printed program, no patch base.
    assert built.patched_from is None
    assert not {id(node) for node in built.program.walk()} & {
        id(node) for node in program.walk()
    }
    return built, fresh


def printed_programs(source: str) -> dict[str, ast.Program]:
    return {
        "host": analyze_source(source).program,
        "transform": transform_source(source).program,
    }


def _tokens() -> int:
    return obs.snapshot(include_cache=False)["counters"].get("pascal.tokens", 0)


# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_fixed_hosts_and_their_transforms(name):
    for program in printed_programs(HOSTS[name]).values():
        assert_runs_and_traces_match(*assert_relocation_matches_parse(program))


@pytest.mark.parametrize("first", range(0, len(CORPUS_SEEDS), 50))
def test_corpus_hosts_and_transforms(first):
    for seed in CORPUS_SEEDS[first : first + 50]:
        for program in printed_programs(generate_program(seed)).values():
            assert_runs_and_traces_match(*assert_relocation_matches_parse(program))


class TestNoLexOrParse:
    def test_running_a_printed_transform_lexes_nothing(self):
        cache.clear_caches()
        text = print_program(transform_source(generate_program(7)).program)
        obs.enable()
        run = run_source(text)
        counters = obs.snapshot(include_cache=False)["counters"]
        assert _tokens() == 0
        assert counters["pascal.analyze.relocated"] == 1
        assert run.output == run_source(text, backend="compiled").output

    def test_generating_mutants_lexes_only_the_source(self):
        source = HOSTS["FIGURE4_FIXED_SOURCE"]
        cache.clear_caches()
        analyze_source(source)
        obs.enable()
        mutants = generate_mutants(source)
        assert _tokens() == 0
        assert obs.snapshot(include_cache=False)["counters"]["pascal.analyze.relocated"] == 1
        # every mutant is still a patch of the relocated host
        base = analyze_source(print_program(analyze_source(source).program))
        assert all(registered_patch(m.source).base is base for m in mutants)

    def test_a_relocation_is_no_mutant_recipe(self):
        text = print_program(transform_source(generate_program(3)).program)
        assert isinstance(_PATCHES.peek(cache.source_key(text)), Relocation)
        assert registered_patch(text) is None

    def test_a_mutant_printed_from_its_analysis_keeps_its_patch(self):
        mutant = generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"])[0]
        patch = registered_patch(mutant.source)
        assert print_program(analyze_source(mutant.source).program) == mutant.source
        assert registered_patch(mutant.source) is patch

    def test_a_changed_program_is_parsed(self):
        cache.clear_caches()  # no recipe registered by an earlier print
        program = transform_source(generate_program(5)).program
        text = print_program(program)
        first = program.block.body.statements[0]
        program.block.body.statements.insert(0, first)  # printed once more
        try:
            assert _PATCHES.peek(cache.source_key(text)).build() is None
        finally:
            del program.block.body.statements[0]

    #: programs whose printed text a parse reads as another tree: an
    #: empty statement a parse drops, and the step of a ``downto`` loop
    #: the goto pass rewrote (``i := i + -1``, read as a negation)
    NO_FIXED_POINT = {
        "empty statement": ("program e; var x: integer; begin ; x := 1 end.", False),
        "downto step": (
            "program d; label 9; var i, s: integer; begin s := 0;"
            " for i := 5 downto 1 do begin if i = 2 then goto 9; s := s + i end;"
            " 9: writeln(s) end.",
            True,
        ),
    }

    @pytest.mark.parametrize("name", sorted(NO_FIXED_POINT))
    def test_a_program_no_parse_builds_is_parsed(self, name):
        source, transformed = self.NO_FIXED_POINT[name]
        cache.clear_caches()
        program = (transform_source if transformed else analyze_source)(source).program
        text = print_program(program)
        assert PrettyPrinter().locate_program(program)[1] is None
        assert _PATCHES.peek(cache.source_key(text)).build() is None
        expected = canonical(analyze_source(text, cached=False))
        assert canonical(analyze_source(text)) == expected


class TestFallsBackToAParse:
    @staticmethod
    def _fresh_text() -> tuple[str, dict]:
        text = print_program(transform_source(generate_program(11)).program)
        return text, canonical(analyze_source(text, cached=False))

    def _assert_parsed(self, text: str, expected: dict) -> None:
        obs.enable()
        assert canonical(analyze_source(text)) == expected
        assert _tokens() > 0
        assert "pascal.analyze.relocated" not in obs.snapshot(include_cache=False)["counters"]

    def test_forgotten_recipe(self):
        text, expected = self._fresh_text()
        cache.register("analysis").discard(cache.source_key(text))
        forget_patch(text)
        self._assert_parsed(text, expected)

    def test_cleared_caches(self):
        text, expected = self._fresh_text()
        cache.clear_caches()
        self._assert_parsed(text, expected)

    def test_disabled_caches(self):
        text, expected = self._fresh_text()
        cache.set_enabled(False)
        self._assert_parsed(text, expected)

    def test_uncached_analysis_always_parses(self):
        text, expected = self._fresh_text()
        obs.enable()
        assert canonical(analyze_source(text, cached=False)) == expected
        assert _tokens() > 0


def test_printed_program_registers_its_text():
    cache.clear_caches()
    program = analyze_source(HOSTS["SECTION3_FIXED_SOURCE"]).program
    printed = PrintedProgram(program)
    assert _PATCHES.peek(cache.source_key(printed.text)).program is program
