"""Differential tests for mutant transforms built as patches.

A mutant text with a registered :class:`~repro.pascal.semantics.AnalysisPatch`
is transformed as a :class:`~repro.transform.pipeline.TransformPatch` of
its printed host's transform, with no pass pipeline. The result must
equal a fresh run of the pipeline on a parse of the mutant's text
(``transform_source(text, cached=False)``) once node ids are renumbered:
both programs and every node's location, the source maps, the loop
units, the pass reports and the side effects, and the debugger's trace
tree on both backends. Mutants the patch cannot serve take the pipeline
and must match all the same.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import cache, obs
from repro.core import GadtSystem
from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import (
    _ANALYSIS_CACHE,
    analyze_source,
    registered_patch,
)
from repro.tgen.corpus import generate_program
from repro.tracing.tracer import trace_program
from repro.transform.pipeline import (
    _TRANSFORM_CACHE,
    TransformPatch,
    cached_transform,
    transform_source,
)
from repro.workloads.mutants import evaluate_mutants, generate_mutants
from tests.canonical_forms import canonical_transform, trace_form
from tests.test_mutant_patch import HOSTS

STEP_LIMIT = 20_000


def _patch(mutant) -> TransformPatch:
    recipe = registered_patch(mutant.source)
    assert recipe is not None, mutant.description
    return TransformPatch(cached_transform(recipe.base, recipe.printed.text), recipe)


def full_path_reason(mutant) -> str | None:
    return _patch(mutant).full_path_reason(analyze_source(mutant.source))


def _traced(transformed, backend):
    """The debugger's trace tree of ``transformed``, as
    :meth:`GadtSystem.from_source` builds it, or the error it raised."""
    try:
        trace = trace_program(
            transformed.analysis,
            step_limit=STEP_LIMIT,
            backend=backend,
        )
    except Exception as exc:  # the error itself must match too
        return type(exc).__name__, str(exc)
    return trace_form(trace, transformed.analysis)


@contextmanager
def observed():
    """Obs on with a clean registry, off and clean again after."""
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


def assert_transform_matches_pipeline(mutant, traces: bool = False):
    """``transform_source`` of the mutant equals a fresh pipeline run."""
    built = transform_source(mutant.source)
    fresh = transform_source(mutant.source, cached=False)
    assert built.original_analysis is analyze_source(mutant.source)
    assert canonical_transform(built) == canonical_transform(fresh), mutant.description
    if traces:
        for backend in ("interp", "compiled"):
            assert _traced(built, backend) == _traced(fresh, backend), (
                mutant.description,
                backend,
            )
    return built, fresh


# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_every_mutant_of_the_fixed_hosts(name):
    for mutant in generate_mutants(HOSTS[name]):
        assert_transform_matches_pipeline(mutant, traces=True)


def test_hosts_that_are_each_others_mutants():
    """The buggy Figure 4 is a mutant of the fixed one and the other way
    round. Sweeping both must not make either host's transform a patch
    of the other's, which would lead back to itself."""
    cache.clear_caches()
    generate_mutants(HOSTS["FIGURE4_SOURCE"])
    for mutant in generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"]):
        assert_transform_matches_pipeline(mutant)


#: A fresh pipeline run costs about 40 ms, so tier-1 checks a slice of
#: the corpus: every twelfth mutant of seeds 0-19, rotated by the seed,
#: and the first operator and first constant mutant of every fifteenth
#: seed from 20 on. The CI corpus job checks every mutant of seeds
#: 0-199.
@pytest.mark.parametrize("first", range(0, 20, 5))
def test_corpus_mutants(first):
    for seed in range(first, first + 5):
        mutants = generate_mutants(generate_program(seed))
        for index, mutant in enumerate(mutants[seed % 12 :: 12]):
            assert_transform_matches_pipeline(mutant, traces=index == 0)


def test_first_mutants_of_later_seeds():
    for seed in range(20, 200, 15):
        mutants = generate_mutants(generate_program(seed))
        for kind in ("operator", "constant"):
            mutant = next((m for m in mutants if m.kind == kind), None)
            if mutant is not None:
                assert_transform_matches_pipeline(mutant)


class TestFullPath:
    #: ``if c then goto 1; 1: ...`` is dropped only when evaluating ``c``
    #: cannot fail, so turning ``div`` into ``*`` changes the pass's
    #: decision: the mutant must take the pipeline.
    DIVISION_GUARD = """
program guard;
var r: integer;
procedure check(x, y: integer; var z: integer);
label 1;
begin
  z := 0;
  if (x div y) = 0 then goto 1;
  1: z := x + 1
end;
begin
  check(3, 2, r);
  writeln(r)
end.
"""

    #: ``if x > 0 then goto 1; 1: ...`` is dropped: faults in its
    #: condition have no image in the transformed program.
    DROPPED_GUARD = """
program dropped;
var r: integer;
procedure check(x: integer; var z: integer);
label 1;
begin
  z := 0;
  if x > 0 then goto 1;
  1: z := x + 1
end;
begin
  check(3, r);
  writeln(r)
end.
"""

    def test_a_fault_that_flips_a_pass_decision_takes_the_pipeline(self):
        mutant = next(
            m for m in generate_mutants(self.DIVISION_GUARD) if "div -> *" in m.description
        )
        host = _patch(mutant).base
        assert full_path_reason(mutant) == "the fault can flip a pass decision"
        built, fresh = assert_transform_matches_pipeline(mutant, traces=True)
        assert any(isinstance(node, ast.If) for node in host.program.walk())
        assert not any(isinstance(node, ast.If) for node in built.program.walk())
        # A patch would have kept the conditional the pipeline drops.
        patched = _patch(mutant).build(analyze_source(mutant.source))
        assert canonical_transform(patched) != canonical_transform(fresh)

    def test_a_divisor_literal_crossing_zero_takes_the_pipeline(self):
        source = self.DIVISION_GUARD.replace("(x div y)", "(x div 0)")
        reasons = []
        for mutant in generate_mutants(source):
            reasons.append((mutant.kind, full_path_reason(mutant)))
            assert_transform_matches_pipeline(mutant)
        assert reasons.count(("constant", "the fault can flip a pass decision")) == 1

    def test_a_fault_with_no_image_shares_the_host_transform(self):
        mutants = [m for m in generate_mutants(self.DROPPED_GUARD) if m.unit == "check"]
        host = transform_source(registered_patch(mutants[0].source).printed.text)
        imageless = []
        for mutant in mutants:
            assert full_path_reason(mutant) is None
            recipe = registered_patch(mutant.source)
            built, _ = assert_transform_matches_pipeline(mutant, traces=True)
            if not host.images.get(recipe.path[0].node_id):
                imageless.append(mutant.description)
                assert built.analysis is host.analysis
                assert built.original_analysis is analyze_source(mutant.source)
        assert sorted(imageless) == ["0 -> 1 in check", "> -> >= in check"]

    def test_a_recipe_whose_base_was_evicted_is_still_patched(self):
        source = generate_program(7)
        mutants = generate_mutants(source)
        expected = [
            canonical_transform(transform_source(m.source, cached=False)) for m in mutants
        ]
        # The analyses and transforms go, the recipes stay: each recipe
        # keeps its base, whose transform is built once, by the pipeline.
        _ANALYSIS_CACHE.clear()
        _TRANSFORM_CACHE.clear()
        with observed():
            built = [transform_source(m.source) for m in mutants]
            snapshot = obs.snapshot()
        assert snapshot["counters"]["transform.patched"] == len(mutants)
        assert snapshot["histograms"]["transform.pipeline"]["count"] == 1
        assert [canonical_transform(t) for t in built] == expected

    def test_a_rebuilt_analysis_gets_a_transform_of_its_own(self):
        source = generate_program(7)
        cache.clear_caches()
        printed = registered_patch(generate_mutants(source)[0].source).printed.text
        transform_source(printed)
        _ANALYSIS_CACHE.discard(cache.source_key(printed))
        assert transform_source(printed).original_analysis is analyze_source(printed)
        # The new recipes are of the rebuilt analysis, and patch its transform.
        mutants = generate_mutants(source)
        with observed():
            for mutant in mutants:
                transform_source(mutant.source)
            counters = obs.snapshot()["counters"]
        assert counters["transform.patched"] == len(mutants)

    def test_a_mutant_parsed_before_its_recipe_takes_the_pipeline(self):
        source = generate_program(8)
        mutant = generate_mutants(source)[4]
        cache.clear_caches()
        analyze_source(mutant.source)  # no recipe: parsed, with its own ids
        generate_mutants(source)  # a new recipe, of a new base
        assert full_path_reason(mutant) == "the variant's analysis was not built by the recipe"
        assert_transform_matches_pipeline(mutant)

    def test_a_lost_recipe_takes_the_pipeline(self):
        mutant = generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"])[0]
        expected = _traced(transform_source(mutant.source, cached=False), "compiled")
        cache.clear_caches()  # drops the recipes too
        assert registered_patch(mutant.source) is None
        with observed():
            system = GadtSystem.from_source(mutant.source, step_limit=STEP_LIMIT)
            counters = obs.snapshot()["counters"]
        assert "transform.patched" not in counters
        assert _traced(system.transformed, "compiled") == expected


class TestReadOnly:
    def test_patching_never_writes_to_the_host_transform(self, monkeypatch):
        source = generate_program(11)
        mutants = generate_mutants(source)
        host = transform_source(registered_patch(mutants[0].source).printed.text)
        before = canonical_transform(host)
        carried = {"loop_units": host.loop_units, "exit_params": host.exit_params}
        tables = {
            name: (value, dict(value) if isinstance(value, dict) else list(value))
            for name, value in {**vars(host), **carried}.items()
            if isinstance(value, (dict, list))
        }
        shared = {id(node) for node in host.program.walk()}
        writes = []
        setattr_ = ast.Node.__setattr__

        def trap(node, name, value):
            if id(node) in shared:
                writes.append((type(node).__name__, name))
            setattr_(node, name, value)

        monkeypatch.setattr(ast.Node, "__setattr__", trap)
        patched = 0
        for mutant in mutants:
            if full_path_reason(mutant) is None:
                _patch(mutant).build(analyze_source(mutant.source))
                patched += 1
        monkeypatch.undo()
        assert patched == len(mutants)
        assert writes == []
        assert canonical_transform(host) == before
        for name, (value, copy) in tables.items():
            assert value == copy, name

    def test_a_patch_shares_the_host_loop_units_and_owns_its_side_effects(self):
        mutants = generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"])
        host = transform_source(registered_patch(mutants[0].source).printed.text)
        assert host.loop_units
        assert host.side_effects.analysis is host.analysis
        patched = [
            transformed
            for transformed in (transform_source(m.source) for m in mutants)
            if transformed.analysis.patched_from is host.analysis
        ]
        assert len(patched) > len(mutants) // 2
        for transformed in patched:
            assert transformed.analysis.view is host.analysis.view
            assert transformed.loop_units is host.loop_units
            assert transformed.side_effects.analysis is transformed.analysis
            assert transformed.side_effects.effects is host.side_effects.effects


class TestSweep:
    OUTCOMES = json.loads(
        (Path(__file__).parent / "data" / "mutant_outcomes.json").read_text()
    )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_outcomes_match_the_pipeline_built_sweep(self, workers):
        """Outcomes recorded when every mutant transform ran the pass
        pipeline (the golden file), on every host whose own run needs
        no input."""
        for name, expected in sorted(self.OUTCOMES.items()):
            source = HOSTS[name]
            outcomes = evaluate_mutants(
                source, generate_mutants(source), step_limit=STEP_LIMIT, workers=workers
            )
            assert [
                [
                    outcome.mutant.description,
                    outcome.status,
                    outcome.localized_unit,
                    outcome.user_questions,
                    outcome.partial,
                ]
                for outcome in outcomes
            ] == expected, name

    def test_one_pipeline_run_per_host(self):
        source = HOSTS["FIGURE4_FIXED_SOURCE"]
        cache.clear_caches()
        mutants = generate_mutants(source)
        with observed():
            outcomes = evaluate_mutants(source, mutants)
            snapshot = obs.snapshot()
        changing = sum(
            1 for outcome in outcomes if outcome.status not in ("equivalent", "crashed")
        )
        assert changing > 10
        assert snapshot["histograms"]["transform.pipeline"]["count"] == 1
        assert snapshot["histograms"]["transform.patch"]["count"] == changing
        assert snapshot["counters"]["transform.patched"] == changing
