"""Integration tests for the full transformation pipeline (paper §5.1)."""

import pytest

from repro import cache
from repro.analysis.sideeffects import analyze_side_effects
from repro.core import GadtSystem, ReferenceOracle
from repro.pascal import run_source
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.pascal.pretty import print_program
from repro.pascal.semantics import analyze_source, registered_patch
from repro.tracing.tracer import trace_source
from repro.transform import instrument, pipeline, transform_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE
from repro.workloads.mutants import evaluate_mutants, generate_mutants


def assert_equivalent(source: str, inputs=None):
    original = run_source(source, inputs=list(inputs) if inputs else None)
    transformed = transform_source(source)
    output = Interpreter(
        transformed.analysis, io=PascalIO(list(inputs) if inputs else None)
    ).run().output
    assert output == original.output
    return transformed


EVERYTHING = """
program t;
label 9;
var total, limit: integer;

procedure account(n: integer);
begin
  total := total + n;
  if total > limit then goto 9
end;

procedure spree;
var i: integer;
begin
  i := 0;
  while i < 100 do begin
    i := i + 1;
    account(i);
    if i > 50 then goto 9
  end
end;

begin
  total := 0;
  limit := 40;
  spree;
  writeln(0);
  9: writeln(total)
end.
"""


class TestPipeline:
    def test_equivalence_on_combined_features(self):
        assert_equivalent(EVERYTHING)

    def test_result_is_fully_clean(self):
        transformed = transform_source(EVERYTHING)
        effects = analyze_side_effects(transformed.analysis)
        for info in transformed.analysis.user_routines():
            e = effects.of_info(info)
            assert e.is_side_effect_free, (info.name, e)
            assert not info.global_gotos

    def test_exit_params_recorded(self):
        transformed = transform_source(EVERYTHING)
        assert "account" in transformed.exit_params
        assert "spree" in transformed.exit_params

    def test_added_global_params_recorded(self):
        transformed = transform_source(EVERYTHING)
        assert ("total", "var") in transformed.added_params["account"]
        assert ("limit", "in") in transformed.added_params["account"]

    def test_loop_units_computed_on_final_tree(self):
        transformed = transform_source(EVERYTHING)
        names = sorted(unit.name for unit in transformed.loop_units.values())
        assert names == ["spree$while1"]
        # The registry keys must exist in the final analysis' AST.
        ids = {node.node_id for node in transformed.analysis.program.walk()}
        assert set(transformed.loop_units) <= ids

    def test_instrumented_program_present_and_runs(self):
        transformed = transform_source(EVERYTHING)
        from repro.pascal.semantics import analyze

        instrumented = analyze(transformed.instrumented.program)
        output = Interpreter(instrumented, io=PascalIO()).run().output
        assert output == run_source(EVERYTHING).output

    def test_source_map_reaches_back_to_original(self):
        transformed = transform_source(EVERYTHING)
        original_ids = {
            node.node_id for node in transformed.original_analysis.program.walk()
        }
        mapped = 0
        for node in transformed.program.walk():
            original = transformed.original_node_id(node.node_id)
            if original is not None:
                assert original in original_ids
                mapped += 1
        assert mapped > 20  # the bulk of the program maps back

    def test_growth_factor_reasonable(self):
        # EVERYTHING is adversarial (every feature at once); even so the
        # whole program stays within a small constant factor.
        transformed = transform_source(EVERYTHING)
        factor = transformed.growth_factor()
        assert 1.0 <= factor < 4.0

    def test_per_routine_growth(self):
        transformed = transform_source(EVERYTHING)
        factors = transformed.routine_growth_factors()
        assert set(factors) == {"account", "spree"}
        for name, factor in factors.items():
            assert factor >= 1.0, name


class TestPaperGrowthClaim:
    TYPICAL = """
    program t;
    var total, count: integer;
    procedure record_one(n: integer);
    begin
      total := total + n;
      count := count + 1
    end;
    procedure mean(var m: integer);
    begin
      m := total div count
    end;
    procedure reset;
    begin
      total := 0;
      count := 0
    end;
    begin
      reset;
      record_one(4);
      record_one(8);
      mean(total);
      writeln(total)
    end.
    """

    def test_small_procedures_grow_less_than_factor_two(self):
        """Paper §9: 'Small procedures usually grow less than a factor of
        two after transformations.' Checked on typical (global-using,
        goto-free) procedures."""
        transformed = transform_source(self.TYPICAL)
        factors = transformed.routine_growth_factors()
        assert factors
        assert all(factor < 2.0 for factor in factors.values()), factors


class TestNoOpPipeline:
    def test_clean_program_passes_through(self):
        from repro.workloads import FIGURE4_SOURCE

        transformed = transform_source(FIGURE4_SOURCE)
        assert not transformed.added_params
        assert not transformed.exit_params
        assert not transformed.warnings
        assert transformed.growth_factor() >= 1.0

    def test_clean_program_equivalent(self):
        from repro.workloads import FIGURE4_SOURCE

        assert_equivalent(FIGURE4_SOURCE)

    def test_figure2_with_inputs(self):
        from repro.workloads import FIGURE2_SOURCE

        assert_equivalent(FIGURE2_SOURCE, inputs=[5, 7, 9])
        assert_equivalent(FIGURE2_SOURCE, inputs=[1, 2])


@pytest.fixture
def instrument_calls(monkeypatch):
    """Every call of ``instrument_program``, under each name it has,
    with empty caches (no transform is a hit) before and after."""
    calls = []
    original = instrument.instrument_program

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(instrument, "instrument_program", spy)
    monkeypatch.setattr(pipeline, "instrument_program", spy)
    cache.clear_caches()
    yield calls
    cache.clear_caches()


class TestInstrumentationOnDemand:
    """The instrumented program is a display artifact: running, tracing,
    debugging and sweeping mutants never build it."""

    def test_debug_trace_and_mutate_build_no_instrumentation(self, instrument_calls):
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        assert system.debugger(oracle).debug().bug_unit == "decrement"
        trace_source(FIGURE4_SOURCE)

        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        recipe = registered_patch(mutants[0].source)
        patch = pipeline.TransformPatch(transform_source(recipe.printed.text), recipe)
        assert patch.full_path_reason(analyze_source(mutants[0].source)) is None
        transform_source(mutants[0].source)

        outcomes = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants, workers=None)
        assert any(outcome.status == "localized" for outcome in outcomes)
        assert instrument_calls == []

    def test_reading_twice_builds_once(self, instrument_calls):
        transformed = transform_source(FIGURE4_SOURCE, cached=False)
        first = transformed.instrumented
        assert transformed.instrumented is first
        assert len(instrument_calls) == 1
