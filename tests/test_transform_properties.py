"""Additional property-based tests of the transformation pipeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pascal import print_program, run_source
from repro.pascal.parser import parse_program
from repro.pascal.semantics import analyze
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.transform import transform_source
from tests.program_gen import programs_with_procedures


@settings(max_examples=30, deadline=None)
@given(source=programs_with_procedures())
def test_transformed_program_pretty_prints_and_reparses(source):
    """The transformed AST is always printable to valid, equivalent source."""
    transformed = transform_source(source)
    printed = print_program(transformed.program)
    reparsed = analyze(parse_program(printed))
    original_output = run_source(source, step_limit=500_000).output
    assert Interpreter(reparsed, io=PascalIO()).run().output == original_output


@settings(max_examples=30, deadline=None)
@given(source=programs_with_procedures())
def test_instrumented_program_equivalent(source):
    """Inserting trace actions never changes behaviour."""
    transformed = transform_source(source)
    instrumented = analyze(transformed.instrumented.program)
    original_output = run_source(source, step_limit=500_000).output
    assert Interpreter(instrumented, io=PascalIO()).run().output == original_output


@settings(max_examples=30, deadline=None)
@given(source=programs_with_procedures())
def test_transformation_is_idempotent(source):
    """Transforming a transformed program changes nothing semantically:
    no side effects remain, so the second pass adds no parameters."""
    first = transform_source(source)
    second_input = print_program(first.program)
    second = transform_source(second_input)
    assert not second.added_params
    assert not second.exit_params


@settings(max_examples=20, deadline=None)
@given(source=programs_with_procedures(), seed=st.integers(0, 3))
def test_unit_isolation_after_transformation(source, seed):
    """After the transformation, any routine can be executed in isolation
    (no hidden state): calling it twice with the same arguments gives the
    same outcome."""
    from repro.pascal.values import UNDEFINED

    transformed = transform_source(source)
    analysis = transformed.analysis
    routines = [info for info in analysis.user_routines() if info.params]
    if not routines:
        return
    info = routines[seed % len(routines)]
    args = []
    for param in info.params:
        from repro.pascal.symbols import INTEGER

        args.append(2 if param.type is INTEGER else UNDEFINED)
    from repro.pascal.errors import PascalError

    def call():
        try:
            interpreter = Interpreter(analysis, io=PascalIO(), step_limit=200_000)
            outcome = interpreter.call_routine_by_name(info.name, list(args))
            return ("ok", outcome.result, tuple(sorted(outcome.out_values.items())))
        except PascalError as error:
            return ("error", type(error).__name__, ())

    assert call() == call()
