"""One table, three evaluators: Mini-Pascal's run-time rules.

Each row is an expression over the variables ``a``, ``b`` (integers)
and ``p``, ``q`` (booleans) with their values, and the outcome: a value
or a run-time error message. The row runs three ways, and all three
must give that outcome:

* on the interpreter, as ``x := <expr>`` in a program that reads the
  variables (``read`` stores whatever value it is given, so a boolean
  variable can hold an integer at run time);
* the same program on the compiled engine;
* as the assertion ``x = (<expr>)`` over an activation whose bindings
  hold the variables and, as output ``x``, the expected value; a row
  that errs must make the assertion not apply with the same message.
"""

from __future__ import annotations

import pytest

from repro.core.assertions import Assertion, AssertionError_
from repro.pascal import run_source
from repro.pascal.errors import PascalError, PascalRuntimeError, SemanticError
from repro.pascal.values import MAX_INT, MIN_INT
from repro.tracing.execution_tree import Binding, BindingMode, ExecNode, NodeKind


class Error(str):
    """An expected run-time error message."""


OVERFLOW = Error("integer overflow")
BY_ZERO = Error("division by zero")

#: (expression, variable values, expected outcome)
TABLE = [
    ("a + b", {"a": MAX_INT, "b": 1}, OVERFLOW),
    ("a + b", {"a": MAX_INT, "b": 0}, MAX_INT),
    ("a + b", {"a": MIN_INT, "b": -1}, OVERFLOW),
    ("a - b", {"a": MIN_INT, "b": 1}, OVERFLOW),
    ("a - b", {"a": -1, "b": MAX_INT}, MIN_INT),
    ("a - b", {"a": MAX_INT, "b": -1}, OVERFLOW),
    ("a * b", {"a": MIN_INT, "b": -1}, OVERFLOW),
    ("a * b", {"a": 2**62, "b": 2}, OVERFLOW),
    ("a * b", {"a": 2**62, "b": -2}, MIN_INT),
    ("abs(a)", {"a": MIN_INT}, OVERFLOW),
    ("abs(a)", {"a": MIN_INT + 1}, MAX_INT),
    ("sqr(a)", {"a": 2**32}, OVERFLOW),
    ("sqr(a)", {"a": -3037000499}, 3037000499**2),
    ("a div b", {"a": -7, "b": 2}, -3),
    ("a div b", {"a": 7, "b": -2}, -3),
    ("a div b", {"a": -7, "b": -2}, 3),
    ("a mod b", {"a": -7, "b": 2}, -1),
    ("a mod b", {"a": 7, "b": -2}, 1),
    ("a mod b", {"a": -7, "b": -2}, -1),
    ("a div b", {"a": MIN_INT, "b": -1}, OVERFLOW),
    ("a div b", {"a": MIN_INT, "b": 1}, MIN_INT),
    ("a mod b", {"a": MIN_INT, "b": -1}, 0),
    ("-a", {"a": MIN_INT}, OVERFLOW),
    ("-a", {"a": MAX_INT}, MIN_INT + 1),
    ("a div b", {"a": 1, "b": 0}, BY_ZERO),
    ("a mod b", {"a": 0, "b": 0}, BY_ZERO),
    ("odd(a)", {"a": -3}, True),
    ("odd(a)", {"a": -4}, False),
    ("min(a, b)", {"a": MAX_INT, "b": MIN_INT}, MIN_INT),
    ("max(a, b)", {"a": MIN_INT, "b": MAX_INT}, MAX_INT),
    ("min(a, b div b)", {"a": True, "b": 0}, Error("expected an integer, got true")),
    ("max(b div b, a)", {"a": True, "b": 0}, BY_ZERO),
    ("a < b", {"a": MIN_INT, "b": MAX_INT}, True),
    ("a <= b", {"a": 3, "b": 3}, True),
    ("a > b", {"a": -1, "b": 0}, False),
    ("a >= b", {"a": MAX_INT, "b": MIN_INT}, True),
    ("a = b", {"a": 5, "b": 5}, True),
    ("a <> b", {"a": 5, "b": 5}, False),
    ("p < q", {"p": True, "q": False}, Error("expected an integer, got true")),
    ("p and q", {"p": 1, "q": True}, Error("expected a boolean, got 1")),
    ("p and q", {"p": True, "q": 2}, Error("expected a boolean, got 2")),
    ("p and q", {"p": False, "q": 2}, False),
    ("p or q", {"p": False, "q": 2}, Error("expected a boolean, got 2")),
    ("p or q", {"p": True, "q": 2}, True),
    ("not p", {"p": 0}, Error("expected a boolean, got 0")),
]

DEFAULTS = {"a": 0, "b": 0, "p": True, "q": False}

#: ``=``/``<>`` of a boolean and an integer held by variables of one
#: type: (expression, variable values, value in a program run, value as
#: an assertion). A program compares with Python's ``==`` (``true`` is
#: ``1``); an assertion compares values as typed.
MIXED_EQUALITY = [
    ("p = q", {"p": 1, "q": True}, True, False),
    ("p <> q", {"p": 1, "q": True}, False, True),
    ("a = b", {"a": True, "b": 1}, True, False),
    ("a <> b", {"a": 0, "b": False}, False, True),
]


def _program(expr: str) -> str:
    boolean = any(op in expr for op in ("<", ">", "=", "and", "or", "not", "odd"))
    result_type = "boolean" if boolean else "integer"
    return (
        f"program t; var a, b: integer; p, q: boolean; x: {result_type}; "
        f"begin read(a, b, p, q); x := {expr} end."
    )


def _outcome_of_run(expr: str, values: dict, backend: str):
    inputs = [{**DEFAULTS, **values}[name] for name in ("a", "b", "p", "q")]
    try:
        result = run_source(_program(expr), inputs=inputs, backend=backend)
    except PascalRuntimeError as error:
        return Error(error.message)
    return result.global_value("x")


def _row_id(row) -> str:
    expr, values = row[:2]
    return f"{expr} {values}"


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("row", TABLE, ids=_row_id)
def test_program_runs(row, backend):
    expr, values, expected = row
    outcome = _outcome_of_run(expr, values, backend)
    assert type(outcome) is type(expected)
    assert outcome == expected


@pytest.mark.parametrize("row", TABLE, ids=_row_id)
def test_assertion(row):
    expr, values, expected = row
    node = ExecNode(
        kind=NodeKind.CALL,
        unit_name="p",
        inputs=[
            Binding(name, BindingMode.IN, value)
            for name, value in {**DEFAULTS, **values}.items()
        ],
        outputs=[
            Binding("x", BindingMode.OUT, 0 if isinstance(expected, Error) else expected)
        ],
    )
    assertion = Assertion(unit="p", text=f"x = ({expr})")
    if isinstance(expected, Error):
        with pytest.raises(AssertionError_) as raised:
            assertion.evaluate(node)
        assert str(raised.value) == expected
    else:
        assert assertion.evaluate(node) is True


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("row", MIXED_EQUALITY, ids=_row_id)
def test_mixed_equality_runs(row, backend):
    expr, values, in_program, _ = row
    assert _outcome_of_run(expr, values, backend) is in_program


@pytest.mark.parametrize("row", MIXED_EQUALITY, ids=_row_id)
def test_mixed_equality_assertion(row):
    expr, values, _, as_assertion = row
    node = ExecNode(
        kind=NodeKind.CALL,
        unit_name="p",
        inputs=[
            Binding(name, BindingMode.IN, value)
            for name, value in {**DEFAULTS, **values}.items()
        ],
    )
    assert Assertion(unit="p", text=expr).evaluate(node) is as_assertion


#: (program statement, input values, the operator's token): the
#: statement's ``integer overflow`` is at that token, on both engines
OVERFLOW_AT = [
    ("writeln(a div b)", [MIN_INT, -1], "div"),
    ("writeln(-a)", [MIN_INT, 0], "-"),
]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("row", OVERFLOW_AT, ids=lambda row: row[0])
def test_overflow_is_located_at_the_operator(row, backend):
    statement, inputs, operator = row
    source = f"program t; var a, b: integer; begin read(a, b); {statement} end."
    with pytest.raises(PascalRuntimeError) as raised:
        run_source(source, inputs=inputs, backend=backend)
    column = source.index(operator, source.index("writeln")) + 1
    assert str(raised.value) == f"1:{column}: integer overflow"


#: programs with an integer literal beyond ``MAX_INT``: the analysis
#: rejects each at the literal's own token
TOO_LARGE = str(MAX_INT + 1)
OUT_OF_RANGE_LITERALS = [
    f"program t; begin writeln(max({TOO_LARGE}, 0)) end.",
    f"program t; var a: integer; begin a := {TOO_LARGE} end.",
    f"program t; var a: integer; begin a := -{TOO_LARGE} end.",
    f"program t; const c = {TOO_LARGE}; begin writeln(c) end.",
    f"program t; var v: array[1..{TOO_LARGE}] of integer; begin end.",
]


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("source", OUT_OF_RANGE_LITERALS)
def test_literal_beyond_max_int_is_rejected(source, backend):
    with pytest.raises(SemanticError) as raised:
        run_source(source, backend=backend)
    assert str(raised.value) == (
        f"1:{source.index(TOO_LARGE) + 1}: integer literal {TOO_LARGE} "
        f"exceeds the largest integer {MAX_INT}"
    )


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_largest_literal_and_folded_constants(backend):
    source = (
        f"program t; const c = {MAX_INT}; d = -c - 1; "
        "begin writeln(max(c, 0), ' ', d) end."
    )
    assert run_source(source, backend=backend).output == f"{MAX_INT} {MIN_INT}\n"
    with pytest.raises(PascalError) as raised:
        run_source(f"program t; const c = {MAX_INT} + 1; begin end.", backend=backend)
    assert str(raised.value) == "1:42: integer overflow"


def test_assertion_literal_beyond_max_int_is_rejected():
    with pytest.raises(SemanticError) as raised:
        Assertion(unit="p", text=f"x = {TOO_LARGE}")
    assert str(raised.value).startswith("1:5: integer literal")
