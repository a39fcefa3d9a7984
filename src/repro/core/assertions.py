"""Assertions: partial specifications that answer queries (paper §3, §5.3.1).

Following [Drabent, Nadjm-Tehrani, Maluszynski 88], the user may answer a
query with an *assertion* instead of yes/no: a Boolean expression over
the unit's parameters and globals describing its intended behaviour.
The assertion answers the current query and is stored so later queries
about the same unit never reach the user.

Assertions are written in Mini-Pascal expression syntax. Names resolve
against the query's bindings: a plain name takes the *output* value when
one exists, the input value otherwise; the prefixes ``in_`` and ``out_``
select explicitly; ``result`` names a function's result. Example, for
the paper's ``partialsums(In y, Out s1, Out s2)``::

    (s1 = y * (y + 1) div 2) and (s2 = (y - 1) * y div 2)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queries import Answer, AnswerSource, Query
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalRuntimeError
from repro.pascal.parser import parse_expression
from repro.pascal.semantics import check_literals
from repro.pascal.values import (
    ArrayValue,
    UNDEFINED,
    binary,
    builtin,
    expect_int,
    unary,
    values_equal,
)
from repro.tracing.execution_tree import BindingMode, ExecNode


class AssertionError_(Exception):
    """Raised when an assertion cannot be evaluated for a query."""


@dataclass(frozen=True)
class Assertion:
    """A stored partial specification for one unit. Its text is parsed
    on construction, so a malformed one raises ``LexError`` or
    ``ParseError`` there, and one with an integer literal beyond
    ``MAX_INT`` a ``SemanticError``."""

    unit: str
    text: str
    #: authoritative assertions answer yes when true; partial assertions
    #: can only refute (false -> no, true -> no answer)
    partial: bool = False
    expr: ast.Expr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expr = parse_expression(self.text)
        check_literals(expr)
        object.__setattr__(self, "expr", expr)

    def __str__(self) -> str:
        return f"{self.unit}: {self.text}"

    def evaluate(self, node: ExecNode) -> bool:
        """The assertion's truth for ``node``'s bindings, evaluated by
        the interpreter's run-time rules; :class:`AssertionError_` if
        it cannot be evaluated there (a run-time error included)."""
        try:
            value = _eval(self.expr, _binding_environment(node))
        except PascalRuntimeError as error:
            raise AssertionError_(error.message) from error
        if not isinstance(value, bool):
            raise AssertionError_(
                f"assertion {self.text!r} is not boolean-valued"
            )
        return value


def _binding_environment(node: ExecNode) -> dict[str, object]:
    env: dict[str, object] = {}
    for binding in node.inputs:
        env[f"in_{binding.name}"] = binding.value
        env.setdefault(binding.name, binding.value)
    for binding in node.outputs:
        if binding.mode is BindingMode.RESULT:
            env["result"] = binding.value
        env[f"out_{binding.name}"] = binding.value
        env[binding.name] = binding.value  # outputs win for plain names
    return env


def _eval(expr: ast.Expr, env: dict[str, object]) -> object:
    """``expr`` over the binding environment ``env``."""
    if isinstance(expr, (ast.IntLiteral, ast.BoolLiteral, ast.StringLiteral)):
        return expr.value
    if isinstance(expr, ast.VarRef):
        if expr.name not in env:
            raise AssertionError_(f"assertion names unknown value {expr.name!r}")
        value = env[expr.name]
        if value is UNDEFINED:
            raise AssertionError_(f"{expr.name!r} is undefined in this query")
        return value
    if isinstance(expr, ast.IndexedRef):
        base = _eval(expr.base, env)
        index = expect_int(_eval(expr.index, env), expr.index.location)
        if not isinstance(base, ArrayValue):
            raise AssertionError_("bad array indexing in assertion")
        if not base.in_bounds(index):
            raise AssertionError_(f"assertion index {index} out of bounds")
        return base.get(index)
    if isinstance(expr, ast.FuncCall):
        return builtin(
            expr, [expect_int(_eval(arg, env), arg.location) for arg in expr.args]
        )
    if isinstance(expr, ast.UnaryOp):
        return unary(expr, _eval(expr.operand, env))
    if isinstance(expr, ast.BinaryOp):
        left, right = _eval(expr.left, env), _eval(expr.right, env)
        if expr.op in ("=", "<>"):
            # an answer compares values as typed: true is not 1
            return values_equal(left, right) == (expr.op == "=")
        return binary(expr, left, right)
    raise AssertionError_(f"unsupported assertion syntax {type(expr).__name__}")


@dataclass
class AssertionStore:
    """Assertions supplied so far, consulted before any other source."""

    _by_unit: dict[str, list[Assertion]] = field(default_factory=dict)
    evaluations: int = 0

    def add(self, assertion: Assertion) -> None:
        self._by_unit.setdefault(assertion.unit, []).append(assertion)

    def assert_unit(self, unit: str, text: str, partial: bool = False) -> Assertion:
        assertion = Assertion(unit=unit, text=text, partial=partial)
        self.add(assertion)
        return assertion

    def for_unit(self, unit: str) -> list[Assertion]:
        return list(self._by_unit.get(unit, ()))

    def try_answer(self, query: Query) -> Answer | None:
        """Answer the query from stored assertions, if any apply.

        Any violated assertion refutes the query; "yes" requires that
        every applicable assertion holds and at least one of them is
        authoritative (non-partial).
        """
        confirming: Assertion | None = None
        for assertion in self._by_unit.get(query.unit_name, ()):
            try:
                holds = assertion.evaluate(query.node)
            except AssertionError_:
                continue  # assertion does not cover this query's values
            self.evaluations += 1
            if not holds:
                return Answer.no(
                    source=AnswerSource.ASSERTION,
                    note=f"violates assertion {assertion.text!r}",
                )
            if not assertion.partial and confirming is None:
                confirming = assertion
        if confirming is not None:
            return Answer.yes(
                source=AnswerSource.ASSERTION,
                note=f"satisfies assertion {confirming.text!r}",
            )
        return None

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_unit.values())
