"""Runtime values of Mini-Pascal, and the run-time rules over them.

Integers and booleans are plain Python objects; arrays get a small value
class that knows its bounds. :data:`UNDEFINED` marks never-assigned
storage so the interpreter can report reads of uninitialized variables —
a real bug class the debugger must be able to chase.

The second half of the module defines each run-time rule once:
operand checks, 64-bit overflow, ``div``/``mod``, the builtins, array
widening, step accounting, the budget's limits and the escaped-goto
error. The interpreter evaluates through them, constant folding and
assertions call them, and the compiled engine imports them.
"""

from __future__ import annotations

import sys
from typing import Iterable

from repro.pascal.errors import PascalRuntimeError, SourceLocation, StepLimitExceeded
from repro.pascal.symbols import ArrayTypeInfo, BOOLEAN, INTEGER, STRING, Symbol, Type


class _Undefined:
    """Singleton marking storage that was never assigned."""

    _instance: "_Undefined | None" = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<undefined>"

    def __deepcopy__(self, memo: dict) -> "_Undefined":
        return self


UNDEFINED = _Undefined()


class ArrayValue:
    """A Pascal array value with inclusive integer bounds."""

    __slots__ = ("low", "high", "elements")

    def __init__(self, low: int, high: int, elements: list[object] | None = None):
        self.low = low
        self.high = high
        if elements is None:
            elements = [UNDEFINED] * (high - low + 1)
        if len(elements) != high - low + 1:
            raise ValueError(
                f"array[{low}..{high}] needs {high - low + 1} elements, got {len(elements)}"
            )
        self.elements = elements

    @classmethod
    def from_values(cls, values: Iterable[object], low: int = 1) -> "ArrayValue":
        elements = list(values)
        return cls(low, low + len(elements) - 1, elements)

    def in_bounds(self, index: int) -> bool:
        return self.low <= index <= self.high

    def get(self, index: int) -> object:
        return self.elements[index - self.low]

    def set(self, index: int, value: object) -> None:
        self.elements[index - self.low] = value

    def copy(self) -> "ArrayValue":
        return ArrayValue(self.low, self.high, list(self.elements))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayValue)
            and self.low == other.low
            and self.high == other.high
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.low, self.high, tuple(self.elements)))

    def __repr__(self) -> str:
        return f"ArrayValue({self.low}, {self.high}, {self.elements!r})"

    def __str__(self) -> str:
        return format_value(self)


def default_value(value_type: Type) -> object:
    """Fresh (undefined) storage for a declared type."""
    if isinstance(value_type, ArrayTypeInfo):
        return ArrayValue(value_type.low, value_type.high)
    return UNDEFINED


def copy_value(value: object) -> object:
    """Value-semantics copy: arrays are duplicated, scalars returned as-is."""
    if isinstance(value, ArrayValue):
        return value.copy()
    return value


def format_value(value: object) -> str:
    """Render a value the way the paper's dialogues do: ``3``, ``false``, ``[1,2]``."""
    if value is UNDEFINED:
        return "?"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, ArrayValue):
        inner = ",".join(format_value(element) for element in value.elements)
        return f"[{inner}]"
    raise TypeError(f"not a Pascal value: {value!r}")


def type_of_value(value: object) -> Type:
    """Best-effort dynamic type of a runtime value (used by assertions)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, str):
        return STRING
    if isinstance(value, ArrayValue):
        element = INTEGER
        for item in value.elements:
            if item is not UNDEFINED:
                element = type_of_value(item)
                break
        return ArrayTypeInfo(value.low, value.high, element)
    raise TypeError(f"not a Pascal value: {value!r}")


def values_equal(left: object, right: object) -> bool:
    """Structural equality, treating bool/int distinctly (Pascal types differ)."""
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


# ----------------------------------------------------------------------
# run-time rules
#
# Errors are :class:`PascalRuntimeError` at the location the caller
# passes; a rule taking an expression node reads the locations of the
# node and of its operands from it. The compiled engine's per-operator
# closures and traced statement prologue inline the hot checks; the
# conformance fuzz holds them to these definitions.

#: Pascal integers are bounded; we use 64-bit limits (far beyond the
#: paper-era 16/32-bit maxint, but still overflow-checked so runaway
#: arithmetic fails diagnosably instead of growing without bound).
MAX_INT = 2**63 - 1
MIN_INT = -(2**63)

#: maximum Pascal call depth. A tree-walking run spends several Python
#: frames per Pascal frame, so a run temporarily raises the Python
#: recursion limit (:class:`RecursionHeadroom`) to keep this bound the
#: one that fires.
MAX_CALL_DEPTH = 150

#: a run checks its budget's wall-clock deadline when
#: ``steps & DEADLINE_MASK == 0``, so an infinite loop costs at most the
#: deadline plus 1024 steps
DEADLINE_MASK = 0x3FF


def expect_int(value: object, location) -> int:
    """``value`` if it is a Pascal integer (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise PascalRuntimeError(
            f"expected an integer, got {format_value(value)}", location
        )
    return value


def expect_bool(value: object, location) -> bool:
    """``value`` if it is a Pascal boolean."""
    if not isinstance(value, bool):
        raise PascalRuntimeError(
            f"expected a boolean, got {format_value(value)}", location
        )
    return value


def check_int(value: int, location) -> int:
    """``value`` if it fits the 64-bit integer range."""
    if MIN_INT <= value <= MAX_INT:
        return value
    raise PascalRuntimeError("integer overflow", location)


def _quotient(a: int, b: int, location) -> int:
    """``a / b`` truncated toward zero (Python's ``//`` floors)."""
    if b == 0:
        raise PascalRuntimeError("division by zero", location)
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def pascal_div(a: int, b: int, location) -> int:
    """``a div b``, truncating toward zero. ``MIN_INT div -1`` is the
    one quotient of two integers out of range."""
    return check_int(_quotient(a, b, location), location)


def pascal_mod(a: int, b: int, location) -> int:
    """``a mod b``, so that ``a = (a div b) * b + (a mod b)`` (``MIN_INT
    mod -1`` is 0)."""
    return a - _quotient(a, b, location) * b


def builtin(call, args: list[int]) -> object:
    """The builtin ``call.name`` applied to ``args``, the evaluated
    ``call.args``. The caller checks each argument with
    :func:`expect_int` as it evaluates it, so a bad argument fails
    before the next one runs."""
    name = call.name
    if len(args) == 1:
        if name == "abs":
            return check_int(abs(args[0]), call.location)
        if name == "sqr":
            return check_int(args[0] * args[0], call.location)
        if name == "odd":
            return args[0] % 2 != 0
    elif len(args) == 2:
        if name == "min":
            return check_int(min(args), call.location)
        if name == "max":
            return check_int(max(args), call.location)
    raise PascalRuntimeError(f"unknown builtin {name}")


def unary(expr, operand: object) -> object:
    """``expr.op`` applied to its evaluated operand."""
    if expr.op == "-":
        return check_int(-expect_int(operand, expr.operand.location), expr.location)
    if expr.op == "not":
        return not expect_bool(operand, expr.operand.location)
    raise PascalRuntimeError(f"unknown unary operator {expr.op}", expr.location)


def binary(expr, left: object, right: object) -> object:
    """``expr.op`` applied to its evaluated operands. ``and``/``or``
    evaluate both operands, as in classic Pascal, but check the right
    one only when it decides the result."""
    op = expr.op
    if op in ("+", "-", "*", "div", "mod", "/"):
        a = expect_int(left, expr.left.location)
        b = expect_int(right, expr.right.location)
        if op == "+":
            return check_int(a + b, expr.location)
        if op == "-":
            return check_int(a - b, expr.location)
        if op == "*":
            return check_int(a * b, expr.location)
        if op == "mod":
            return pascal_mod(a, b, expr.location)
        return pascal_div(a, b, expr.location)
    if op == "and":
        return expect_bool(left, expr.left.location) and expect_bool(
            right, expr.right.location
        )
    if op == "or":
        return expect_bool(left, expr.left.location) or expect_bool(
            right, expr.right.location
        )
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op in ("<", "<=", ">", ">="):
        a = expect_int(left, expr.left.location)
        b = expect_int(right, expr.right.location)
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    raise PascalRuntimeError(f"unknown operator {op}", expr.location)


def adapt_value(value: object, target_type: object) -> object:
    """Widen an array value to a larger declared array type."""
    if (
        isinstance(target_type, ArrayTypeInfo)
        and isinstance(value, ArrayValue)
        and (value.low, value.high) != (target_type.low, target_type.high)
    ):
        if len(value.elements) > target_type.length:
            raise PascalRuntimeError(
                f"array value with {len(value.elements)} elements does not "
                f"fit array[{target_type.low}..{target_type.high}]"
            )
        widened = ArrayValue(target_type.low, target_type.high)
        widened.elements[: len(value.elements)] = value.elements
        return widened
    return value


def run_limits(step_limit: int, budget) -> tuple[int, int]:
    """The step limit and call depth of a run under ``budget`` (a
    :class:`repro.resilience.Budget`, duck-typed so this layer imports
    nothing above it; ``None`` for none). A budget only tightens them,
    and its deadline is armed here if it was not started."""
    if budget is None:
        return step_limit, MAX_CALL_DEPTH
    step_limit = budget.effective_step_limit(step_limit)
    max_depth = budget.effective_call_depth(MAX_CALL_DEPTH)
    if budget.deadline_at is None:
        budget.start()
    return step_limit, max_depth


def tick(run, location) -> None:
    """Count one step of ``run`` (anything with ``steps``,
    ``step_limit`` and ``budget``): past the limit it fails, and every
    ``DEADLINE_MASK + 1`` steps it checks the budget's deadline."""
    steps = run.steps + 1
    run.steps = steps
    if steps > run.step_limit:
        raise StepLimitExceeded(f"execution exceeded {run.step_limit} steps", location)
    if run.budget is not None and not steps & DEADLINE_MASK:
        run.budget.check(location)


class GotoSignal(Exception):
    """Non-local transfer of control, unwinding to the defining label."""

    def __init__(self, label: Symbol, location: SourceLocation):
        self.label = label
        self.location = location
        super().__init__(f"goto {label.name}")


class RecursionHeadroom:
    """Context manager giving a run Python-stack headroom."""

    def __enter__(self) -> None:
        self._saved = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._saved, 20_000))

    def __exit__(self, *exc_info) -> None:
        sys.setrecursionlimit(self._saved)


class MainBody(RecursionHeadroom):
    """Context manager around a program's main body: stack headroom,
    and a global goto that escapes the program becomes a run-time
    error."""

    def __exit__(self, kind, error, traceback) -> None:
        super().__exit__()
        if kind is not None and issubclass(kind, GotoSignal):
            raise PascalRuntimeError(
                f"goto {error.label.name} escaped the program", error.location
            )
