"""Expression compilation for the compiled backend.

Every expression node compiles, once, to a Python closure
``(rt, frame) -> value``. The closure is specialized at compile time on
everything that is static — which cell a name resolves to, which
operator a ``BinaryOp`` carries, whether the backend is tracing — so at
run time there is no dispatch, no symbol lookup, and (in plain mode) no
tracing residue at all. In traced mode, read-dependence edges are
emitted inline: a variable read appends its cell's last writer directly
to the current occurrence's adjacency list.

Conformance: the operand checks, the 64-bit bounds and ``div``/``mod``
are the run-time rules of :mod:`repro.pascal.values`. The per-operator
closures (``add`` … ``relational``, ``call_abs`` …) inline the fast
path of those rules, a ``type(...) is int`` test and a bounds compare,
and call the shared rule only to raise (``divide`` calls it to
divide); the conformance fuzz holds them to the interpreter.
"""

from __future__ import annotations

from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalRuntimeError, UndefinedValueError
from repro.pascal.semantics import BUILTIN_FUNCTIONS
from repro.pascal.symbols import SymbolKind
from repro.pascal.values import (
    ArrayValue,
    MAX_INT,
    MIN_INT,
    UNDEFINED,
    check_int,
    expect_bool,
    expect_int,
    pascal_div,
    pascal_mod,
)


# ----------------------------------------------------------------------
# lvalue resolution


def compile_resolver(C, ctx, expr):
    """Compile an lvalue to ``(rt, f) -> (cell, element-index-or-None)``,
    in ``Interpreter._resolve_reference``'s evaluation order: base
    first, multi-dimension check, then the index."""
    if isinstance(expr, ast.VarRef):
        symbol = C.analysis.ref_symbol[expr.node_id]
        if symbol.kind is SymbolKind.CONSTANT:
            name = symbol.name
            location = expr.location

            def constant_lvalue(rt, f):
                raise PascalRuntimeError(f"'{name}' is a constant", location)

            return constant_lvalue
        acc = C.cell_accessor(ctx, symbol)
        return lambda rt, f: (acc(rt, f), None)
    if isinstance(expr, ast.IndexedRef):
        base = compile_resolver(C, ctx, expr.base)
        index_ev = compile_expr(C, ctx, expr.index)
        index_loc = expr.index.location
        location = expr.location

        def resolve(rt, f):
            cell, index = base(rt, f)
            if index is not None:
                raise PascalRuntimeError(
                    "multi-dimensional arrays are not supported", location
                )
            element = index_ev(rt, f)
            if type(element) is not int:
                element = expect_int(element, index_loc)
            return cell, element

        return resolve
    location = expr.location

    def not_a_variable(rt, f):
        raise PascalRuntimeError("expression is not a variable", location)

    return not_a_variable


# ----------------------------------------------------------------------
# expression factories


def _literal(C, ctx, expr):
    value = expr.value
    return lambda rt, f: value


def _array_literal(C, ctx, expr):
    element_evs = [compile_expr(C, ctx, element) for element in expr.elements]
    from_values = ArrayValue.from_values
    return lambda rt, f: from_values(ev(rt, f) for ev in element_evs)


def _var_ref(C, ctx, expr):
    symbol = C.analysis.ref_symbol[expr.node_id]
    if symbol.kind is SymbolKind.CONSTANT:
        value = symbol.const_value
        return lambda rt, f: value
    acc = C.cell_accessor(ctx, symbol)
    name = symbol.name
    location = expr.location
    if not C.traced:

        def evaluate_plain(rt, f):
            value = acc(rt, f).value
            if value is UNDEFINED:
                raise UndefinedValueError(
                    f"'{name}' used before assignment", location
                )
            return value

        return evaluate_plain

    def evaluate(rt, f):
        cell = acc(rt, f)
        writers = cell.writers
        if writers is not None:
            ost = rt.occ_stack
            if ost:
                writer = writers.get(None)
                if writer is not None:
                    current = ost[-1]
                    if writer != current:
                        edges = rt.adj[current]
                        if writer not in edges:
                            edges.append(writer)
        value = cell.value
        if value is UNDEFINED:
            raise UndefinedValueError(f"'{name}' used before assignment", location)
        return value

    return evaluate


def _indexed_ref(C, ctx, expr):
    resolver = compile_resolver(C, ctx, expr)
    location = expr.location
    if not C.traced:

        def evaluate_plain(rt, f):
            cell, index = resolver(rt, f)
            array = cell.value
            if not isinstance(array, ArrayValue):
                raise PascalRuntimeError("indexing a non-array value", location)
            if not (array.low <= index <= array.high):
                raise PascalRuntimeError(
                    f"index {index} out of bounds [{array.low}..{array.high}]",
                    location,
                )
            value = array.elements[index - array.low]
            if value is UNDEFINED:
                raise UndefinedValueError(
                    f"array element [{index}] used before assignment", location
                )
            return value

        return evaluate_plain

    def evaluate(rt, f):
        cell, index = resolver(rt, f)
        array = cell.value
        if not isinstance(array, ArrayValue):
            raise PascalRuntimeError("indexing a non-array value", location)
        if not (array.low <= index <= array.high):
            raise PascalRuntimeError(
                f"index {index} out of bounds [{array.low}..{array.high}]",
                location,
            )
        writers = cell.writers
        if writers is not None:
            ost = rt.occ_stack
            if ost:
                current = ost[-1]
                edges = rt.adj[current]
                writer = writers.get(index)
                if writer is not None and writer != current and writer not in edges:
                    edges.append(writer)
                # An element read also depends on whole-array writes.
                whole = writers.get(None)
                if whole is not None and whole != current and whole not in edges:
                    edges.append(whole)
        value = array.elements[index - array.low]
        if value is UNDEFINED:
            raise UndefinedValueError(
                f"array element [{index}] used before assignment", location
            )
        return value

    return evaluate


def _func_call(C, ctx, expr):
    if expr.name in BUILTIN_FUNCTIONS:
        return _builtin_call(C, ctx, expr)
    return C.compile_call(ctx, expr, expr.args)


def _builtin_call(C, ctx, expr):
    arg_evs = [compile_expr(C, ctx, arg) for arg in expr.args]
    arg_locs = [arg.location for arg in expr.args]
    location = expr.location
    name = expr.name
    if name == "abs":
        ev, aloc = arg_evs[0], arg_locs[0]

        def call_abs(rt, f):
            value = ev(rt, f)
            if type(value) is not int:
                value = expect_int(value, aloc)
            result = -value if value < 0 else value
            if result > MAX_INT:
                check_int(result, location)
            return result

        return call_abs
    if name == "sqr":
        ev, aloc = arg_evs[0], arg_locs[0]

        def call_sqr(rt, f):
            value = ev(rt, f)
            if type(value) is not int:
                value = expect_int(value, aloc)
            result = value * value
            if result > MAX_INT:
                check_int(result, location)
            return result

        return call_sqr
    if name == "odd":
        ev, aloc = arg_evs[0], arg_locs[0]

        def call_odd(rt, f):
            value = ev(rt, f)
            if type(value) is not int:
                value = expect_int(value, aloc)
            return value % 2 != 0

        return call_odd
    if name in ("min", "max"):
        left_ev, right_ev = arg_evs
        left_loc, right_loc = arg_locs
        pick = min if name == "min" else max

        def call_minmax(rt, f):
            a = left_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            b = right_ev(rt, f)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            return pick(a, b)

        return call_minmax

    def call_unknown(rt, f):
        for ev, aloc in zip(arg_evs, arg_locs):
            value = ev(rt, f)
            if type(value) is not int:
                expect_int(value, aloc)
        raise PascalRuntimeError(f"unknown builtin {name}")

    return call_unknown


def _unary_op(C, ctx, expr):
    operand_ev = compile_expr(C, ctx, expr.operand)
    operand_loc = expr.operand.location
    location = expr.location
    op = expr.op
    if op == "-":

        def negate(rt, f):
            value = operand_ev(rt, f)
            if type(value) is not int:
                value = expect_int(value, operand_loc)
            value = -value
            if value > MAX_INT:  # -MIN_INT
                check_int(value, location)
            return value

        return negate
    if op == "not":

        def invert(rt, f):
            value = operand_ev(rt, f)
            if type(value) is not bool:
                expect_bool(value, operand_loc)
            return not value

        return invert

    def unknown_unary(rt, f):
        operand_ev(rt, f)
        raise PascalRuntimeError(f"unknown unary operator {op}", location)

    return unknown_unary


def _binary_op(C, ctx, expr):
    op = expr.op
    # 'and'/'or' evaluate both operands eagerly, as in classic Pascal.
    left_ev = compile_expr(C, ctx, expr.left)
    right_ev = compile_expr(C, ctx, expr.right)
    left_loc = expr.left.location
    right_loc = expr.right.location
    location = expr.location

    if op == "+":

        def add(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            result = a + b
            if result > MAX_INT or result < MIN_INT:
                check_int(result, location)
            return result

        return add
    if op == "-":

        def sub(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            result = a - b
            if result > MAX_INT or result < MIN_INT:
                check_int(result, location)
            return result

        return sub
    if op == "*":

        def mul(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            result = a * b
            if result > MAX_INT or result < MIN_INT:
                check_int(result, location)
            return result

        return mul
    if op in ("div", "/", "mod"):
        rule = pascal_mod if op == "mod" else pascal_div

        def divide(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            return rule(a, b, location)

        return divide
    if op == "and":

        def logical_and(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not bool:
                expect_bool(a, left_loc)
            # The shared rule checks b only when a does not decide.
            if not a:
                return a
            if type(b) is not bool:
                expect_bool(b, right_loc)
            return b

        return logical_and
    if op == "or":

        def logical_or(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not bool:
                expect_bool(a, left_loc)
            if a:
                return a
            if type(b) is not bool:
                expect_bool(b, right_loc)
            return b

        return logical_or
    if op == "=":

        def equal(rt, f):
            return left_ev(rt, f) == right_ev(rt, f)

        return equal
    if op == "<>":

        def not_equal(rt, f):
            return not (left_ev(rt, f) == right_ev(rt, f))

        return not_equal
    if op in ("<", "<=", ">", ">="):
        if op == "<":
            compare = lambda a, b: a < b  # noqa: E731
        elif op == "<=":
            compare = lambda a, b: a <= b  # noqa: E731
        elif op == ">":
            compare = lambda a, b: a > b  # noqa: E731
        else:
            compare = lambda a, b: a >= b  # noqa: E731

        def relational(rt, f):
            a = left_ev(rt, f)
            b = right_ev(rt, f)
            if type(a) is not int:
                a = expect_int(a, left_loc)
            if type(b) is not int:
                b = expect_int(b, right_loc)
            return compare(a, b)

        return relational

    def unknown_binary(rt, f):
        left_ev(rt, f)
        right_ev(rt, f)
        raise PascalRuntimeError(f"unknown operator {op}", location)

    return unknown_binary


_EXPR_FACTORIES = {
    ast.IntLiteral: _literal,
    ast.BoolLiteral: _literal,
    ast.StringLiteral: _literal,
    ast.VarRef: _var_ref,
    ast.IndexedRef: _indexed_ref,
    ast.ArrayLiteral: _array_literal,
    ast.FuncCall: _func_call,
    ast.UnaryOp: _unary_op,
    ast.BinaryOp: _binary_op,
}


def compile_expr(C, ctx, expr):
    """Compile one expression node to a ``(rt, frame) -> value`` closure."""
    factory = _EXPR_FACTORIES.get(expr.__class__)
    if factory is None:
        for klass, candidate in list(_EXPR_FACTORIES.items()):
            if isinstance(expr, klass):
                _EXPR_FACTORIES[expr.__class__] = candidate
                factory = candidate
                break
        else:
            raise PascalRuntimeError(
                f"cannot evaluate {type(expr).__name__}", expr.location
            )
    return factory(C, ctx, expr)
