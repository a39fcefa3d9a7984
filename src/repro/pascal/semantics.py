"""Semantic analysis for Mini-Pascal.

Resolves every identifier to a :class:`~repro.pascal.symbols.Symbol`,
type-checks the program, and gathers per-routine facts the rest of the
system relies on:

* parameters, locals, and the function-result symbol,
* *direct* non-local reads and writes (the raw material for Banning-style
  side-effect analysis),
* declared labels, and the classification of each ``goto`` as local or
  *global* (targeting a label declared in an enclosing routine — the
  paper's exit side effects),
* every call site with its resolved target.

The main program body is modelled as a pseudo-routine so that the
execution tree, the transformations, and the debugger can treat it
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro import cache as _cache
from repro import obs
from repro.pascal import ast_nodes as ast
from repro.pascal.errors import SemanticError, SourceLocation
from repro.pascal.symbols import (
    ArrayTypeInfo,
    BOOLEAN,
    INTEGER,
    STRING,
    Scope,
    ScalarType,
    Symbol,
    SymbolKind,
    Type,
)

if TYPE_CHECKING:
    from repro.pascal.pretty import PrintedProgram

#: Builtin procedures with special argument rules.
IO_PROCEDURES = {"write", "writeln", "read", "readln"}

#: Builtin integer functions: name -> arity.
BUILTIN_FUNCTIONS = {"abs": 1, "sqr": 1, "odd": 1, "min": 2, "max": 2}

#: Trace actions inserted by the instrumentation pass (paper §6). They
#: accept a string tag followed by any variables; the interpreter forwards
#: them to execution hooks without affecting program semantics.
TRACE_PROCEDURES = {
    "gadt_enter_unit",
    "gadt_exit_unit",
    "gadt_loop_enter",
    "gadt_loop_iter",
    "gadt_loop_exit",
}


@dataclass
class RoutineInfo:
    """Everything the analyzer learned about one routine (or the program body)."""

    symbol: Symbol
    decl: ast.Node  # RoutineDecl, or Program for the main pseudo-routine
    block: ast.Block
    scope: Scope
    params: list[Symbol] = field(default_factory=list)
    locals: list[Symbol] = field(default_factory=list)
    result_symbol: Symbol | None = None
    nonlocal_reads: set[Symbol] = field(default_factory=set)
    nonlocal_writes: set[Symbol] = field(default_factory=set)
    labels: dict[str, Symbol] = field(default_factory=dict)
    local_gotos: list[ast.Goto] = field(default_factory=list)
    global_gotos: list[ast.Goto] = field(default_factory=list)
    call_sites: list[tuple[ast.Node, Symbol]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.symbol.name

    @property
    def qualified_name(self) -> str:
        return self.symbol.qualified_name

    @property
    def is_main(self) -> bool:
        return isinstance(self.decl, ast.Program)

    def __repr__(self) -> str:
        return f"<RoutineInfo {self.qualified_name}>"


@dataclass
class AnalyzedProgram:
    """The semantic model of a program: AST plus resolution side tables."""

    program: ast.Program
    global_scope: Scope
    main: RoutineInfo
    routines: dict[Symbol, RoutineInfo] = field(default_factory=dict)
    # node_id -> resolved entity
    ref_symbol: dict[int, Symbol] = field(default_factory=dict)
    call_target: dict[int, Symbol] = field(default_factory=dict)
    expr_type: dict[int, Type] = field(default_factory=dict)
    goto_target: dict[int, Symbol] = field(default_factory=dict)
    goto_is_global: dict[int, bool] = field(default_factory=dict)
    for_symbol: dict[int, Symbol] = field(default_factory=dict)
    result_assigns: set[int] = field(default_factory=set)
    stmt_routine: dict[int, Symbol] = field(default_factory=dict)
    named_types: dict[int, str] = field(default_factory=dict)  # type-expr node -> declared name
    #: the analysis this one was patched from (:func:`patched_analysis`),
    #: None for a parse: what the compiler shares routine bodies with
    patched_from: "AnalyzedProgram | None" = field(default=None, repr=False, compare=False)

    def routine_named(self, qualified_name: str) -> RoutineInfo:
        """Look up a routine by qualified (or unique unqualified) name."""
        matches = [
            info
            for info in self.routines.values()
            if info.qualified_name == qualified_name or info.name == qualified_name
        ]
        if not matches:
            raise KeyError(f"no routine named {qualified_name!r}")
        if len(matches) > 1:
            exact = [info for info in matches if info.qualified_name == qualified_name]
            if len(exact) == 1:
                return exact[0]
            raise KeyError(f"ambiguous routine name {qualified_name!r}")
        return matches[0]

    def all_routines(self) -> list[RoutineInfo]:
        """All routines including the main pseudo-routine, declaration order."""
        return list(self.routines.values())

    def user_routines(self) -> list[RoutineInfo]:
        """All routines excluding the main pseudo-routine."""
        return [info for info in self.routines.values() if not info.is_main]


class SemanticAnalyzer:
    def __init__(self, program: ast.Program):
        self._program = program
        self._result: AnalyzedProgram | None = None
        self._current: RoutineInfo | None = None

    def analyze(self) -> AnalyzedProgram:
        program = self._program
        builtin_scope = self._make_builtin_scope()
        global_scope = Scope(parent=builtin_scope)

        program_symbol = Symbol(program.name, SymbolKind.PROGRAM, decl=program)
        main = RoutineInfo(
            symbol=program_symbol, decl=program, block=program.block, scope=global_scope
        )
        self._result = AnalyzedProgram(
            program=program, global_scope=global_scope, main=main
        )
        self._result.routines[program_symbol] = main

        self._analyze_block(program.block, global_scope, main)
        return self._result

    # ------------------------------------------------------------------
    # scopes and declarations

    def _make_builtin_scope(self) -> Scope:
        scope = Scope()
        for name in ("integer", "boolean", "string"):
            base = {"integer": INTEGER, "boolean": BOOLEAN, "string": STRING}[name]
            scope.declare(Symbol(name, SymbolKind.TYPE, type=base))
        for name in IO_PROCEDURES | TRACE_PROCEDURES:
            scope.declare(Symbol(name, SymbolKind.BUILTIN))
        for name in BUILTIN_FUNCTIONS:
            scope.declare(Symbol(name, SymbolKind.BUILTIN, result_type=INTEGER))
        return scope

    def _analyze_block(self, block: ast.Block, scope: Scope, info: RoutineInfo) -> None:
        result = self._require_result()
        for label_decl in block.labels:
            symbol = Symbol(
                label_decl.label,
                SymbolKind.LABEL,
                level=scope.level,
                owner=None if info.is_main else info.symbol,
                decl=label_decl,
            )
            scope.declare(symbol)
            info.labels[label_decl.label] = symbol

        for const_decl in block.consts:
            value, const_type = self._eval_const(const_decl.value, scope)
            symbol = Symbol(
                const_decl.name,
                SymbolKind.CONSTANT,
                type=const_type,
                level=scope.level,
                owner=None if info.is_main else info.symbol,
                decl=const_decl,
                const_value=value,
            )
            scope.declare(symbol)

        for type_decl in block.types:
            resolved = self._resolve_type(type_decl.type_expr, scope)
            if isinstance(resolved, ArrayTypeInfo) and resolved.name is None:
                resolved = ArrayTypeInfo(
                    resolved.low, resolved.high, resolved.element, name=type_decl.name
                )
            scope.declare(
                Symbol(
                    type_decl.name,
                    SymbolKind.TYPE,
                    type=resolved,
                    level=scope.level,
                    decl=type_decl,
                )
            )

        for var_decl in block.variables:
            resolved = self._resolve_type(var_decl.type_expr, scope)
            symbol = Symbol(
                var_decl.name,
                SymbolKind.VARIABLE,
                type=resolved,
                level=scope.level,
                owner=None if info.is_main else info.symbol,
                decl=var_decl,
            )
            scope.declare(symbol)
            info.locals.append(symbol)

        for routine_decl in block.routines:
            self._declare_routine(routine_decl, scope, info)

        previous = self._current
        self._current = info
        self._analyze_statement(block.body, scope)
        self._current = previous

        self._check_labels_defined(block, info)

    def _declare_routine(
        self, decl: ast.RoutineDecl, scope: Scope, enclosing: RoutineInfo
    ) -> None:
        result = self._require_result()
        result_type = (
            self._resolve_type(decl.result_type, scope) if decl.result_type is not None else None
        )
        routine_symbol = Symbol(
            decl.name,
            SymbolKind.ROUTINE,
            level=scope.level,
            owner=None if enclosing.is_main else enclosing.symbol,
            decl=decl,
            result_type=result_type,
        )
        scope.declare(routine_symbol)

        routine_scope = Scope(parent=scope, owner=routine_symbol)
        info = RoutineInfo(
            symbol=routine_symbol, decl=decl, block=decl.block, scope=routine_scope
        )
        result.routines[routine_symbol] = info

        for param in decl.params:
            param_type = self._resolve_type(param.type_expr, scope)
            param_symbol = Symbol(
                param.name,
                SymbolKind.PARAMETER,
                type=param_type,
                level=routine_scope.level,
                owner=routine_symbol,
                decl=param,
                param_mode=param.mode,
            )
            routine_scope.declare(param_symbol)
            info.params.append(param_symbol)
            routine_symbol.params.append(param_symbol)

        if result_type is not None:
            info.result_symbol = Symbol(
                decl.name,
                SymbolKind.RESULT,
                type=result_type,
                level=routine_scope.level,
                owner=routine_symbol,
                decl=decl,
            )

        self._analyze_block(decl.block, routine_scope, info)

    def _check_labels_defined(self, block: ast.Block, info: RoutineInfo) -> None:
        defined: dict[str, int] = {}
        for stmt in ast.iter_statements(block.body):
            if stmt.label is not None:
                defined[stmt.label] = defined.get(stmt.label, 0) + 1
                if stmt.label not in info.labels:
                    raise SemanticError(
                        f"label {stmt.label} set on a statement but not declared",
                        stmt.location,
                    )
        for name, symbol in info.labels.items():
            count = defined.get(name, 0)
            if count == 0:
                raise SemanticError(f"label {name} declared but never defined")
            if count > 1:
                raise SemanticError(f"label {name} defined {count} times")

    # ------------------------------------------------------------------
    # types and constants

    def _resolve_type(self, type_expr: ast.TypeExpr, scope: Scope) -> Type:
        result = self._require_result()
        if isinstance(type_expr, ast.NamedType):
            symbol = scope.lookup(type_expr.name)
            if symbol is None or symbol.kind is not SymbolKind.TYPE:
                raise SemanticError(f"unknown type '{type_expr.name}'", type_expr.location)
            result.named_types[type_expr.node_id] = type_expr.name
            assert symbol.type is not None
            return symbol.type
        if isinstance(type_expr, ast.ArrayType):
            low, low_type = self._eval_const(type_expr.low, scope)
            high, high_type = self._eval_const(type_expr.high, scope)
            if low_type is not INTEGER or high_type is not INTEGER:
                raise SemanticError("array bounds must be integer constants", type_expr.location)
            assert isinstance(low, int) and isinstance(high, int)
            if high < low:
                raise SemanticError(
                    f"empty array bounds [{low}..{high}]", type_expr.location
                )
            element = self._resolve_type(type_expr.element, scope)
            return ArrayTypeInfo(low, high, element)
        raise SemanticError("unsupported type expression", type_expr.location)

    def _eval_const(self, expr: ast.Expr, scope: Scope) -> tuple[object, Type]:
        """Evaluate a compile-time constant expression."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value, INTEGER
        if isinstance(expr, ast.BoolLiteral):
            return expr.value, BOOLEAN
        if isinstance(expr, ast.StringLiteral):
            return expr.value, STRING
        if isinstance(expr, ast.VarRef):
            symbol = scope.lookup(expr.name)
            if symbol is None or symbol.kind is not SymbolKind.CONSTANT:
                raise SemanticError(
                    f"'{expr.name}' is not a constant", expr.location
                )
            assert symbol.type is not None
            return symbol.const_value, symbol.type
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            value, value_type = self._eval_const(expr.operand, scope)
            if value_type is not INTEGER:
                raise SemanticError("unary '-' needs an integer constant", expr.location)
            assert isinstance(value, int)
            return -value, INTEGER
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-", "*", "div", "mod"):
            left, left_type = self._eval_const(expr.left, scope)
            right, right_type = self._eval_const(expr.right, scope)
            if left_type is not INTEGER or right_type is not INTEGER:
                raise SemanticError("constant arithmetic needs integers", expr.location)
            assert isinstance(left, int) and isinstance(right, int)
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "div": lambda a, b: _const_div(a, b, expr),
                "mod": lambda a, b: _const_mod(a, b, expr),
            }
            return ops[expr.op](left, right), INTEGER
        raise SemanticError("expression is not a compile-time constant", expr.location)

    # ------------------------------------------------------------------
    # statements

    def _analyze_statement(self, stmt: ast.Stmt, scope: Scope) -> None:
        result = self._require_result()
        current = self._require_current()
        result.stmt_routine[stmt.node_id] = current.symbol

        if isinstance(stmt, ast.EmptyStmt):
            return
        if isinstance(stmt, ast.Compound):
            for child in stmt.statements:
                self._analyze_statement(child, scope)
            return
        if isinstance(stmt, ast.Assign):
            self._analyze_assign(stmt, scope)
            return
        if isinstance(stmt, ast.ProcCall):
            self._analyze_proc_call(stmt, scope)
            return
        if isinstance(stmt, ast.If):
            self._require_type(stmt.condition, BOOLEAN, scope, "if condition")
            self._analyze_statement(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self._analyze_statement(stmt.else_branch, scope)
            return
        if isinstance(stmt, ast.While):
            self._require_type(stmt.condition, BOOLEAN, scope, "while condition")
            self._analyze_statement(stmt.body, scope)
            return
        if isinstance(stmt, ast.Repeat):
            for child in stmt.body:
                self._analyze_statement(child, scope)
            self._require_type(stmt.condition, BOOLEAN, scope, "until condition")
            return
        if isinstance(stmt, ast.For):
            self._analyze_for(stmt, scope)
            return
        if isinstance(stmt, ast.Goto):
            self._analyze_goto(stmt, scope)
            return
        raise SemanticError(f"unsupported statement {type(stmt).__name__}", stmt.location)

    def _analyze_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        result = self._require_result()
        target_type = self._analyze_target(stmt.target, scope)
        value_type = self._analyze_expr(stmt.value, scope)
        if not _assignable(target_type, value_type, stmt.value):
            raise SemanticError(
                f"cannot assign {value_type} to {target_type}", stmt.location
            )

    def _analyze_target(self, target: ast.Expr, scope: Scope) -> Type:
        """Resolve an assignment target; handles function-result assignment."""
        result = self._require_result()
        current = self._require_current()
        if isinstance(target, ast.VarRef):
            # Assignment to an enclosing function's name sets its result.
            info = self._find_enclosing_function(target.name)
            if info is not None:
                assert info.result_symbol is not None
                result.ref_symbol[target.node_id] = info.result_symbol
                result.result_assigns.add(target.node_id)
                assert info.result_symbol.type is not None
                result.expr_type[target.node_id] = info.result_symbol.type
                self._note_nonlocal(info.result_symbol, write=True)
                assert info.result_symbol.type is not None
                return info.result_symbol.type
            symbol = self._resolve_variable(target.name, target.location, scope)
            result.ref_symbol[target.node_id] = symbol
            assert symbol.type is not None
            result.expr_type[target.node_id] = symbol.type
            if symbol.kind is SymbolKind.CONSTANT:
                raise SemanticError(f"cannot assign to constant '{symbol.name}'", target.location)
            if symbol.param_mode == ast.ParamMode.IN_:
                raise SemanticError(
                    f"cannot assign to 'in' parameter '{symbol.name}'", target.location
                )
            self._note_nonlocal(symbol, write=True)
            return symbol.type
        if isinstance(target, ast.IndexedRef):
            base_type = self._analyze_target(target.base, scope)
            if not isinstance(base_type, ArrayTypeInfo):
                raise SemanticError("indexed target is not an array", target.location)
            self._require_type(target.index, INTEGER, scope, "array index")
            result.expr_type[target.node_id] = base_type.element
            # An element store preserves the rest of the array: the old
            # value flows through, so the root is also *read* here.
            node: ast.Expr = target
            while isinstance(node, ast.IndexedRef):
                node = node.base
            if isinstance(node, ast.VarRef):
                root = result.ref_symbol.get(node.node_id)
                if root is not None:
                    self._note_nonlocal(root, write=False)
            return base_type.element
        raise SemanticError("invalid assignment target", target.location)

    def _find_enclosing_function(self, name: str) -> RoutineInfo | None:
        result = self._require_result()
        info: RoutineInfo | None = self._current
        while info is not None and not info.is_main:
            if info.symbol.name == name and info.result_symbol is not None:
                return info
            owner = info.symbol.owner
            info = result.routines.get(owner) if owner is not None else result.main
        return None

    def _analyze_for(self, stmt: ast.For, scope: Scope) -> None:
        result = self._require_result()
        symbol = self._resolve_variable(stmt.variable, stmt.location, scope)
        if symbol.type is not INTEGER:
            raise SemanticError("for-loop variable must be an integer", stmt.location)
        result.for_symbol[stmt.node_id] = symbol
        self._note_nonlocal(symbol, write=True)
        self._require_type(stmt.start, INTEGER, scope, "for-loop start")
        self._require_type(stmt.stop, INTEGER, scope, "for-loop stop")
        self._analyze_statement(stmt.body, scope)

    def _analyze_goto(self, stmt: ast.Goto, scope: Scope) -> None:
        result = self._require_result()
        current = self._require_current()
        label = scope.lookup_label(stmt.target)
        if label is None:
            raise SemanticError(f"goto to undeclared label {stmt.target}", stmt.location)
        result.goto_target[stmt.node_id] = label
        is_global = stmt.target not in current.labels
        result.goto_is_global[stmt.node_id] = is_global
        if is_global:
            current.global_gotos.append(stmt)
        else:
            current.local_gotos.append(stmt)

    def _analyze_proc_call(self, stmt: ast.ProcCall, scope: Scope) -> None:
        result = self._require_result()
        current = self._require_current()
        symbol = scope.lookup(stmt.name)
        if symbol is None:
            raise SemanticError(f"call to undeclared procedure '{stmt.name}'", stmt.location)
        if symbol.kind is SymbolKind.BUILTIN:
            self._analyze_io_call(stmt, symbol, scope)
            return
        if symbol.kind is not SymbolKind.ROUTINE:
            raise SemanticError(f"'{stmt.name}' is not a procedure", stmt.location)
        if symbol.is_function:
            raise SemanticError(
                f"function '{stmt.name}' called as a procedure", stmt.location
            )
        self._check_call_args(stmt, symbol, stmt.args, scope)
        result.call_target[stmt.node_id] = symbol
        current.call_sites.append((stmt, symbol))

    def _analyze_io_call(self, stmt: ast.ProcCall, symbol: Symbol, scope: Scope) -> None:
        if stmt.name in ("read", "readln"):
            for arg in stmt.args:
                if not isinstance(arg, (ast.VarRef, ast.IndexedRef)):
                    raise SemanticError("read expects variables", arg.location)
                arg_type = self._analyze_expr(arg, scope, as_target=True)
                if arg_type not in (INTEGER, BOOLEAN):
                    raise SemanticError("read expects integer or boolean variables", arg.location)
        elif stmt.name in TRACE_PROCEDURES:
            for arg in stmt.args:
                self._analyze_expr(arg, scope)
        else:
            for arg in stmt.args:
                self._analyze_expr(arg, scope)
        result = self._require_result()
        result.call_target[stmt.node_id] = symbol

    def _check_call_args(
        self, call: ast.Node, routine: Symbol, args: list[ast.Expr], scope: Scope
    ) -> None:
        if len(args) != len(routine.params):
            raise SemanticError(
                f"'{routine.name}' expects {len(routine.params)} argument(s), got {len(args)}",
                call.location,
            )
        for arg, param in zip(args, routine.params):
            if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT):
                arg_type = self._analyze_expr(arg, scope, as_target=True)
                if not isinstance(arg, (ast.VarRef, ast.IndexedRef)):
                    raise SemanticError(
                        f"argument for var parameter '{param.name}' must be a variable",
                        arg.location,
                    )
                if arg_type != param.type:
                    raise SemanticError(
                        f"var argument type {arg_type} does not match parameter "
                        f"'{param.name}' of type {param.type}",
                        arg.location,
                    )
            else:
                arg_type = self._analyze_expr(arg, scope)
                assert param.type is not None
                if not _assignable(param.type, arg_type, arg):
                    raise SemanticError(
                        f"argument type {arg_type} does not match parameter "
                        f"'{param.name}' of type {param.type}",
                        arg.location,
                    )

    # ------------------------------------------------------------------
    # expressions

    def _require_type(
        self, expr: ast.Expr, expected: Type, scope: Scope, context: str
    ) -> None:
        actual = self._analyze_expr(expr, scope)
        if actual != expected:
            raise SemanticError(f"{context} must be {expected}, got {actual}", expr.location)

    def _analyze_expr(self, expr: ast.Expr, scope: Scope, as_target: bool = False) -> Type:
        result = self._require_result()
        expr_type = self._analyze_expr_inner(expr, scope, as_target)
        result.expr_type[expr.node_id] = expr_type
        return expr_type

    def _analyze_expr_inner(self, expr: ast.Expr, scope: Scope, as_target: bool) -> Type:
        result = self._require_result()
        if isinstance(expr, ast.IntLiteral):
            return INTEGER
        if isinstance(expr, ast.BoolLiteral):
            return BOOLEAN
        if isinstance(expr, ast.StringLiteral):
            return STRING
        if isinstance(expr, ast.VarRef):
            symbol = self._resolve_variable(expr.name, expr.location, scope)
            result.ref_symbol[expr.node_id] = symbol
            self._note_nonlocal(symbol, write=as_target)
            assert symbol.type is not None
            return symbol.type
        if isinstance(expr, ast.IndexedRef):
            base_type = self._analyze_expr(expr.base, scope, as_target)
            if not isinstance(base_type, ArrayTypeInfo):
                raise SemanticError("indexing a non-array value", expr.location)
            self._require_type(expr.index, INTEGER, scope, "array index")
            return base_type.element
        if isinstance(expr, ast.ArrayLiteral):
            return self._analyze_array_literal(expr, scope)
        if isinstance(expr, ast.FuncCall):
            return self._analyze_func_call(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                self._require_type(expr.operand, INTEGER, scope, "unary '-' operand")
                return INTEGER
            if expr.op == "not":
                self._require_type(expr.operand, BOOLEAN, scope, "'not' operand")
                return BOOLEAN
            raise SemanticError(f"unknown unary operator {expr.op}", expr.location)
        if isinstance(expr, ast.BinaryOp):
            return self._analyze_binary(expr, scope)
        raise SemanticError(f"unsupported expression {type(expr).__name__}", expr.location)

    def _analyze_array_literal(self, expr: ast.ArrayLiteral, scope: Scope) -> Type:
        if not expr.elements:
            raise SemanticError("empty array literal", expr.location)
        element_type = self._analyze_expr(expr.elements[0], scope)
        for element in expr.elements[1:]:
            other = self._analyze_expr(element, scope)
            if other != element_type:
                raise SemanticError(
                    "array literal elements must share one type", element.location
                )
        return ArrayTypeInfo(1, len(expr.elements), element_type)

    def _analyze_func_call(self, expr: ast.FuncCall, scope: Scope) -> Type:
        result = self._require_result()
        current = self._require_current()
        symbol = scope.lookup(expr.name)
        if symbol is None:
            raise SemanticError(f"call to undeclared function '{expr.name}'", expr.location)
        if symbol.kind is SymbolKind.BUILTIN:
            arity = BUILTIN_FUNCTIONS.get(expr.name)
            if arity is None:
                raise SemanticError(f"'{expr.name}' is not a function", expr.location)
            if len(expr.args) != arity:
                raise SemanticError(
                    f"'{expr.name}' expects {arity} argument(s)", expr.location
                )
            for arg in expr.args:
                self._require_type(arg, INTEGER, scope, f"argument of {expr.name}")
            result.call_target[expr.node_id] = symbol
            return BOOLEAN if expr.name == "odd" else INTEGER
        if symbol.kind is not SymbolKind.ROUTINE or not symbol.is_function:
            raise SemanticError(f"'{expr.name}' is not a function", expr.location)
        self._check_call_args(expr, symbol, expr.args, scope)
        result.call_target[expr.node_id] = symbol
        current.call_sites.append((expr, symbol))
        assert symbol.result_type is not None
        return symbol.result_type

    def _analyze_binary(self, expr: ast.BinaryOp, scope: Scope) -> Type:
        op = expr.op
        if op in ("+", "-", "*", "div", "mod", "/"):
            self._require_type(expr.left, INTEGER, scope, f"'{op}' operand")
            self._require_type(expr.right, INTEGER, scope, f"'{op}' operand")
            return INTEGER
        if op in ("and", "or"):
            self._require_type(expr.left, BOOLEAN, scope, f"'{op}' operand")
            self._require_type(expr.right, BOOLEAN, scope, f"'{op}' operand")
            return BOOLEAN
        if op in ("=", "<>", "<", "<=", ">", ">="):
            left_type = self._analyze_expr(expr.left, scope)
            right_type = self._analyze_expr(expr.right, scope)
            if left_type != right_type:
                raise SemanticError(
                    f"comparison between {left_type} and {right_type}", expr.location
                )
            if isinstance(left_type, ArrayTypeInfo) and op not in ("=", "<>"):
                raise SemanticError("arrays support only = and <>", expr.location)
            return BOOLEAN
        raise SemanticError(f"unknown operator {op}", expr.location)

    # ------------------------------------------------------------------
    # helpers

    def _resolve_variable(self, name: str, location, scope: Scope) -> Symbol:
        symbol = scope.lookup(name)
        if symbol is None:
            raise SemanticError(f"undeclared identifier '{name}'", location)
        if symbol.kind in (
            SymbolKind.VARIABLE,
            SymbolKind.PARAMETER,
            SymbolKind.CONSTANT,
            SymbolKind.RESULT,
        ):
            return symbol
        raise SemanticError(f"'{name}' is not a variable", location)

    def _note_nonlocal(self, symbol: Symbol, write: bool) -> None:
        """Record a direct non-local variable access by the current routine."""
        current = self._require_current()
        if current.is_main:
            return
        if symbol.kind is SymbolKind.CONSTANT:
            return  # constants cannot be side-effected
        if symbol.owner is current.symbol:
            return
        if write:
            current.nonlocal_writes.add(symbol)
        else:
            current.nonlocal_reads.add(symbol)

    def _require_result(self) -> AnalyzedProgram:
        assert self._result is not None
        return self._result

    def _require_current(self) -> RoutineInfo:
        assert self._current is not None
        return self._current


def _assignable(target: Type, value: Type, value_expr: ast.Expr) -> bool:
    if target == value:
        return True
    # An array literal may initialize a larger array (filled from the low
    # bound; remaining elements stay undefined) — mirrors the paper's own
    # use of [1,2] where a bigger array is declared.
    if (
        isinstance(target, ArrayTypeInfo)
        and isinstance(value, ArrayTypeInfo)
        and isinstance(value_expr, ast.ArrayLiteral)
        and value.element == target.element
        and value.length <= target.length
    ):
        return True
    return False


def _const_div(a: int, b: int, expr: ast.Expr) -> int:
    if b == 0:
        raise SemanticError("constant division by zero", expr.location)
    return _pascal_div(a, b)


def _const_mod(a: int, b: int, expr: ast.Expr) -> int:
    if b == 0:
        raise SemanticError("constant modulo by zero", expr.location)
    return _pascal_mod(a, b)


def _pascal_div(a: int, b: int) -> int:
    """Pascal's div truncates toward zero (unlike Python's floor division)."""
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _pascal_mod(a: int, b: int) -> int:
    """Pascal's mod satisfies a = (a div b) * b + (a mod b)."""
    return a - _pascal_div(a, b) * b


def analyze(program: ast.Program) -> AnalyzedProgram:
    """Run semantic analysis on a parsed program."""
    return SemanticAnalyzer(program).analyze()


@dataclass(frozen=True, eq=False)
class AnalysisPatch:
    """The recipe for the analysis of a program that differs from
    ``base``'s in one expression, built by :meth:`build` without lexing,
    parsing or analysing anything.

    ``fault`` takes the place of the node ``path`` starts at; ``path``
    links it to the root, ``(node, (parent, (..., (program, None))))``.
    The node is an expression on the line of statement ``host`` in
    ``printed``, the text of ``base``. ``fault`` keeps the node's id and
    its type, so every side table of ``base`` holds for the variant.
    """

    base: AnalyzedProgram
    printed: PrintedProgram
    path: tuple
    host: ast.Stmt
    fault: ast.Expr

    def locations(self) -> dict[int, SourceLocation]:
        """Where a parse of the variant's text locates each expression on
        ``host``'s line, by node id: the one line whose layout changed."""
        line, columns = self.printed.head_columns(self.host, self.path[0], self.fault)
        return {
            node_id: SourceLocation(line, column) for node_id, column in columns.items()
        }

    def build(self) -> AnalyzedProgram:
        """A fresh analysis of the variant's text, up to node ids.

        Only the host statement, its expressions and the host's
        ancestors are copied, each keeping its node id; every other node
        and every side table is shared with ``base``, which is never
        written. The copied expressions take their columns from the
        re-rendered line (:meth:`locations`).
        """
        original, host = self.path[0], self.host
        locations = self.locations()
        copies: dict[int, ast.Node] = {}  # id(base node) -> its copy

        def relocated_expressions(node: ast.Node) -> dict:
            changes = {}
            for name in ast.child_fields(type(node)):
                value = getattr(node, name)
                if isinstance(value, ast.Expr):
                    changes[name] = relocate(value)
                elif isinstance(value, list) and value and isinstance(value[0], ast.Expr):
                    changes[name] = [relocate(item) for item in value]
            return changes

        def relocate(expr: ast.Expr) -> ast.Expr:
            node = self.fault if expr is original else expr
            copy = copies[id(expr)] = replace(
                node,
                location=locations[expr.node_id],
                **relocated_expressions(node),
            )
            return copy

        link = self.path
        while link[0] is not host:
            link = link[1]
        return patched_analysis(self.base, [(link, relocated_expressions(host))], copies)


def patched_analysis(
    base: AnalyzedProgram, edits: list[tuple[tuple, dict]], copies: dict[int, ast.Node]
) -> AnalyzedProgram:
    """``base`` with each ``(path, changes)`` of ``edits`` applied, built
    by copying only what changes.

    ``path`` links a node of ``base`` to the root, ``(node, (parent,
    (..., (program, None))))``; the node is copied with the field
    ``changes``, then each of its ancestors with the copy of its child.
    Paths may share ancestors and one node may be another's ancestor:
    each copy starts from the latest copy of its node. ``copies``
    (id of a base node -> its copy) collects every copy, and may
    already hold copies of nodes below the edited ones. Every copy
    keeps its node id, so each side table of ``base`` is shared; the
    routine infos whose declaration was copied are rebuilt, and with
    them their call sites. The result records ``base`` as the analysis
    it was patched from.
    """
    for (node, link), changes in edits:
        held = copies.get(id(node), node)  # what the parent holds now
        copy = copies[id(node)] = replace(held, **changes)
        while link is not None:
            parent, link = link
            holder = copies.get(id(parent), parent)
            copy = copies[id(parent)] = _with_child(holder, held, copy)
            held = holder
    routines: dict[Symbol, RoutineInfo] = {}
    for symbol, info in base.routines.items():
        decl = copies.get(id(info.decl))
        if decl is not None:
            info = replace(
                info,
                decl=decl,
                block=copies[id(info.block)],
                call_sites=[
                    (copies.get(id(call), call), target)
                    for call, target in info.call_sites
                ],
            )
        routines[symbol] = info
    return replace(
        base,
        program=copies[id(base.program)],
        main=routines[base.main.symbol],
        routines=routines,
        patched_from=base,
    )


def _with_child(parent: ast.Node, child: ast.Node, copy: ast.Node) -> ast.Node:
    """A copy of ``parent`` (same id) with ``copy`` in place of ``child``."""
    for name in ast.child_fields(type(parent)):
        value = getattr(parent, name)
        if value is child:
            return replace(parent, **{name: copy})
        if isinstance(value, list) and any(item is child for item in value):
            return replace(
                parent, **{name: [copy if item is child else item for item in value]}
            )
    raise ValueError(f"{child!r} is not a child of {parent!r}")


#: content-addressed cache for :func:`analyze_source` (see repro.cache)
_ANALYSIS_CACHE = _cache.register("analysis")

#: :class:`AnalysisPatch` recipes by the digest of the text each builds
#: the analysis of; bounded, so a lost recipe only costs a parse
_PATCHES = _cache.register("patch", max_entries=1024, persistable=False)


def register_patch(source: str, patch: AnalysisPatch) -> None:
    """Have :func:`analyze_source` build the analysis of ``source`` with
    ``patch`` instead of a parse, whenever it is not cached."""
    _PATCHES.put(_cache.source_key(source), patch)


def forget_patch(source: str) -> None:
    """Drop the recipe registered for ``source``, if any: its analysis
    is then built by a parse, or served from the cache."""
    _PATCHES.discard(_cache.source_key(source))


def registered_patch(source: str) -> AnalysisPatch | None:
    """The recipe registered for ``source`` (see :func:`register_patch`),
    or None."""
    return _PATCHES.peek(_cache.source_key(source))


def analyze_source(source: str, cached: bool = True) -> AnalyzedProgram:
    """Parse and analyze Mini-Pascal source text.

    Results are served from a content-addressed cache keyed on the
    source hash: identical text returns the identical
    :class:`AnalyzedProgram` object (analysis is pure and consumers
    never mutate it); any edit yields a fresh analysis. A text with a
    registered :class:`AnalysisPatch` (a mutant) is built by patching
    its base's analysis rather than parsed. Pass ``cached=False`` to
    force a parse: the reference the patched analyses are tested
    against.
    """
    from repro.pascal.parser import parse_program

    if not cached:
        return analyze(parse_program(source))
    key = _cache.source_key(source)

    def build() -> AnalyzedProgram:
        patch = _PATCHES.peek(key)
        if patch is None:
            return analyze(parse_program(source))
        with obs.span("pascal.analyze.patch"):
            analysis = patch.build()
        obs.add("pascal.analyze.patched")
        return analysis

    return _ANALYSIS_CACHE.get_or_build(key, build)
