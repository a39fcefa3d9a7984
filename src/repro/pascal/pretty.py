"""Pretty-printer: Mini-Pascal AST back to source text.

Used for three things:

* showing the user original-program constructs during debugging
  (transparency, paper §6.1),
* emitting computed slices as runnable programs (paper §4: "the reduced
  program, which is an independent program, is called a slice"),
* round-trip property tests (print → reparse → identical tree).
"""

from __future__ import annotations

from repro.pascal import ast_nodes as ast

# Matches the parser's grammar: one (non-associative) relational layer at
# the bottom, then additive/or, then multiplicative/and — classic Pascal.
_BINARY_PRECEDENCE = {
    "=": 1,
    "<>": 1,
    "<": 1,
    "<=": 1,
    ">": 1,
    ">=": 1,
    "+": 2,
    "-": 2,
    "or": 2,
    "*": 3,
    "/": 3,
    "div": 3,
    "mod": 3,
    "and": 3,
}

_RELATIONAL_OPS = {"=", "<>", "<", "<=", ">", ">="}

_UNARY_PRECEDENCE = 4

_ATOM_PRECEDENCE = 10


class PrettyPrinter:
    def __init__(self, indent: str = "  "):
        self._indent_unit = indent
        self._lines: list[str] = []
        self._depth = 0
        #: id(stmt) -> (line index, start, end): where the text of
        #: :meth:`_head` sits in the statement's line; what follows
        #: ``end`` (a statement list's ``;``) was appended later
        self._heads: dict[int, tuple[int, int, int]] = {}
        #: :meth:`format_expr` prints ``_substitute`` in place of ``_original``
        self._original: ast.Expr | None = None
        self._substitute: ast.Expr | None = None
        #: see :meth:`format_head`
        self._anchors: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # entry points

    def print_program(self, program: ast.Program) -> str:
        self._lines = []
        self._depth = 0
        self._heads = {}
        self._emit(f"program {program.name};")
        self._print_block(program.block)
        # Replace the trailing 'end' of the main body with 'end.'
        self._lines[-1] = self._lines[-1] + "."
        return "\n".join(self._lines) + "\n"

    def print_statement(self, stmt: ast.Stmt) -> str:
        self._lines = []
        self._depth = 0
        self._print_stmt(stmt)
        return "\n".join(self._lines) + "\n"

    def print_routine(self, routine: ast.RoutineDecl) -> str:
        self._lines = []
        self._depth = 0
        self._print_routine(routine)
        return "\n".join(self._lines) + "\n"

    # ------------------------------------------------------------------
    # output helpers

    def _emit(self, text: str) -> None:
        self._lines.append(self._indent_unit * self._depth + text if text else "")

    def _emit_head(self, stmt: ast.Stmt) -> None:
        indent = self._indent_unit * self._depth
        text = self._head(stmt)
        self._heads[id(stmt)] = (len(self._lines), len(indent), len(indent) + len(text))
        self._lines.append(indent + text)

    # ------------------------------------------------------------------
    # declarations

    def _print_block(self, block: ast.Block) -> None:
        if block.labels:
            labels = ", ".join(decl.label for decl in block.labels)
            self._emit(f"label {labels};")
        if block.consts:
            self._emit("const")
            self._depth += 1
            for const in block.consts:
                self._emit(f"{const.name} = {self.format_expr(const.value)};")
            self._depth -= 1
        if block.types:
            self._emit("type")
            self._depth += 1
            for type_decl in block.types:
                self._emit(f"{type_decl.name} = {self.format_type(type_decl.type_expr)};")
            self._depth -= 1
        if block.variables:
            self._emit("var")
            self._depth += 1
            for var in block.variables:
                self._emit(f"{var.name}: {self.format_type(var.type_expr)};")
            self._depth -= 1
        for routine in block.routines:
            self._print_routine(routine)
        self._print_compound(block.body)

    def _print_routine(self, routine: ast.RoutineDecl) -> None:
        keyword = "function" if routine.is_function else "procedure"
        params = self._format_params(routine.params)
        suffix = f": {self.format_type(routine.result_type)}" if routine.is_function else ""
        self._emit(f"{keyword} {routine.name}{params}{suffix};")
        self._depth += 1
        self._print_block(routine.block)
        self._lines[-1] = self._lines[-1] + ";"
        self._depth -= 1

    def _format_params(self, params: list[ast.Param]) -> str:
        if not params:
            return ""
        groups: list[str] = []
        index = 0
        while index < len(params):
            group = [params[index]]
            while (
                index + len(group) < len(params)
                and params[index + len(group)].mode == group[0].mode
                and self.format_type(params[index + len(group)].type_expr)
                == self.format_type(group[0].type_expr)
            ):
                group.append(params[index + len(group)])
            names = ", ".join(param.name for param in group)
            prefix = {"value": "", "var": "var ", "in": "in ", "out": "out "}[group[0].mode]
            groups.append(f"{prefix}{names}: {self.format_type(group[0].type_expr)}")
            index += len(group)
        return "(" + "; ".join(groups) + ")"

    def format_type(self, type_expr: ast.TypeExpr | None) -> str:
        if type_expr is None:
            return ""
        if isinstance(type_expr, ast.NamedType):
            return type_expr.name
        if isinstance(type_expr, ast.ArrayType):
            low = self.format_expr(type_expr.low)
            high = self.format_expr(type_expr.high)
            return f"array[{low}..{high}] of {self.format_type(type_expr.element)}"
        raise TypeError(f"unknown type expression {type_expr!r}")

    # ------------------------------------------------------------------
    # statements

    def _print_stmt(self, stmt: ast.Stmt) -> None:
        prefix = _label_prefix(stmt)
        if isinstance(stmt, ast.EmptyStmt):
            # An empty statement has no text of its own; only a label
            # (a goto target) forces it onto a line.
            if prefix:
                self._emit(prefix.rstrip(" "))
            return
        if isinstance(stmt, ast.Compound):
            if prefix:
                self._emit(prefix.rstrip())
            self._print_compound(stmt)
            return
        if isinstance(stmt, (ast.Assign, ast.ProcCall)):
            self._emit_head(stmt)
            return
        if isinstance(stmt, ast.If):
            self._emit_head(stmt)
            self._print_indented(stmt.then_branch)
            if stmt.else_branch is not None:
                self._emit("else")
                self._print_indented(stmt.else_branch)
            return
        if isinstance(stmt, (ast.While, ast.For)):
            self._emit_head(stmt)
            self._print_indented(stmt.body)
            return
        if isinstance(stmt, ast.Repeat):
            self._emit(f"{prefix}repeat")
            self._depth += 1
            self._print_stmt_list(stmt.body)
            self._depth -= 1
            self._emit_head(stmt)
            return
        if isinstance(stmt, ast.Goto):
            self._emit(f"{prefix}goto {stmt.target}")
            return
        raise TypeError(f"unknown statement {stmt!r}")

    def _head(self, stmt: ast.Stmt) -> str:
        """The text of the one line holding ``stmt``'s own expressions:
        the whole of an assignment or call, the header of an ``if``,
        ``while`` or ``for`` (never the body), the ``until`` of a
        ``repeat``."""
        out: list[str] = []
        if isinstance(stmt, ast.Repeat):
            out.append("until ")
            self._write_expr(stmt.condition, 0, out)
            return "".join(out)
        out.append(_label_prefix(stmt))
        if isinstance(stmt, ast.Assign):
            self._write_expr(stmt.target, 0, out)
            out.append(" := ")
            self._write_expr(stmt.value, 0, out)
        elif isinstance(stmt, ast.ProcCall):
            out.append(stmt.name)
            if stmt.args:
                out.append("(")
                self._write_list(stmt.args, out)
                out.append(")")
        elif isinstance(stmt, ast.If):
            out.append("if ")
            self._write_expr(stmt.condition, 0, out)
            out.append(" then")
        elif isinstance(stmt, ast.While):
            out.append("while ")
            self._write_expr(stmt.condition, 0, out)
            out.append(" do")
        elif isinstance(stmt, ast.For):
            out.append(f"for {stmt.variable} := ")
            self._write_expr(stmt.start, 0, out)
            out.append(" downto " if stmt.downto else " to ")
            self._write_expr(stmt.stop, 0, out)
            out.append(" do")
        else:
            raise TypeError(f"statement {stmt!r} has no expression line")
        return "".join(out)

    def format_head(
        self,
        stmt: ast.Stmt,
        original: ast.Expr,
        substitute: ast.Expr,
        anchors: dict[int, int] | None = None,
    ) -> str:
        """:meth:`_head` of ``stmt`` with ``substitute`` printed in place of
        ``original``, one of the expressions on that line. ``anchors``, if
        given, receives node id -> offset in the returned text of the
        token a parse locates each printed expression at: an operator's
        own token, else the expression's first token."""
        self._original, self._substitute = original, substitute
        self._anchors = anchors
        try:
            return self._head(stmt)
        finally:
            self._original = self._substitute = self._anchors = None

    def _print_indented(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Compound) and stmt.label is None:
            self._print_compound(stmt)
        else:
            self._depth += 1
            self._print_stmt(stmt)
            self._depth -= 1

    def _print_compound(self, compound: ast.Compound) -> None:
        self._emit("begin")
        self._depth += 1
        self._print_stmt_list(compound.statements)
        self._depth -= 1
        self._emit("end")

    def _print_stmt_list(self, statements: list[ast.Stmt]) -> None:
        for index, child in enumerate(statements):
            before = len(self._lines)
            self._print_stmt(child)
            if index < len(statements) - 1 and len(self._lines) > before:
                self._lines[-1] = self._lines[-1] + ";"

    # ------------------------------------------------------------------
    # expressions

    def format_expr(self, expr: ast.Expr, parent_precedence: int = 0) -> str:
        out: list[str] = []
        self._write_expr(expr, parent_precedence, out)
        return "".join(out)

    def _write_expr(self, expr: ast.Expr, floor: int, out: list[str]) -> None:
        """Append the text of ``expr`` to ``out``, parenthesized if it
        binds looser than ``floor``."""
        if expr is self._original:
            expr = self._substitute
        precedence = _precedence(expr)
        if precedence < floor:
            out.append("(")
            self._write_bare(expr, precedence, out)
            out.append(")")
        else:
            self._write_bare(expr, precedence, out)

    def _write_bare(self, expr: ast.Expr, precedence: int, out: list[str]) -> None:
        anchors = self._anchors
        if anchors is not None and not isinstance(expr, ast.BinaryOp):
            anchors[expr.node_id] = sum(map(len, out))
        if isinstance(expr, ast.IntLiteral):
            out.append(str(expr.value))
        elif isinstance(expr, ast.BoolLiteral):
            out.append("true" if expr.value else "false")
        elif isinstance(expr, ast.StringLiteral):
            escaped = expr.value.replace("'", "''")
            out.append(f"'{escaped}'")
        elif isinstance(expr, ast.VarRef):
            out.append(expr.name)
        elif isinstance(expr, ast.IndexedRef):
            self._write_expr(expr.base, _UNARY_PRECEDENCE, out)
            out.append("[")
            self._write_expr(expr.index, 0, out)
            out.append("]")
        elif isinstance(expr, ast.FuncCall):
            out.append(f"{expr.name}(")
            self._write_list(expr.args, out)
            out.append(")")
        elif isinstance(expr, ast.ArrayLiteral):
            out.append("[")
            self._write_list(expr.elements, out)
            out.append("]")
        elif isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                # A sign binds a whole *term* in the grammar, so printed
                # unary minus sits at additive precedence: `(-a) * b`
                # needs its parentheses, `-a + b` does not.
                out.append("-")
                self._write_expr(expr.operand, 3, out)
            else:
                out.append("not ")
                self._write_expr(expr.operand, _UNARY_PRECEDENCE + 1, out)
        elif isinstance(expr, ast.BinaryOp):
            # Relationals are non-associative: parenthesize both operands
            # if they are relational themselves.
            left_floor = precedence + 1 if expr.op in _RELATIONAL_OPS else precedence
            self._write_expr(expr.left, left_floor, out)
            if anchors is not None:
                anchors[expr.node_id] = sum(map(len, out)) + 1
            out.append(f" {expr.op} ")
            self._write_expr(expr.right, precedence + 1, out)
        else:
            raise TypeError(f"unknown expression {expr!r}")

    def _write_list(self, exprs: list[ast.Expr], out: list[str]) -> None:
        """Append ``exprs`` to ``out``, comma-separated."""
        for index, expr in enumerate(exprs):
            if index:
                out.append(", ")
            self._write_expr(expr, 0, out)


def _precedence(expr: ast.Expr) -> int:
    """How tightly ``expr`` binds as printed; atoms bind tightest."""
    if isinstance(expr, ast.BinaryOp):
        return _BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, ast.UnaryOp):
        return 2 if expr.op == "-" else _UNARY_PRECEDENCE
    return _ATOM_PRECEDENCE


def _label_prefix(stmt: ast.Stmt) -> str:
    return f"{stmt.label}: " if stmt.label is not None else ""


class PrintedProgram:
    """A program's text, printed once, from which a variant differing in
    one expression is made by re-rendering a single line.

    Every expression of a routine or main body sits on the line of its
    innermost statement (:meth:`PrettyPrinter._head`). The variant
    re-renders that whole line, not just the changed token, so a change
    of precedence re-parenthesizes exactly as a full reprint would; the
    line's ``;`` from the enclosing statement list is kept. Lines never
    move, so only the expressions on that line change columns
    (:meth:`head_columns`).

    Read-only once built: each re-render uses a printer of its own, so
    threads may share one instance.
    """

    def __init__(self, program: ast.Program):
        self.program = program  # keeps the ids in the head table valid
        printer = PrettyPrinter()
        self.text = printer.print_program(program)
        #: id(stmt) -> (line index, start, end), as in the printer
        self._heads = printer._heads
        self._line_starts = [0]
        for line in printer._lines:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)

    def substituted(self, stmt: ast.Stmt, original: ast.Expr, substitute: ast.Expr) -> str:
        """The program text with ``substitute`` in place of ``original``,
        an expression on ``stmt``'s own line. The program is not touched."""
        index, start, end = self._heads[id(stmt)]
        line_start = self._line_starts[index]
        head = PrettyPrinter().format_head(stmt, original, substitute)
        return self.text[: line_start + start] + head + self.text[line_start + end :]

    def head_columns(
        self, stmt: ast.Stmt, original: ast.Expr, substitute: ast.Expr
    ) -> tuple[int, dict[int, int]]:
        """Where a parse of :meth:`substituted`'s text locates the
        expressions on ``stmt``'s line: that line (1-based) and, by node
        id, each expression's column (``substitute`` under the id it
        shares with ``original``)."""
        index, start, _ = self._heads[id(stmt)]
        anchors: dict[int, int] = {}
        PrettyPrinter().format_head(stmt, original, substitute, anchors)
        return index + 1, {node_id: start + offset + 1 for node_id, offset in anchors.items()}


def print_program(program: ast.Program) -> str:
    """Render a program AST as Mini-Pascal source text."""
    return PrettyPrinter().print_program(program)


def print_statement(stmt: ast.Stmt) -> str:
    """Render a single statement (with nested structure) as source text."""
    return PrettyPrinter().print_statement(stmt)


def print_routine(routine: ast.RoutineDecl) -> str:
    """Render a routine declaration as source text."""
    return PrettyPrinter().print_routine(routine)


def format_expr(expr: ast.Expr) -> str:
    """Render an expression as source text."""
    return PrettyPrinter().format_expr(expr)
