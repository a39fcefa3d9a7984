"""Pretty-printer: Mini-Pascal AST back to source text.

Used for three things:

* showing the user original-program constructs during debugging
  (transparency, paper §6.1),
* emitting computed slices as runnable programs (paper §4: "the reduced
  program, which is an independent program, is called a slice"),
* round-trip property tests (print → reparse → identical tree).

The printer knows where a parse of its text locates every node it
prints (:meth:`PrettyPrinter.locate_program`). So the text of a printed
program is analyzed from the program, not read back: :func:`print_program`
and :class:`PrintedProgram` register a recipe for each text they print
(:func:`~repro.pascal.semantics.register_print`), and the first
``analyze_source`` of the text analyzes a copy of the program located
as a parse of the text would be (:func:`relocated`), with no lex or
parse. For :func:`print_program`, registering costs one digest of the
text, and the locations are found by a reprint only when the text is
analyzed.
"""

from __future__ import annotations

from copy import copy
from itertools import zip_longest

from repro.pascal import ast_nodes as ast
from repro.pascal.errors import SourceLocation
from repro.pascal.semantics import register_print

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

_PARAM_PREFIXES = {"value": "", "var": "var ", "in": "in ", "out": "out "}


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
        #: node id -> offset, in the text being built, of the token a
        #: parse locates each node at (see :meth:`format_head`), or None
        self._anchors: dict[int, int] | None = None
        #: while :meth:`locate_program` prints: node id -> location of
        #: every node of the lines printed so far
        self._located: dict[int, SourceLocation] | None = None
        #: nodes a parse locates at the next token printed: a block, an
        #: empty statement
        self._awaiting: list[ast.Node] = []
        #: cleared by :meth:`locate_program`'s print when a parse of the
        #: text would build another tree than the one printed
        self._fixed_point = True

    # ------------------------------------------------------------------
    # entry points

    def print_program(self, program: ast.Program) -> str:
        self._lines = []
        self._depth = 0
        self._heads = {}
        self._anchor(program, 0)
        self._emit(f"program {program.name};")
        self._print_block(program.block)
        # Replace the trailing 'end' of the main body with 'end.'
        self._append(".")
        return "\n".join(self._lines) + "\n"

    def locate_program(
        self, program: ast.Program
    ) -> tuple[str, dict[int, SourceLocation] | None]:
        """:meth:`print_program`'s text, and by node id where a parse of
        it locates each node of ``program``: None if the parse would
        build a tree of another shape (an unlabelled empty statement in
        a statement list, an ``else`` a parse gives the inner ``if``, a
        negative literal such as a ``downto`` loop's step once its loop
        is rewritten), so only a parse can analyze the text."""
        self._located, self._anchors, self._fixed_point = {}, {}, True
        try:
            text = self.print_program(program)
            return text, self._located if self._fixed_point else None
        finally:
            self._located = self._anchors = None
            self._awaiting = []

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
        indent = self._indent_unit * self._depth if text else ""
        if self._located is not None:
            self._locate(len(self._lines) + 1, len(indent) + 1)
        self._lines.append(indent + text)

    def _emit_head(self, stmt: ast.Stmt) -> None:
        text = self._head(stmt)
        start = len(self._indent_unit) * self._depth
        self._heads[id(stmt)] = (len(self._lines), start, start + len(text))
        self._emit(text)

    def _append(self, suffix: str) -> None:
        """Append ``suffix`` (a ``;`` or the final ``.``) to the last line."""
        if self._located is not None:
            self._locate(len(self._lines), len(self._lines[-1]) + 1)
        self._lines[-1] += suffix

    def _locate(self, line: int, column: int) -> None:
        """Locate what comes at ``line``:``column``, the start of the text
        about to be printed: each node :meth:`_anchor`-ed in it, at its
        offset from there, and the nodes awaiting the next token."""
        located = self._located
        new = tuple.__new__  # skips the NamedTuple constructor's argument handling
        for node in self._awaiting:
            located[node.node_id] = new(SourceLocation, (line, column))
        self._awaiting.clear()
        anchors = self._anchors
        for node_id, offset in anchors.items():
            located[node_id] = new(SourceLocation, (line, column + offset))
        anchors.clear()

    def _anchor(self, node: ast.Node, offset: int) -> None:
        """Note that a parse locates ``node`` ``offset`` characters into
        the text being built."""
        if self._anchors is not None:
            self._anchors[node.node_id] = offset

    def _await(self, node: ast.Node) -> None:
        """Note that a parse locates ``node`` at the next token printed."""
        if self._located is not None:
            self._awaiting.append(node)

    # ------------------------------------------------------------------
    # declarations

    def _print_block(self, block: ast.Block) -> None:
        self._await(block)
        if block.labels:
            out = ["label "]
            for index, decl in enumerate(block.labels):
                if index:
                    out.append(", ")
                self._anchor(decl, sum(map(len, out)))
                out.append(decl.label)
            out.append(";")
            self._emit("".join(out))
        if block.consts:
            self._emit("const")
            self._depth += 1
            for const in block.consts:
                self._anchor(const, 0)
                out = [const.name, " = "]
                self._write_expr(const.value, 0, out)
                out.append(";")
                self._emit("".join(out))
            self._depth -= 1
        if block.types:
            self._emit("type")
            self._depth += 1
            for type_decl in block.types:
                self._anchor(type_decl, 0)
                out = [type_decl.name, " = "]
                self._write_type(type_decl.type_expr, out)
                out.append(";")
                self._emit("".join(out))
            self._depth -= 1
        if block.variables:
            self._emit("var")
            self._depth += 1
            for var in block.variables:
                self._anchor(var, 0)
                out = [var.name, ": "]
                self._write_type(var.type_expr, out)
                out.append(";")
                self._emit("".join(out))
            self._depth -= 1
        for routine in block.routines:
            self._print_routine(routine)
        self._print_compound(block.body)

    def _print_routine(self, routine: ast.RoutineDecl) -> None:
        self._anchor(routine, 0)
        out = ["function " if routine.is_function else "procedure ", routine.name]
        if routine.params:
            self._write_params(routine.params, out)
        if routine.is_function:
            out.append(": ")
            self._write_type(routine.result_type, out)
        out.append(";")
        self._emit("".join(out))
        self._depth += 1
        self._print_block(routine.block)
        self._append(";")
        self._depth -= 1

    def _write_params(self, params: list[ast.Param], out: list[str]) -> None:
        """Append ``(params)`` to ``out``, consecutive parameters of one
        mode and type sharing a group."""
        plain = PrettyPrinter()
        types = [plain.format_type(param.type_expr) for param in params]
        out.append("(")
        index = 0
        while index < len(params):
            end = index + 1
            while (
                end < len(params)
                and params[end].mode == params[index].mode
                and types[end] == types[index]
            ):
                end += 1
            if index:
                out.append("; ")
            out.append(_PARAM_PREFIXES[params[index].mode])
            for param in params[index:end]:
                if param is not params[index]:
                    out.append(", ")
                self._anchor(param, sum(map(len, out)))
                out.append(param.name)
            out.append(": ")
            if self._anchors is not None:
                # A parse gives every name of the group a copy of the
                # group's type, located where the type is.
                for param in params[index + 1 : end]:
                    self._write_type(param.type_expr, out[:])
            self._write_type(params[index].type_expr, out)
            index = end
        out.append(")")

    def format_type(self, type_expr: ast.TypeExpr | None) -> str:
        if type_expr is None:
            return ""
        out: list[str] = []
        self._write_type(type_expr, out)
        return "".join(out)

    def _write_type(self, type_expr: ast.TypeExpr, out: list[str]) -> None:
        self._anchor(type_expr, sum(map(len, out)))
        if isinstance(type_expr, ast.NamedType):
            out.append(type_expr.name)
        elif isinstance(type_expr, ast.ArrayType):
            out.append("array[")
            self._write_expr(type_expr.low, 0, out)
            out.append("..")
            self._write_expr(type_expr.high, 0, out)
            out.append("] of ")
            self._write_type(type_expr.element, out)
        else:
            raise TypeError(f"unknown type expression {type_expr!r}")

    # ------------------------------------------------------------------
    # statements

    def _print_stmt(self, stmt: ast.Stmt) -> None:
        prefix = _label_prefix(stmt)
        if isinstance(stmt, ast.EmptyStmt):
            # An empty statement has no text of its own; only a label
            # (a goto target) forces it onto a line. A parse locates it
            # at the token that ends it.
            if prefix:
                self._emit(prefix.rstrip(" "))
            self._await(stmt)
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
                if self._located is not None and _ends_open(stmt.then_branch):
                    self._fixed_point = False  # a parse gives the else to the inner if
                self._emit("else")
                self._print_indented(stmt.else_branch)
            return
        if isinstance(stmt, (ast.While, ast.For)):
            self._emit_head(stmt)
            self._print_indented(stmt.body)
            return
        if isinstance(stmt, ast.Repeat):
            self._anchor(stmt, len(prefix))
            self._emit(f"{prefix}repeat")
            self._depth += 1
            self._print_stmt_list(stmt.body, in_repeat=True)
            self._depth -= 1
            self._emit_head(stmt)
            return
        if isinstance(stmt, ast.Goto):
            self._anchor(stmt, len(prefix))
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
        prefix = _label_prefix(stmt)
        self._anchor(stmt, len(prefix))
        out.append(prefix)
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
        self._anchor(compound, 0)
        self._emit("begin")
        self._depth += 1
        self._print_stmt_list(compound.statements)
        self._depth -= 1
        self._emit("end")

    def _print_stmt_list(self, statements: list[ast.Stmt], in_repeat: bool = False) -> None:
        if self._located is not None and not _parses_as_listed(statements, in_repeat):
            self._fixed_point = False
        for index, child in enumerate(statements):
            before = len(self._lines)
            self._print_stmt(child)
            if index < len(statements) - 1 and len(self._lines) > before:
                self._append(";")

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
            if expr.value < 0:
                self._fixed_point = False  # a parse reads a negation
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


def _parses_as_listed(statements: list[ast.Stmt], in_repeat: bool) -> bool:
    """Whether a parse of the printed list has these statements: an
    unlabelled empty statement prints nothing, so a parse finds one only
    as the one statement of a ``repeat`` (which always holds one)."""
    if in_repeat and len(statements) <= 1:
        return len(statements) == 1
    return not any(
        isinstance(stmt, ast.EmptyStmt) and stmt.label is None for stmt in statements
    )


def _ends_open(stmt: ast.Stmt) -> bool:
    """Whether the text of ``stmt`` ends in an ``if`` without ``else``,
    which a following ``else`` would bind to."""
    while True:
        if isinstance(stmt, ast.If):
            if stmt.else_branch is None:
                return True
            stmt = stmt.else_branch
        elif isinstance(stmt, (ast.While, ast.For)):
            stmt = stmt.body
        else:
            return False


def relocated(
    program: ast.Program,
    digest: tuple,
    located: dict[int, SourceLocation] | None = None,
) -> ast.Program | None:
    """What a parse of ``program``'s printed text builds, made without
    reading the text: a copy of ``program`` with fresh node ids, each
    node located where the parse locates it (``located``, as
    :meth:`PrettyPrinter.locate_program` gives it, or found by a reprint
    that yields text of digest ``digest``, see
    :func:`repro.cache.source_key`). None if the program has changed
    since it was printed, or the parse would not have its shape: one
    node for each node of ``program``."""
    from repro.cache import source_key

    if located is None:
        text, located = PrettyPrinter().locate_program(program)
        if located is None or source_key(text) != digest:
            return None
    ids: dict[int, int] = {}
    copy = ast.clone(program, ids, located)
    # Fewer locations than copies: a node printed twice, or two nodes
    # sharing an id. A parse builds one node per occurrence, each its
    # own id.
    return copy if len(ids) == len(located) else None


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

    The text is registered for analysis from ``program``
    (:func:`~repro.pascal.semantics.register_print`) with the locations
    its print noted, since the mutation generator analyzes it next.

    Read-only once built: each re-render uses a printer of its own, so
    threads may share one instance.
    """

    def __init__(self, program: ast.Program):
        self.program = program  # keeps the ids in the head table valid
        printer = PrettyPrinter()
        # The text is analyzed next, as the base of the mutants: the
        # print notes the locations its analysis is built with.
        self.text, located = printer.locate_program(program)
        if located is not None:
            register_print(self.text, program, located)
        #: id(stmt) -> (line index, start, end), as in the printer
        self._heads = printer._heads
        self._line_starts = [0]
        for line in printer._lines:
            self._line_starts.append(self._line_starts[-1] + len(line) + 1)

    def rebased(self, program: ast.Program) -> "PrintedProgram":
        """This text as printed from ``program``, a parse of it or a copy
        with its statements (:func:`relocated`): the head table is
        carried over statement by statement, with no reprint. A
        ``program`` whose statements differ is printed afresh."""
        heads = {}
        for old, new in zip_longest(_statements(self.program), _statements(program)):
            if old is None or new is None or type(old) is not type(new):
                return PrintedProgram(program)
            head = self._heads.get(id(old))
            if head is not None:
                heads[id(new)] = head
        rebased = copy(self)
        rebased.program, rebased._heads = program, heads
        return rebased

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


def _statements(program: ast.Program):
    """Every statement of ``program``, routine bodies first."""
    for routine in ast.iter_routines(program):
        yield from ast.iter_statements(routine.block.body)
    yield from ast.iter_statements(program.block.body)


def print_program(program: ast.Program) -> str:
    """Render a program AST as Mini-Pascal source text."""
    text = PrettyPrinter().print_program(program)
    register_print(text, program)
    return text


def print_statement(stmt: ast.Stmt) -> str:
    """Render a single statement (with nested structure) as source text."""
    return PrettyPrinter().print_statement(stmt)


def print_routine(routine: ast.RoutineDecl) -> str:
    """Render a routine declaration as source text."""
    return PrettyPrinter().print_routine(routine)


def format_expr(expr: ast.Expr) -> str:
    """Render an expression as source text."""
    return PrettyPrinter().format_expr(expr)
