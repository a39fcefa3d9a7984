"""Goto restructuring (paper §6), organized as classify-then-reduce.

Every goto-label pair is first classified by
:mod:`repro.transform.goto_taxonomy`; three reduction passes then handle
the reducible cases, each counting what it eliminated per case:

* :func:`reduce_structured_gotos` — same-block gotos become structured
  control flow: a forward conditional goto (``if c then goto L``) whose
  skipped statements define no labels becomes an inverted conditional
  over those statements, and a backward conditional goto that is its
  label's only source becomes a ``repeat ... until not c`` loop.

* :func:`eliminate_loop_gotos` — a goto jumping from inside a while/repeat
  /for loop to a label outside the loop becomes a flag-guarded exit: the
  loop condition tests a ``leave`` flag, the goto sets the flag and jumps
  to a fresh label at the end of the body, and a dispatch after the loop
  re-issues the original goto (the paper's ``whilelab`` example).

* :func:`break_global_gotos` — one round of the paper's global-goto
  breaking: a routine performing a goto to a label declared in an
  enclosing routine gets a ``var exitcond: integer`` parameter; the goto
  becomes ``exitcond := k; goto exitlab`` with ``exitlab`` at the end of
  the body; every call site tests ``exitcond`` and re-issues a local goto.
  If that re-issued goto is itself global, the next round handles it —
  the pipeline iterates to a fixpoint.

Function routines with exit side effects cannot be rewritten this way
(statements cannot be inserted after a call embedded in an expression);
they are reported in ``warnings`` and left untouched, as is any remaining
construct the paper's method excludes (``*_into_block`` and
``sibling_blocks`` jumps — see ``docs/CORPUS.md`` for the taxonomy).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.pascal.symbols import Symbol, SymbolKind
from repro.transform.goto_taxonomy import (
    GotoCase,
    TaxonomyReport,
    carried_gotos,
    classify_program,
)
from repro.transform.mapping import SourceMap
from repro.transform.rewriter import Rewriter, shared_list


@dataclass
class GotoEliminationResult:
    """What one pass made of its input program.

    A pass that would rewrite nothing returns its input program itself,
    uncopied, with an empty source map and ``changed`` False; a caller
    tells that case apart by ``program is analysis.program``.
    """

    program: ast.Program
    source_map: SourceMap
    changed: bool
    warnings: list[str] = field(default_factory=list)
    #: routine name -> exitcond parameter name (global-goto rounds)
    exit_params: dict[str, str] = field(default_factory=dict)
    #: taxonomy case name -> gotos this pass eliminated
    eliminated: dict[str, int] = field(default_factory=dict)


def _unchanged(
    analysis: AnalyzedProgram, warnings: list[str] | None = None
) -> GotoEliminationResult:
    """The result of a pass with nothing to rewrite: its input program."""
    return GotoEliminationResult(
        program=analysis.program,
        source_map=SourceMap(),
        changed=False,
        warnings=warnings or [],
    )


class _GotoRewriter(Rewriter):
    """A pass's rewriter: counts what it eliminates per taxonomy case.

    ``report`` is the classification of ``analysis`` when the caller
    already has it; otherwise the program is classified on the first
    read of :attr:`_cases`.
    """

    def __init__(
        self, analysis: AnalyzedProgram, report: TaxonomyReport | None = None
    ):
        super().__init__(analysis)
        self.changed = False
        self.warnings: list[str] = []
        self.eliminated: dict[str, int] = {}
        #: routine name -> exitcond parameter name (global-goto rounds)
        self.exit_params: dict[str, str] = {}
        self._report = report

    @cached_property
    def _cases(self) -> dict[int, GotoCase]:
        """goto node id -> taxonomy case, for every goto in the program."""
        report = self._report
        if report is None:
            report = classify_program(self.analysis)
        return {pair.goto_id: pair.case for pair in report.pairs}

    def result(self) -> GotoEliminationResult:
        """Rewrite the whole program."""
        program = self.rewrite_program()
        return GotoEliminationResult(
            program=program,
            source_map=self.source_map,
            changed=self.changed,
            warnings=self.warnings,
            exit_params=self.exit_params,
            eliminated=self.eliminated,
        )


# ----------------------------------------------------------------------
# helpers


def _fresh_label(analysis: AnalyzedProgram, reserved: set[str]) -> str:
    """An unused numeric label, well away from user labels."""
    used = set(reserved)
    for info in analysis.all_routines():
        used.update(info.labels)
    candidate = 9000
    while str(candidate) in used:
        candidate += 1
    reserved.add(str(candidate))
    return str(candidate)


_LOOPS = (ast.While, ast.Repeat, ast.For)


def _escaping_gotos(loop: ast.While | ast.Repeat | ast.For) -> list[ast.Goto]:
    """Gotos inside the loop's body whose target lies outside it.

    Global gotos are included, exactly as in the paper: "If the label
    is declared outside the procedure surrounding the while-statement,
    then the new global goto is handled by a later transformation" —
    the loop pass moves the jump after the loop; the global-goto pass
    then converts the moved jump into an exit parameter.
    """
    body = loop.body if isinstance(loop, ast.Repeat) else [loop.body]
    inside = [child for stmt in body for child in ast.iter_statements(stmt)]
    labels = {child.label for child in inside if child.label is not None}
    return [
        child
        for child in inside
        if isinstance(child, ast.Goto) and child.target not in labels
    ]


def _has_escaping_goto(analysis: AnalyzedProgram) -> bool:
    """Whether any loop holds an escaping goto: the loop pass rewrites
    exactly those loops, so without one it has nothing to do."""
    return any(
        isinstance(stmt, _LOOPS) and _escaping_gotos(stmt)
        for info in analysis.all_routines()
        if info.local_gotos or info.global_gotos
        for stmt in ast.iter_statements(info.block.body)
    )


def _highest_gadt_counter(analysis: AnalyzedProgram) -> int:
    """Highest N among existing gadt_leave_N / gadt_limit_N declarations,
    so repeated passes never collide with their own earlier output.
    Variables are declared only in the blocks of the program and its
    routines, so those are all it reads."""
    highest = 0
    for info in analysis.all_routines():
        for var in info.block.variables:
            if var.name.startswith(("gadt_leave_", "gadt_limit_")):
                suffix = var.name.rsplit("_", 1)[-1]
                if suffix.isdigit():
                    highest = max(highest, int(suffix))
    return highest


# ----------------------------------------------------------------------
# goto-out-of-loop


class _LoopGotoRewriter(_GotoRewriter):
    """Rewrites loops containing gotos that target labels outside the loop."""

    def __init__(
        self, analysis: AnalyzedProgram, report: TaxonomyReport | None = None
    ):
        super().__init__(analysis, report)
        self._reserved_labels: set[str] = set()
        self._counter = _highest_gadt_counter(analysis)
        #: declarations to add per original block node id
        self._new_vars: dict[int, list[ast.VarDecl]] = {}
        self._new_labels: dict[int, list[ast.LabelDecl]] = {}
        self._current_blocks: list[ast.Block] = []

    # -- block bookkeeping

    def rewrite_block(self, block: ast.Block, owner: ast.Node) -> ast.Block:
        self._current_blocks.append(block)
        try:
            return super().rewrite_block(block, owner)
        finally:
            self._current_blocks.pop()

    def finish_block(
        self, new_block: ast.Block, original: ast.Block, owner: ast.Node
    ) -> ast.Block:
        new_vars = self._new_vars.pop(original.node_id, [])
        new_labels = self._new_labels.pop(original.node_id, [])
        if new_vars or new_labels:
            new_block = self.own(new_block)
            new_block.variables.extend(new_vars)
            new_block.labels.extend(new_labels)
        return new_block

    def _declare(self, var: ast.VarDecl | None, label: ast.LabelDecl | None) -> None:
        block = self._current_blocks[-1]
        if var is not None:
            self.synthesize(var)
            self._new_vars.setdefault(block.node_id, []).append(var)
        if label is not None:
            self.synthesize(label)
            self._new_labels.setdefault(block.node_id, []).append(label)

    # -- synthesized pieces

    def _int_expr(self, value: int) -> ast.IntLiteral:
        literal = ast.IntLiteral(value=value)
        self.source_map.record_synthesized(literal)
        return literal

    def _var(self, name: str) -> ast.VarRef:
        ref = ast.VarRef(name=name)
        self.source_map.record_synthesized(ref)
        return ref

    def _assign(self, name: str, value: int) -> ast.Assign:
        stmt = ast.Assign(target=self._var(name), value=self._int_expr(value))
        self.source_map.record_synthesized(stmt)
        return stmt

    def _synth(self, node: ast.Node) -> ast.Node:
        self.source_map.record_synthesized(node)
        return node

    def _rewrite_loop_with_escapes(
        self,
        stmt: ast.While | ast.Repeat | ast.For,
        escaping: list[ast.Goto],
    ) -> list[ast.Stmt]:
        """The paper's flag-guarded rewrite, generalized to several targets."""
        self.changed = True
        for goto in escaping:
            # Synthesized cascade jumps from an enclosing loop's rewrite
            # are not in the map; the original goto was already counted.
            case = self._cases.get(goto.node_id)
            if case is not None:
                self.eliminated[case.value] = self.eliminated.get(case.value, 0) + 1
        self._counter += 1
        leave = f"gadt_leave_{self._counter}"
        exit_label = _fresh_label(self.analysis, self._reserved_labels)
        targets: dict[str, int] = {}
        for goto in escaping:
            targets.setdefault(goto.target, len(targets) + 1)

        self._declare(
            ast.VarDecl(name=leave, type_expr=ast.NamedType(name="integer")),
            ast.LabelDecl(label=exit_label),
        )

        replacements = {
            goto.node_id: self._escape_replacement(goto, leave, targets, exit_label)
            for goto in escaping
        }
        new_body = self._rewrite_with_replacements(stmt, replacements)

        guard = ast.BinaryOp(
            op="=", left=self._var(leave), right=self._int_expr(0)
        )
        self._synth(guard)
        trailer = ast.EmptyStmt(label=exit_label)
        self._synth(trailer)

        if isinstance(stmt, ast.While):
            loop: ast.Stmt = ast.While(
                condition=ast.BinaryOp(
                    op="and", left=self.rewrite_expr(stmt.condition), right=guard
                ),
                body=self._with_trailer(new_body, trailer),
                location=stmt.location,
                label=stmt.label,
            )
            self._synth(loop.condition)
            self.source_map.record(loop, stmt)
        elif isinstance(stmt, ast.Repeat):
            not_guard = ast.BinaryOp(
                op="<>", left=self._var(leave), right=self._int_expr(0)
            )
            self._synth(not_guard)
            body_list = (
                new_body.statements
                if isinstance(new_body, ast.Compound)
                else [new_body]
            )
            loop = ast.Repeat(
                body=body_list + [trailer],
                condition=ast.BinaryOp(
                    op="or", left=self.rewrite_expr(stmt.condition), right=not_guard
                ),
                location=stmt.location,
                label=stmt.label,
            )
            self._synth(loop.condition)
            self.source_map.record(loop, stmt)
        else:  # For: lower to a while with an explicit counter and limit
            loop = self._lower_for(stmt, new_body, guard, trailer, leave)

        prologue = self._assign(leave, 0)
        dispatch = [
            self._dispatch_if(leave, code, label)
            for label, code in sorted(targets.items(), key=lambda item: item[1])
        ]
        return [prologue, loop, *dispatch]

    def _with_trailer(self, body: ast.Stmt, trailer: ast.Stmt) -> ast.Compound:
        if isinstance(body, ast.Compound):
            body = self.own(body)
            body.statements.append(trailer)
            return body
        compound = ast.Compound(statements=[body, trailer])
        self._synth(compound)
        return compound

    def _lower_for(
        self,
        stmt: ast.For,
        new_body: ast.Stmt,
        guard: ast.BinaryOp,
        trailer: ast.Stmt,
        leave: str,
    ) -> ast.Stmt:
        self._counter += 1
        limit = f"gadt_limit_{self._counter}"
        self._declare(
            ast.VarDecl(name=limit, type_expr=ast.NamedType(name="integer")), None
        )
        compare = ">=" if stmt.downto else "<="
        step = -1 if stmt.downto else 1
        condition = ast.BinaryOp(
            op="and",
            left=ast.BinaryOp(
                op=compare, left=self._var(stmt.variable), right=self._var(limit)
            ),
            right=guard,
        )
        self._synth(condition)
        increment = ast.Assign(
            target=self._var(stmt.variable),
            value=ast.BinaryOp(
                op="+", left=self._var(stmt.variable), right=self._int_expr(step)
            ),
        )
        self._synth(increment)
        body = self._with_trailer(new_body, trailer)
        body.statements.append(increment)
        loop = ast.Compound(
            statements=[
                ast.Assign(
                    target=self._var(stmt.variable),
                    value=self.rewrite_expr(stmt.start),
                ),
                ast.Assign(
                    target=self._var(limit), value=self.rewrite_expr(stmt.stop)
                ),
                ast.While(condition=condition, body=body),
            ],
            location=stmt.location,
            label=stmt.label,
        )
        for child in loop.statements:
            self._synth(child)
        self.source_map.record(loop, stmt)
        return loop

    def _escape_replacement(
        self,
        goto: ast.Goto,
        leave: str,
        targets: dict[str, int],
        exit_label: str,
    ) -> ast.Stmt:
        jump = ast.Goto(target=exit_label)
        self._synth(jump)
        replacement = ast.Compound(
            statements=[self._assign(leave, targets[goto.target]), jump],
            location=goto.location,
            label=goto.label,
        )
        self.source_map.record(replacement, goto)
        return replacement

    def _dispatch_if(self, leave: str, code: int, label: str) -> ast.If:
        jump = ast.Goto(target=label)
        self._synth(jump)
        condition = ast.BinaryOp(
            op="=", left=self._var(leave), right=self._int_expr(code)
        )
        self._synth(condition)
        dispatch = ast.If(condition=condition, then_branch=jump)
        self._synth(dispatch)
        return dispatch

    def _rewrite_with_replacements(
        self, loop: ast.While | ast.Repeat | ast.For, replacements: dict[int, ast.Stmt]
    ) -> ast.Stmt:
        """Rewrite the loop body, substituting the escaping gotos."""
        saved = getattr(self, "_replacements", None)
        self._replacements = replacements
        try:
            if isinstance(loop, ast.Repeat):
                body: ast.Stmt = ast.Compound(
                    statements=list(self.rewrite_stmt_list(loop.body))
                )
                self._synth(body)
            else:
                body = self.as_single(self.rewrite_stmt(loop.body))
        finally:
            self._replacements = saved
        return body

    # -- rewrite hooks

    def rewrite_goto(self, stmt: ast.Goto) -> ast.Stmt:
        replacements = getattr(self, "_replacements", None)
        if replacements and stmt.node_id in replacements:
            return replacements[stmt.node_id]
        return self.default_rewrite_stmt(stmt)

    def _rewrite_loop(
        self, stmt: ast.While | ast.Repeat | ast.For
    ) -> ast.Stmt | list[ast.Stmt]:
        escaping = _escaping_gotos(stmt)
        if escaping:
            return self._rewrite_loop_with_escapes(stmt, escaping)
        return self.default_rewrite_stmt(stmt)

    rewrite_while = rewrite_repeat = rewrite_for = _rewrite_loop


def eliminate_loop_gotos(
    analysis: AnalyzedProgram, report: TaxonomyReport | None = None
) -> GotoEliminationResult:
    """Rewrite gotos that jump out of loops into flag-guarded exits.

    ``report``, the classification of ``analysis``, saves classifying it
    again. A program whose loops hold no escaping goto is returned
    uncopied."""
    if not _has_escaping_goto(analysis):
        return _unchanged(analysis)
    return _LoopGotoRewriter(analysis, report).result()


# ----------------------------------------------------------------------
# global gotos


class _GlobalGotoRewriter(_GotoRewriter):
    """One round of breaking global gotos into exit parameters. Its
    plans are made on construction: with none, ``changed`` is False and
    the round has nothing to rewrite."""

    def __init__(
        self, analysis: AnalyzedProgram, report: TaxonomyReport | None = None
    ):
        super().__init__(analysis, report)
        self._reserved_labels: set[str] = set()
        #: affected routine symbol -> (param name, exit label, {label name -> code})
        self._plans: dict[Symbol, tuple[str, str, dict[str, int]]] = {}
        self._routine_stack: list[RoutineInfo] = []
        self._new_vars: dict[int, list[ast.VarDecl]] = {}
        self._current_blocks: list[ast.Block] = []
        self._compute_plans()

    def _compute_plans(self) -> None:
        for info in self.analysis.user_routines():
            if not info.global_gotos:
                continue
            if info.symbol.is_function:
                self.warnings.append(
                    f"function '{info.name}' performs a global goto; calls may "
                    "occur inside expressions, so it cannot be transformed"
                )
                continue
            param_name = f"exitcond_{info.name}"
            exit_label = _fresh_label(self.analysis, self._reserved_labels)
            # The exit code *is* the numeric label: unique per target and
            # stable across rounds, so dispatches composed over several
            # rounds can never disagree about what a code means.
            codes: dict[str, int] = {}
            for goto in info.global_gotos:
                codes.setdefault(goto.target, max(int(goto.target), 1))
            self._plans[info.symbol] = (param_name, exit_label, codes)
            self.exit_params[info.name] = param_name
            self.changed = True

    # -- context tracking

    def rewrite_routine(self, decl: ast.RoutineDecl) -> ast.RoutineDecl:
        self._routine_stack.append(self.routine_info(decl))
        try:
            return super().rewrite_routine(decl)
        finally:
            self._routine_stack.pop()

    def rewrite_block(self, block: ast.Block, owner: ast.Node) -> ast.Block:
        self._current_blocks.append(block)
        try:
            return super().rewrite_block(block, owner)
        finally:
            self._current_blocks.pop()

    def _current_info(self) -> RoutineInfo:
        return self._routine_stack[-1] if self._routine_stack else self.analysis.main

    # -- routine surgery

    def finish_routine(
        self, new_decl: ast.RoutineDecl, original: ast.RoutineDecl
    ) -> ast.RoutineDecl:
        plan = self._plans.get(self.routine_info(original).symbol)
        if plan is None:
            return new_decl
        param_name, exit_label, _codes = plan
        new_decl = self.own(new_decl)
        block = new_decl.block = self.own(new_decl.block)
        body = block.body = self.own(block.body)
        if not any(param.name == param_name for param in new_decl.params):
            param = ast.Param(
                name=param_name,
                type_expr=ast.NamedType(name="integer"),
                mode=ast.ParamMode.VAR,
            )
            self._synth(param)
            self._synth(param.type_expr)
            new_decl.params.append(param)
        if not any(decl.label == exit_label for decl in block.labels):
            label_decl = ast.LabelDecl(label=exit_label)
            self._synth(label_decl)
            block.labels.append(label_decl)
        first = body.statements[0] if body.statements else None
        already_initialized = (
            isinstance(first, ast.Assign)
            and isinstance(first.target, ast.VarRef)
            and first.target.name == param_name
        )
        if not already_initialized:
            init = ast.Assign(
                target=ast.VarRef(name=param_name), value=ast.IntLiteral(value=0)
            )
            for node in init.walk():
                self._synth(node)
            body.statements.insert(0, init)
        trailer = ast.EmptyStmt(label=exit_label)
        self._synth(trailer)
        body.statements.append(trailer)
        return new_decl

    def finish_block(
        self, new_block: ast.Block, original: ast.Block, owner: ast.Node
    ) -> ast.Block:
        new_vars = [
            var
            for var in self._new_vars.pop(original.node_id, [])
            if not any(existing.name == var.name for existing in new_block.variables)
        ]
        if new_vars:
            new_block = self.own(new_block)
            new_block.variables.extend(new_vars)
        return new_block

    # -- goto rewriting inside affected routines

    def rewrite_goto(self, stmt: ast.Goto) -> ast.Stmt | list[ast.Stmt]:
        info = self._current_info()
        plan = self._plans.get(info.symbol) if not info.is_main else None
        if (
            plan is not None
            and self.analysis.goto_is_global.get(stmt.node_id, False)
        ):
            case = self._cases.get(stmt.node_id, GotoCase.GLOBAL_OUT_OF_ROUTINE)
            self.eliminated[case.value] = self.eliminated.get(case.value, 0) + 1
            param_name, exit_label, codes = plan
            assign = ast.Assign(
                target=ast.VarRef(name=param_name),
                value=ast.IntLiteral(value=codes[stmt.target]),
            )
            jump = ast.Goto(target=exit_label)
            replacement = ast.Compound(
                statements=[assign, jump],
                location=stmt.location,
                label=stmt.label,
            )
            for node in replacement.walk():
                self._synth(node)
            self.source_map.record(replacement, stmt)
            return replacement
        return self.default_rewrite_stmt(stmt)

    # -- call-site rewriting

    def rewrite_proccall(self, stmt: ast.ProcCall) -> ast.Stmt | list[ast.Stmt]:
        callee = self.analysis.call_target.get(stmt.node_id)
        plan = self._plans.get(callee) if callee is not None else None
        if plan is None:
            return stmt
        param_name, _exit_label, codes = plan
        new_call = stmt
        already_passed = any(
            isinstance(arg, ast.VarRef) and arg.name == param_name
            for arg in stmt.args
        )
        if not already_passed:
            arg = ast.VarRef(name=param_name)
            self._synth(arg)
            new_call = self.own(stmt)
            new_call.args.append(arg)
        # The caller needs a local to receive the exit condition.
        block = self._current_blocks[-1]
        var = ast.VarDecl(name=param_name, type_expr=ast.NamedType(name="integer"))
        self._synth(var)
        self._synth(var.type_expr)
        existing = self._new_vars.setdefault(block.node_id, [])
        caller = self._current_info()
        caller_has = any(p.name == param_name for p in caller.params) or any(
            v.name == param_name for v in existing
        )
        if not caller_has:
            existing.append(var)
        dispatch: list[ast.Stmt] = [new_call]
        for label, code in sorted(codes.items(), key=lambda item: item[1]):
            jump = ast.Goto(target=label)
            condition = ast.BinaryOp(
                op="=",
                left=ast.VarRef(name=param_name),
                right=ast.IntLiteral(value=code),
            )
            test = ast.If(condition=condition, then_branch=jump)
            for node in test.walk():
                self._synth(node)
            dispatch.append(test)
        return dispatch

    def _synth(self, node: ast.Node) -> None:
        self.source_map.record_synthesized(node)


def break_global_gotos(
    analysis: AnalyzedProgram, report: TaxonomyReport | None = None
) -> GotoEliminationResult:
    """One round of the global-goto transformation (paper §6).

    Run repeatedly (re-analyzing between rounds) until ``changed`` is
    False; each round peels one level of goto nesting. ``report``, the
    classification of ``analysis``, saves classifying it again. A round
    with no routine to rewrite returns its input uncopied, with the
    warnings about the routines it cannot rewrite.
    """
    rewriter = _GlobalGotoRewriter(analysis, report)
    if not rewriter.changed:
        return _unchanged(analysis, rewriter.warnings)
    return rewriter.result()


# ----------------------------------------------------------------------
# same-block (structured) gotos


def _defines_labels(stmts: list[ast.Stmt]) -> bool:
    """True if any statement in ``stmts`` defines a label at any depth."""
    return any(
        child.label is not None
        for stmt in stmts
        for child in ast.iter_statements(stmt)
    )


def _expr_is_pure_total(expr: ast.Expr) -> bool:
    """True when evaluating ``expr`` cannot have effects or fail: no
    function calls, no array indexing, and division only by nonzero
    literals. Such an expression may be dropped outright."""
    return all(_node_is_pure_total(node) for node in expr.walk())


def _node_is_pure_total(node: ast.Node) -> bool:
    if isinstance(node, (ast.FuncCall, ast.IndexedRef)):
        return False
    if isinstance(node, ast.BinaryOp) and node.op in ("div", "mod"):
        divisor = node.right
        return isinstance(divisor, ast.IntLiteral) and divisor.value != 0
    return True


def changes_purity(path: tuple, fault: ast.Expr) -> bool:
    """Could putting ``fault`` in place of the node ``path`` starts at
    (``(node, (parent, ...))``) flip :func:`_expr_is_pure_total` for an
    expression around it? This is the one pass decision that reads an
    operator or a literal: a ``div`` turned into another operator, or a
    divisor literal that crosses 0."""
    node, (parent, _) = path
    if _node_is_pure_total(node) != _node_is_pure_total(fault):
        return True
    return (
        isinstance(parent, ast.BinaryOp)
        and parent.right is node
        and _node_is_pure_total(parent)
        != _node_is_pure_total(replace(parent, right=fault))
    )


class _StructuredGotoRewriter(_GotoRewriter):
    """Reduces same-block gotos to structured control flow.

    Two reductions, both driven by statement-list scanning:

    * *forward*: ``if c then goto L; mid...; L: s`` — when ``mid``
      defines no labels, the skipped statements move into an inverted
      conditional: ``if not c then begin mid... end; L: s``. A bare
      forward ``goto L`` instead deletes the unreachable ``mid``.
    * *backward*: ``L: s...; if c then goto L`` — when the goto is the
      label's only source anywhere in the program and the region defines
      no other top-level labels, the region becomes
      ``L: repeat s... until not c``.
    """

    def __init__(self, analysis: AnalyzedProgram):
        super().__init__(analysis)
        #: label symbol id -> total gotos targeting it, program-wide
        self._target_counts: dict[int, int] = {}
        for goto_id, symbol in analysis.goto_target.items():
            self._target_counts[id(symbol)] = (
                self._target_counts.get(id(symbol), 0) + 1
            )
        self._routine_stack: list[RoutineInfo] = []

    # -- context tracking

    def rewrite_routine(self, decl: ast.RoutineDecl) -> ast.RoutineDecl:
        self._routine_stack.append(self.routine_info(decl))
        try:
            return super().rewrite_routine(decl)
        finally:
            self._routine_stack.pop()

    def _current_info(self) -> RoutineInfo:
        return self._routine_stack[-1] if self._routine_stack else self.analysis.main

    def _count(self, case: GotoCase) -> None:
        self.changed = True
        self.eliminated[case.value] = self.eliminated.get(case.value, 0) + 1

    # -- pattern scanning

    def rewrite_stmt_list(self, statements: list[ast.Stmt]) -> list[ast.Stmt]:
        result: list[ast.Stmt] = []
        index = 0
        while index < len(statements):
            replacement = self._try_reduce(statements, index)
            if replacement is not None:
                new_stmts, resume = replacement
                result.extend(new_stmts)
                index = resume
                continue
            rewritten = self.rewrite_stmt(statements[index])
            if isinstance(rewritten, list):
                result.extend(rewritten)
            else:
                result.append(rewritten)
            index += 1
        return shared_list(result, statements)

    def _try_reduce(
        self, statements: list[ast.Stmt], index: int
    ) -> tuple[list[ast.Stmt], int] | None:
        stmt = statements[index]
        reduced = self._try_forward_conditional(statements, index, stmt)
        if reduced is not None:
            return reduced
        reduced = self._try_forward_bare(statements, index, stmt)
        if reduced is not None:
            return reduced
        if stmt.label is not None:
            return self._try_backward_repeat(statements, index, stmt)
        return None

    def _label_index(
        self, statements: list[ast.Stmt], target: str, start: int
    ) -> int | None:
        for position in range(start, len(statements)):
            if statements[position].label == target:
                return position
        return None

    # -- forward conditional: if c then goto L  /  if c then s else goto L

    def _try_forward_conditional(
        self, statements: list[ast.Stmt], index: int, stmt: ast.Stmt
    ) -> tuple[list[ast.Stmt], int] | None:
        carried = carried_gotos(stmt)
        if len(carried) != 1 or not isinstance(stmt, ast.If):
            return None
        goto = carried[0]
        if self.analysis.goto_is_global.get(goto.node_id, False):
            return None
        target_at = self._label_index(statements, goto.target, index + 1)
        if target_at is None:
            return None
        intermediates = statements[index + 1 : target_at]
        if _defines_labels(intermediates):
            return None
        in_then = self._branch_is_goto(stmt.then_branch, goto)
        other_branch = stmt.else_branch if in_then else stmt.then_branch
        if other_branch is not None and not in_then and stmt.else_branch is None:
            return None  # defensive; cannot happen
        if not intermediates and other_branch is None:
            # `if c then goto L; L: s` — the jump is a no-op; drop the
            # conditional when evaluating c cannot have effects.
            if not _expr_is_pure_total(stmt.condition):
                return None
            if stmt.label is not None:
                keep: ast.Stmt = ast.EmptyStmt(
                    label=stmt.label, location=stmt.location
                )
                self.source_map.record(keep, stmt)
                self._count(GotoCase.FORWARD_SAME_BLOCK)
                return [keep], target_at
            self._count(GotoCase.FORWARD_SAME_BLOCK)
            return [], target_at
        condition = self.rewrite_expr(stmt.condition)
        if in_then:
            condition = ast.UnaryOp(op="not", operand=condition)
            self.source_map.record_synthesized(condition)
        body: list[ast.Stmt] = []
        if other_branch is not None:
            rewritten_other = self.rewrite_stmt(other_branch)
            body.extend(
                rewritten_other
                if isinstance(rewritten_other, list)
                else [rewritten_other]
            )
        body.extend(self.rewrite_stmt_list(intermediates))
        guarded_body: ast.Stmt
        if len(body) == 1 and isinstance(body[0], ast.Compound):
            guarded_body = body[0]
        else:
            guarded_body = ast.Compound(statements=body)
            self.source_map.record_synthesized(guarded_body)
        replacement = ast.If(
            condition=condition,
            then_branch=guarded_body,
            location=stmt.location,
            label=stmt.label,
        )
        self.source_map.record(replacement, stmt)
        self._count(GotoCase.FORWARD_SAME_BLOCK)
        return [replacement], target_at

    def _branch_is_goto(self, branch: ast.Stmt | None, goto: ast.Goto) -> bool:
        if branch is None:
            return False
        if branch is goto:
            return True
        return (
            isinstance(branch, ast.Compound)
            and len(branch.statements) == 1
            and branch.statements[0] is goto
        )

    # -- forward bare goto: unreachable straight-line code

    def _try_forward_bare(
        self, statements: list[ast.Stmt], index: int, stmt: ast.Stmt
    ) -> tuple[list[ast.Stmt], int] | None:
        if not isinstance(stmt, ast.Goto):
            return None
        if self.analysis.goto_is_global.get(stmt.node_id, False):
            return None
        target_at = self._label_index(statements, stmt.target, index + 1)
        if target_at is None:
            return None
        intermediates = statements[index + 1 : target_at]
        if _defines_labels(intermediates):
            return None
        self._count(GotoCase.FORWARD_SAME_BLOCK)
        if stmt.label is not None:
            # `M: goto L` — keep M as an empty landing site.
            keep = ast.EmptyStmt(label=stmt.label, location=stmt.location)
            self.source_map.record(keep, stmt)
            return [keep], target_at
        return [], target_at

    # -- backward conditional goto: region becomes repeat..until

    def _try_backward_repeat(
        self, statements: list[ast.Stmt], index: int, labeled: ast.Stmt
    ) -> tuple[list[ast.Stmt], int] | None:
        label = labeled.label
        info = self._current_info()
        symbol = info.labels.get(label)
        if symbol is None or self._target_counts.get(id(symbol), 0) != 1:
            return None  # label shared, global-targeted, or unused
        for position in range(index + 1, len(statements)):
            candidate = statements[position]
            if candidate.label is not None:
                return None  # another top-level label inside the region
            if (
                isinstance(candidate, ast.If)
                and candidate.else_branch is None
            ):
                carried = carried_gotos(candidate)
                if len(carried) == 1 and carried[0].target == label:
                    if self.analysis.goto_is_global.get(
                        carried[0].node_id, False
                    ):
                        return None
                    return self._build_repeat(
                        statements, index, position, candidate
                    )
        return None

    def _build_repeat(
        self,
        statements: list[ast.Stmt],
        label_at: int,
        goto_at: int,
        carrier: ast.If,
    ) -> tuple[list[ast.Stmt], int]:
        body = self.rewrite_stmt_list(statements[label_at:goto_at])
        label = statements[label_at].label
        body[0] = self.own(body[0])
        body[0].label = None
        condition = ast.UnaryOp(op="not", operand=self.rewrite_expr(carrier.condition))
        self.source_map.record_synthesized(condition)
        loop = ast.Repeat(
            body=body,
            condition=condition,
            location=statements[label_at].location,
            label=label,
        )
        self.source_map.record(loop, carrier)
        self._count(GotoCase.BACKWARD_SAME_BLOCK)
        return [loop], goto_at + 1


#: the only cases :func:`reduce_structured_gotos` rewrites
_SAME_BLOCK_CASES = frozenset(
    {GotoCase.FORWARD_SAME_BLOCK, GotoCase.BACKWARD_SAME_BLOCK}
)


def reduce_structured_gotos(
    analysis: AnalyzedProgram, report: TaxonomyReport | None = None
) -> GotoEliminationResult:
    """Rewrite same-block gotos into structured conditionals and loops.

    ``report`` is the classification of ``analysis`` (built here when
    not given). A program without a same-block goto is returned
    uncopied."""
    if report is None:
        report = classify_program(analysis)
    if not any(pair.case in _SAME_BLOCK_CASES for pair in report.pairs):
        return _unchanged(analysis)
    return _StructuredGotoRewriter(analysis).result()
