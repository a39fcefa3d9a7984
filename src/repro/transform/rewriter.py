"""A reusable copy-on-write AST rewriter for transformation passes.

Each pass subclasses :class:`Rewriter` and overrides the hook methods it
cares about. The base class walks the tree and shares what the pass
leaves alone: a statement or expression with nothing rewritten inside
it is returned as the same object, with the same id, and only rewritten
nodes and their ancestors are built new. The *original* node stays in
hand at every step (so node-id-keyed analysis facts remain usable), and
the :class:`~repro.transform.mapping.SourceMap` records only the nodes
the pass creates, each with the input node it descends from; a shared
node is its own original.

A pass may edit only nodes it created: :meth:`Rewriter.own` gives it one
to edit, copying a shared node first. A pass output holds each node
once, so a subtree a pass places twice must be copied
(:meth:`Rewriter.copy`) for its second place.
"""

from __future__ import annotations

from repro import obs
from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.transform.mapping import SourceMap

#: statement class -> the name of its rewrite hook
_HOOKS: dict[type, str] = {}


class Rewriter:
    def __init__(self, analysis: AnalyzedProgram):
        self.analysis = analysis
        self.source_map = SourceMap()
        #: routine declaration id -> its info
        self._routine_infos = {
            info.decl.node_id: info for info in analysis.user_routines()
        }

    def routine_info(self, decl: ast.RoutineDecl) -> RoutineInfo:
        """The analysis's info of the input routine ``decl``."""
        return self._routine_infos[decl.node_id]

    # ------------------------------------------------------------------
    # entry point

    def rewrite_program(self) -> ast.Program:
        """The rewritten program: the input program itself when the pass
        rewrites nothing. Counts the nodes the pass created
        (``transform.nodes_created``)."""
        program = self.analysis.program
        program = self.rebuild(program, block=self.rewrite_block(program.block, program))
        if obs.enabled():
            created = len(self.source_map.to_original) + len(self.source_map.synthesized)
            obs.add("transform.nodes_created", created)
        return program

    # ------------------------------------------------------------------
    # structure

    def rewrite_block(self, block: ast.Block, owner: ast.Node) -> ast.Block:
        new_block = self.rebuild(
            block,
            routines=shared_list(
                [self.rewrite_routine(decl) for decl in block.routines], block.routines
            ),
            body=self.expect_compound(self.rewrite_stmt(block.body)),
        )
        return self.finish_block(new_block, block, owner)

    def finish_block(
        self, new_block: ast.Block, original: ast.Block, owner: ast.Node
    ) -> ast.Block:
        """Hook: adjust a rewritten block (add declarations...); edit it
        only through :meth:`own`."""
        return new_block

    def rewrite_routine(self, decl: ast.RoutineDecl) -> ast.RoutineDecl:
        new_decl = self.rebuild(decl, block=self.rewrite_block(decl.block, decl))
        return self.finish_routine(new_decl, decl)

    def finish_routine(
        self, new_decl: ast.RoutineDecl, original: ast.RoutineDecl
    ) -> ast.RoutineDecl:
        """Hook: adjust a rewritten routine (extend parameter list...);
        edit it only through :meth:`own`."""
        return new_decl

    # ------------------------------------------------------------------
    # statements

    def rewrite_stmt(self, stmt: ast.Stmt) -> ast.Stmt | list[ast.Stmt]:
        """Rewrite one statement; may expand into several."""
        kind = type(stmt)
        hook = _HOOKS.get(kind)
        if hook is None:
            hook = _HOOKS[kind] = f"rewrite_{kind.__name__.lower()}"
        method = getattr(self, hook, None)
        if method is not None:
            return method(stmt)
        return self.default_rewrite_stmt(stmt)

    def default_rewrite_stmt(self, stmt: ast.Stmt) -> ast.Stmt | list[ast.Stmt]:
        if isinstance(stmt, ast.Compound):
            return self.rebuild(stmt, statements=self.rewrite_stmt_list(stmt.statements))
        if isinstance(stmt, ast.If):
            else_branch = stmt.else_branch
            return self.rebuild(
                stmt,
                condition=self.rewrite_expr(stmt.condition),
                then_branch=self.as_single(self.rewrite_stmt(stmt.then_branch)),
                else_branch=(
                    self.as_single(self.rewrite_stmt(else_branch))
                    if else_branch is not None
                    else None
                ),
            )
        if isinstance(stmt, ast.While):
            return self.rebuild(
                stmt,
                condition=self.rewrite_expr(stmt.condition),
                body=self.as_single(self.rewrite_stmt(stmt.body)),
            )
        if isinstance(stmt, ast.Repeat):
            return self.rebuild(
                stmt,
                body=self.rewrite_stmt_list(stmt.body),
                condition=self.rewrite_expr(stmt.condition),
            )
        if isinstance(stmt, ast.For):
            return self.rebuild(
                stmt,
                start=self.rewrite_expr(stmt.start),
                stop=self.rewrite_expr(stmt.stop),
                body=self.as_single(self.rewrite_stmt(stmt.body)),
            )
        if isinstance(stmt, ast.Assign):
            return self.rebuild(
                stmt,
                target=self.rewrite_expr(stmt.target),
                value=self.rewrite_expr(stmt.value),
            )
        if isinstance(stmt, ast.ProcCall):
            return self.rebuild(stmt, args=self.rewrite_expr_list(stmt.args))
        if isinstance(stmt, (ast.EmptyStmt, ast.Goto)):
            return stmt
        raise TypeError(f"cannot rewrite {type(stmt).__name__}")

    def rewrite_stmt_list(self, statements: list[ast.Stmt]) -> list[ast.Stmt]:
        """The rewritten statements: ``statements`` itself when each is
        its own rewrite."""
        result: list[ast.Stmt] = []
        for stmt in statements:
            rewritten = self.rewrite_stmt(stmt)
            if isinstance(rewritten, list):
                result.extend(rewritten)
            else:
                result.append(rewritten)
        return shared_list(result, statements)

    # ------------------------------------------------------------------
    # expressions

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        """Hook: rewrite one expression (shared as it is by default)."""
        return expr

    def rewrite_expr_list(self, exprs: list[ast.Expr]) -> list[ast.Expr]:
        """The rewritten expressions: ``exprs`` itself when each is its
        own rewrite."""
        return shared_list([self.rewrite_expr(expr) for expr in exprs], exprs)

    # ------------------------------------------------------------------
    # helpers

    def rebuild(self, node: ast.Node, **fields) -> ast.Node:
        """``node`` itself when each of ``fields`` is the object ``node``
        holds already; else a copy of ``node`` with ``fields``, recorded
        as descending from ``node``."""
        for name, value in fields.items():
            if getattr(node, name) is not value:
                return self._copy_node(node, fields)
        return node

    def own(self, node: ast.Node) -> ast.Node:
        """``node``, if this pass created it; else a copy of ``node`` the
        pass may edit (its lists are its own, its children shared).
        Put the result where ``node`` was."""
        node_id = node.node_id
        if node_id in self.source_map.to_original or node_id in self.source_map.synthesized:
            return node
        return self._copy_node(node, {})

    def _copy_node(self, node: ast.Node, fields: dict) -> ast.Node:
        kwargs = {"location": node.location}
        for name in ast.child_fields(type(node)):
            value = fields[name] if name in fields else getattr(node, name)
            # a list may be ``node``'s own: the copy gets a list of its own
            kwargs[name] = list(value) if isinstance(value, list) else value
        new_node = type(node)(**kwargs)
        self.source_map.record(new_node, node)
        return new_node

    def copy(self, node):
        """Deep copy a subtree, recording every copied node in the map:
        for a second place of a subtree the output holds already."""
        if node is None:
            return None
        ids: dict[int, int] = {}
        new_node = ast.clone(node, ids)
        self.source_map.record_ids(ids)
        return new_node

    def synthesize(self, node: ast.Node) -> ast.Node:
        """Mark a freshly invented subtree as having no original."""
        for sub in node.walk():
            self.source_map.record_synthesized(sub)
        return node

    def as_single(self, rewritten: ast.Stmt | list[ast.Stmt]) -> ast.Stmt:
        if isinstance(rewritten, list):
            if len(rewritten) == 1:
                return rewritten[0]
            compound = ast.Compound(statements=rewritten)
            self.source_map.record_synthesized(compound)
            return compound
        return rewritten

    def expect_compound(self, rewritten: ast.Stmt | list[ast.Stmt]) -> ast.Compound:
        single = self.as_single(rewritten)
        if isinstance(single, ast.Compound):
            return single
        compound = ast.Compound(statements=[single], location=single.location)
        self.source_map.record_synthesized(compound)
        return compound


def shared_list(new: list, old: list) -> list:
    """``old`` when ``new`` holds the same objects in the same order;
    else ``new``."""
    if len(new) == len(old) and all(a is b for a, b in zip(new, old)):
        return old
    return new
