"""A reusable copying AST rewriter for transformation passes.

Each pass subclasses :class:`Rewriter` and overrides the hook methods it
cares about. The base class rebuilds the tree node by node, keeping the
*original* node in hand at every step (so node-id-keyed analysis facts
remain usable) and recording the new→old correspondence in a
:class:`~repro.transform.mapping.SourceMap`.
"""

from __future__ import annotations

from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram
from repro.transform.mapping import SourceMap


class Rewriter:
    def __init__(self, analysis: AnalyzedProgram):
        self.analysis = analysis
        self.source_map = SourceMap()

    # ------------------------------------------------------------------
    # entry point

    def rewrite_program(self) -> ast.Program:
        program = self.analysis.program
        new_block = self.rewrite_block(program.block, program)
        new_program = ast.Program(
            name=program.name, block=new_block, location=program.location
        )
        self.source_map.record(new_program, program)
        return new_program

    # ------------------------------------------------------------------
    # structure

    def rewrite_block(self, block: ast.Block, owner: ast.Node) -> ast.Block:
        new_block = ast.Block(
            labels=[self.copy(decl) for decl in block.labels],
            consts=[self.copy(decl) for decl in block.consts],
            types=[self.copy(decl) for decl in block.types],
            variables=[self.copy(decl) for decl in block.variables],
            routines=[self.rewrite_routine(decl) for decl in block.routines],
            body=self.expect_compound(self.rewrite_stmt(block.body)),
            location=block.location,
        )
        self.source_map.record(new_block, block)
        return self.finish_block(new_block, block, owner)

    def finish_block(
        self, new_block: ast.Block, original: ast.Block, owner: ast.Node
    ) -> ast.Block:
        """Hook: adjust a rebuilt block (add declarations, wrap body...)."""
        return new_block

    def rewrite_routine(self, decl: ast.RoutineDecl) -> ast.RoutineDecl:
        new_decl = ast.RoutineDecl(
            name=decl.name,
            params=[self.copy(param) for param in decl.params],
            result_type=(
                self.copy(decl.result_type) if decl.result_type is not None else None
            ),
            block=self.rewrite_block(decl.block, decl),
            location=decl.location,
        )
        self.source_map.record(new_decl, decl)
        return self.finish_routine(new_decl, decl)

    def finish_routine(
        self, new_decl: ast.RoutineDecl, original: ast.RoutineDecl
    ) -> ast.RoutineDecl:
        """Hook: adjust a rebuilt routine (extend parameter list...)."""
        return new_decl

    # ------------------------------------------------------------------
    # statements

    def rewrite_stmt(self, stmt: ast.Stmt) -> ast.Stmt | list[ast.Stmt]:
        """Rewrite one statement; may expand into several."""
        method = getattr(self, f"rewrite_{type(stmt).__name__.lower()}", None)
        if method is not None:
            return method(stmt)
        return self.default_rewrite_stmt(stmt)

    def default_rewrite_stmt(self, stmt: ast.Stmt) -> ast.Stmt | list[ast.Stmt]:
        if isinstance(stmt, ast.Compound):
            new_stmt: ast.Stmt = ast.Compound(
                statements=self.rewrite_stmt_list(stmt.statements),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.If):
            new_stmt = ast.If(
                condition=self.rewrite_expr(stmt.condition),
                then_branch=self.as_single(self.rewrite_stmt(stmt.then_branch)),
                else_branch=(
                    self.as_single(self.rewrite_stmt(stmt.else_branch))
                    if stmt.else_branch is not None
                    else None
                ),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.While):
            new_stmt = ast.While(
                condition=self.rewrite_expr(stmt.condition),
                body=self.as_single(self.rewrite_stmt(stmt.body)),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.Repeat):
            new_stmt = ast.Repeat(
                body=self.rewrite_stmt_list(stmt.body),
                condition=self.rewrite_expr(stmt.condition),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.For):
            new_stmt = ast.For(
                variable=stmt.variable,
                start=self.rewrite_expr(stmt.start),
                stop=self.rewrite_expr(stmt.stop),
                downto=stmt.downto,
                body=self.as_single(self.rewrite_stmt(stmt.body)),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.Assign):
            new_stmt = ast.Assign(
                target=self.rewrite_expr(stmt.target),
                value=self.rewrite_expr(stmt.value),
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, ast.ProcCall):
            new_stmt = ast.ProcCall(
                name=stmt.name,
                args=[self.rewrite_expr(arg) for arg in stmt.args],
                location=stmt.location,
                label=stmt.label,
            )
        elif isinstance(stmt, (ast.EmptyStmt, ast.Goto)):
            new_stmt = self.copy(stmt)
            new_stmt.label = stmt.label
            return new_stmt
        else:
            raise TypeError(f"cannot rewrite {type(stmt).__name__}")
        self.source_map.record(new_stmt, stmt)
        return new_stmt

    def rewrite_stmt_list(self, statements: list[ast.Stmt]) -> list[ast.Stmt]:
        result: list[ast.Stmt] = []
        for stmt in statements:
            rewritten = self.rewrite_stmt(stmt)
            if isinstance(rewritten, list):
                result.extend(rewritten)
            else:
                result.append(rewritten)
        return result

    # ------------------------------------------------------------------
    # expressions

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        new_expr = self.copy(expr)
        return new_expr

    # ------------------------------------------------------------------
    # helpers

    def copy(self, node):
        """Deep copy a subtree, recording every copied node in the map."""
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
