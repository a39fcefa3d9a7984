"""Conversion of global (non-local) variable accesses to parameters.

The paper's first transformation (§6):

    procedure p (var y: ...);          procedure p (var y: ...; in x: ...; out z: ...);
    begin                              begin
      y := x + 1;              ==>       y := x + 1;
      z := y - x                         z := y - x
    end;                               end;

Implementation strategy: every routine whose (transitive) side-effect
summary reads or writes non-local variables gets one added parameter per
such variable, *named like the variable*. Because the parameter shadows
the non-local, the routine body needs no rewriting at all; only
signatures and call sites change. Call sites pass the variable itself,
which in the caller's context resolves either to the caller's own added
parameter (threading the value down the call chain) or to the actual
global. Parameter modes follow the paper: ``in`` for read-only, ``out``
for write-only, ``var`` for read-write.

Limitation (documented): a nested routine assigning an enclosing
*function's result* is a side effect this pass cannot turn into a
parameter; such programs are reported via ``warnings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sideeffects import analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram
from repro.pascal.symbols import Symbol, SymbolKind
from repro.transform.rewriter import Rewriter


@dataclass
class GlobalsToParamsResult:
    program: ast.Program
    source_map: "SourceMap"
    #: routine name -> [(variable name, mode), ...] parameters added
    added_params: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


from repro.transform.mapping import SourceMap  # noqa: E402  (doc order)


class _GlobalsToParams(Rewriter):
    def __init__(self, analysis: AnalyzedProgram):
        super().__init__(analysis)
        self.warnings: list[str] = []
        #: routine symbol -> ordered [(symbol, mode)]
        self.extra: dict[Symbol, list[tuple[Symbol, str]]] = {}
        self.added_params: dict[str, list[tuple[str, str]]] = {}
        self._compute_extra_params()

    # ------------------------------------------------------------------

    def _compute_extra_params(self) -> None:
        # Computed here, not read through ``analysis.side_effects``: the
        # input is often the user's cached analysis, which would keep
        # them alive after the pass for no reader.
        side_effects = analyze_side_effects(self.analysis)
        for info in self.analysis.user_routines():
            effects = side_effects.of(info.symbol)
            variables = {
                symbol
                for symbol in effects.gref | effects.gmod
                if symbol.kind in (SymbolKind.VARIABLE, SymbolKind.PARAMETER)
            }
            results = {
                symbol
                for symbol in effects.gref | effects.gmod
                if symbol.kind is SymbolKind.RESULT
            }
            for symbol in results:
                self.warnings.append(
                    f"routine '{info.name}' side-effects the result of "
                    f"function '{symbol.owner.name if symbol.owner else symbol.name}'; "
                    "result side effects are not converted to parameters"
                )
            ordered: list[tuple[Symbol, str]] = []
            for symbol in sorted(variables, key=lambda s: s.name):
                read = symbol in effects.gref
                written = symbol in effects.gmod
                if read and written:
                    mode = ast.ParamMode.VAR
                elif written:
                    mode = ast.ParamMode.OUT
                else:
                    mode = ast.ParamMode.IN_
                ordered.append((symbol, mode))
            if ordered:
                self.extra[info.symbol] = ordered
                self.added_params[info.name] = [
                    (symbol.name, mode) for symbol, mode in ordered
                ]

    def _param_type_expr(self, symbol: Symbol) -> ast.TypeExpr:
        decl = symbol.decl
        if isinstance(decl, ast.VarDecl):
            return self.copy(decl.type_expr)
        if isinstance(decl, ast.Param):
            return self.copy(decl.type_expr)
        raise TypeError(
            f"cannot derive a type expression for {symbol.qualified_name}"
        )

    # ------------------------------------------------------------------
    # rewriting hooks

    def finish_routine(
        self, new_decl: ast.RoutineDecl, original: ast.RoutineDecl
    ) -> ast.RoutineDecl:
        info = next(
            info
            for info in self.analysis.user_routines()
            if info.decl is original
        )
        for symbol, mode in self.extra.get(info.symbol, ()):
            param = ast.Param(
                name=symbol.name,
                type_expr=self._param_type_expr(symbol),
                mode=mode,
                location=original.location,
            )
            self.source_map.record_synthesized(param)
            new_decl.params.append(param)
        return new_decl

    def _extra_args_for(self, callee: Symbol, location) -> list[ast.Expr]:
        args: list[ast.Expr] = []
        for symbol, _mode in self.extra.get(callee, ()):
            ref = ast.VarRef(name=symbol.name, location=location)
            self.source_map.record_synthesized(ref)
            args.append(ref)
        return args

    def rewrite_proccall(self, stmt: ast.ProcCall) -> ast.Stmt:
        new_stmt = ast.ProcCall(
            name=stmt.name,
            args=[self.rewrite_expr(arg) for arg in stmt.args],
            location=stmt.location,
            label=stmt.label,
        )
        callee = self.analysis.call_target.get(stmt.node_id)
        if callee is not None and callee.kind is SymbolKind.ROUTINE:
            new_stmt.args.extend(self._extra_args_for(callee, stmt.location))
        self.source_map.record(new_stmt, stmt)
        return new_stmt

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.FuncCall):
            new_expr = ast.FuncCall(
                name=expr.name,
                args=[self.rewrite_expr(arg) for arg in expr.args],
                location=expr.location,
            )
            callee = self.analysis.call_target.get(expr.node_id)
            if callee is not None and callee.kind is SymbolKind.ROUTINE:
                new_expr.args.extend(self._extra_args_for(callee, expr.location))
            self.source_map.record(new_expr, expr)
            return new_expr
        if isinstance(expr, ast.IndexedRef):
            new_expr = ast.IndexedRef(
                base=self.rewrite_expr(expr.base),
                index=self.rewrite_expr(expr.index),
                location=expr.location,
            )
            self.source_map.record(new_expr, expr)
            return new_expr
        if isinstance(expr, (ast.UnaryOp, ast.BinaryOp, ast.ArrayLiteral)):
            if isinstance(expr, ast.UnaryOp):
                new_expr = ast.UnaryOp(
                    op=expr.op,
                    operand=self.rewrite_expr(expr.operand),
                    location=expr.location,
                )
            elif isinstance(expr, ast.BinaryOp):
                new_expr = ast.BinaryOp(
                    op=expr.op,
                    left=self.rewrite_expr(expr.left),
                    right=self.rewrite_expr(expr.right),
                    location=expr.location,
                )
            else:
                new_expr = ast.ArrayLiteral(
                    elements=[self.rewrite_expr(element) for element in expr.elements],
                    location=expr.location,
                )
            self.source_map.record(new_expr, expr)
            return new_expr
        return self.copy(expr)


def convert_globals_to_params(analysis: AnalyzedProgram) -> GlobalsToParamsResult:
    """Run the globals-to-parameters transformation on an analyzed program."""
    rewriter = _GlobalsToParams(analysis)
    program = rewriter.rewrite_program()
    return GlobalsToParamsResult(
        program=program,
        source_map=rewriter.source_map,
        added_params=rewriter.added_params,
        warnings=rewriter.warnings,
    )
