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
        self._functions_extended = any(symbol.is_function for symbol in self.extra)

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
        extra = self.extra.get(self.routine_info(original).symbol)
        if not extra:
            return new_decl
        new_decl = self.own(new_decl)
        for symbol, mode in extra:
            param = ast.Param(
                name=symbol.name,
                type_expr=self._param_type_expr(symbol),
                mode=mode,
                location=original.location,
            )
            self.source_map.record_synthesized(param)
            new_decl.params.append(param)
        return new_decl

    def _with_extra_args(self, call: ast.ProcCall | ast.FuncCall) -> ast.Node:
        """``call`` with its arguments rewritten and, when it calls a
        routine that gained parameters, the variables they take."""
        args = self.rewrite_expr_list(call.args)
        callee = self.analysis.call_target.get(call.node_id)
        if callee is not None and callee.kind is SymbolKind.ROUTINE:
            extra = self.extra.get(callee, ())
            if extra:
                args = [*args, *(self._extra_arg(symbol, call.location) for symbol, _ in extra)]
        return self.rebuild(call, args=args)

    def _extra_arg(self, symbol: Symbol, location) -> ast.VarRef:
        ref = ast.VarRef(name=symbol.name, location=location)
        self.source_map.record_synthesized(ref)
        return ref

    def rewrite_proccall(self, stmt: ast.ProcCall) -> ast.Stmt:
        return self._with_extra_args(stmt)

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        if not self._functions_extended:
            return expr  # no call in an expression gains arguments
        kind = type(expr)
        if kind is ast.BinaryOp:
            return self.rebuild(
                expr, left=self.rewrite_expr(expr.left), right=self.rewrite_expr(expr.right)
            )
        if kind is ast.FuncCall:
            return self._with_extra_args(expr)
        if kind is ast.IndexedRef:
            return self.rebuild(
                expr, base=self.rewrite_expr(expr.base), index=self.rewrite_expr(expr.index)
            )
        if kind is ast.UnaryOp:
            return self.rebuild(expr, operand=self.rewrite_expr(expr.operand))
        if kind is ast.ArrayLiteral:
            return self.rebuild(expr, elements=self.rewrite_expr_list(expr.elements))
        return expr


def convert_globals_to_params(analysis: AnalyzedProgram) -> GlobalsToParamsResult:
    """Run the globals-to-parameters transformation on an analyzed program."""
    rewriter = _GlobalsToParams(analysis)
    # The pass shares what it leaves alone; its output is copied whole, so
    # the transformed program shares no node with the user's.
    ids: dict[int, int] = {}
    program = ast.clone(rewriter.rewrite_program(), ids)
    return GlobalsToParamsResult(
        program=program,
        source_map=rewriter.source_map.of_copy(ids),
        added_params=rewriter.added_params,
        warnings=rewriter.warnings,
    )
