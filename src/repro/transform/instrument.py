"""Trace-action instrumentation (paper §6).

The paper augments the transformed program with calls that generate the
execution tree:

    procedure p (var y: ...; in x: ...; out z: ...);
    begin
      create_exectree_rec;
      save_incoming_values(x, y);
      y := x + 1;
      z := y - x;
      save_outgoing_values(y, z)
    end;

This pass inserts the equivalent actions (``gadt_enter_unit`` /
``gadt_exit_unit`` and the ``gadt_loop_*`` family for loop units). The
interpreter executes them as semantic no-ops that forward to the
attached execution hooks, so an instrumented program behaves exactly
like its source; the tracer independently receives the same boundary
events from the interpreter, which keeps tracing robust for abnormal
exits while the inserted calls document the transformation faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sideeffects import SideEffects
from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram
from repro.tracing.tracer import LoopUnitInfo
from repro.transform.mapping import SourceMap
from repro.transform.rewriter import Rewriter


@dataclass
class InstrumentResult:
    program: ast.Program
    source_map: SourceMap


class _Instrumenter(Rewriter):
    def __init__(
        self,
        analysis: AnalyzedProgram,
        side_effects: SideEffects,
        loop_units: dict[int, LoopUnitInfo],
    ):
        super().__init__(analysis)
        self.side_effects = side_effects
        self.loop_units = loop_units

    # ------------------------------------------------------------------

    def _trace_call(self, action: str, tag: str, names: list[str]) -> ast.ProcCall:
        args: list[ast.Expr] = [ast.StringLiteral(value=tag)]
        args.extend(ast.VarRef(name=name) for name in names)
        call = ast.ProcCall(name=action, args=args)
        for node in call.walk():
            self.source_map.record_synthesized(node)
        return call

    def finish_routine(
        self, new_decl: ast.RoutineDecl, original: ast.RoutineDecl
    ) -> ast.RoutineDecl:
        info = self.routine_info(original)
        effects = self.side_effects.of(info.symbol)
        incoming = [
            param.name
            for param in info.params
            if param.param_mode in (ast.ParamMode.VALUE, ast.ParamMode.IN_)
            or param in effects.ref_params
        ]
        outgoing = [
            param.name
            for param in info.params
            if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT)
            and param in effects.mod_params
        ]
        new_decl = self.own(new_decl)
        block = new_decl.block = self.own(new_decl.block)
        body = block.body = self.own(block.body)
        body.statements.insert(0, self._trace_call("gadt_enter_unit", info.name, incoming))
        body.statements.append(self._trace_call("gadt_exit_unit", info.name, outgoing))
        return new_decl

    # ------------------------------------------------------------------
    # loops

    def _instrument_loop(
        self, new_loop: ast.Stmt, unit: LoopUnitInfo
    ) -> list[ast.Stmt]:
        enter = self._trace_call(
            "gadt_loop_enter", unit.name, [s.name for s in unit.inputs]
        )
        leave = self._trace_call(
            "gadt_loop_exit", unit.name, [s.name for s in unit.outputs]
        )
        iter_call = self._trace_call("gadt_loop_iter", unit.name, [])
        new_loop = self.own(new_loop)
        self._prepend_to_body(new_loop, iter_call)
        return [enter, new_loop, leave]

    def _prepend_to_body(self, loop: ast.Stmt, call: ast.ProcCall) -> None:
        """Put ``call`` first in the body of ``loop``, a loop this pass
        created."""
        if isinstance(loop, (ast.While, ast.For)):
            if isinstance(loop.body, ast.Compound):
                loop.body = self.own(loop.body)
                loop.body.statements.insert(0, call)
            else:
                compound = ast.Compound(statements=[call, loop.body])
                self.source_map.record_synthesized(compound)
                loop.body = compound
        elif isinstance(loop, ast.Repeat):
            loop.body.insert(0, call)

    def _rewrite_loop(self, stmt: ast.Stmt) -> ast.Stmt | list[ast.Stmt]:
        rewritten = self.default_rewrite_stmt(stmt)
        unit = self.loop_units.get(stmt.node_id)
        if unit is not None and isinstance(rewritten, ast.Stmt):
            return self._instrument_loop(rewritten, unit)
        return rewritten

    rewrite_while = rewrite_repeat = rewrite_for = _rewrite_loop


def instrument_program(
    analysis: AnalyzedProgram,
    side_effects: SideEffects,
    loop_units: dict[int, LoopUnitInfo],
) -> InstrumentResult:
    """Insert trace-generating actions into an analyzed program."""
    rewriter = _Instrumenter(analysis, side_effects, loop_units)
    program = rewriter.rewrite_program()
    source_map = SourceMap.identity(analysis.program).layered(rewriter.source_map)
    return InstrumentResult(program=program, source_map=source_map)
