"""Loop units (paper §5.1, §6).

"Loops inside a procedure do not prohibit the algorithmic debugging
process. However, crucial computations are often performed inside loops.
Thus, they deserve to be treated in a similar way as procedures, i.e. as
units for algorithmic debugging."

For every while/repeat/for statement this pass computes a
:class:`~repro.tracing.tracer.LoopUnitInfo`:

* **inputs** — variables the loop may read whose incoming value is live
  at loop entry (the loop's observable arguments),
* **outputs** — variables the loop may write that are live after the
  loop (its observable results).

The tracer uses the registry to create loop-unit nodes with per-iteration
children in the execution tree.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG, CFGNode, NodeKind, build_cfg
from repro.analysis.dataflow import live_variables
from repro.analysis.sideeffects import SideEffects, analyze_side_effects
from repro.pascal import ast_nodes as ast
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.pascal.symbols import Symbol
from repro.tracing.tracer import LoopUnitInfo

_LOOP_KEYWORD = {
    ast.While: "while",
    ast.Repeat: "repeat",
    ast.For: "for",
}


def compute_loop_units(
    analysis: AnalyzedProgram, side_effects: SideEffects | None = None
) -> dict[int, LoopUnitInfo]:
    """Build the loop-unit registry: loop statement node id -> unit info."""
    effects = (
        side_effects if side_effects is not None else analyze_side_effects(analysis)
    )
    registry: dict[int, LoopUnitInfo] = {}
    for info in analysis.all_routines():
        registry.update(_units_of_routine(info, analysis, effects))
    return registry


def _units_of_routine(
    info: RoutineInfo, analysis: AnalyzedProgram, effects: SideEffects
) -> dict[int, LoopUnitInfo]:
    loops = [
        stmt
        for stmt in ast.iter_statements(info.block.body)
        if isinstance(stmt, (ast.While, ast.Repeat, ast.For))
    ]
    if not loops:
        return {}

    cfg = build_cfg(info, analysis)
    live = live_variables(cfg, effects)
    def_use = live.def_use

    registry: dict[int, LoopUnitInfo] = {}
    counter = 0
    for loop in loops:
        counter += 1
        name = f"{info.name}${_LOOP_KEYWORD[type(loop)]}{counter}"
        loop_nodes = _loop_cfg_nodes(cfg, loop)
        if not loop_nodes:
            continue
        used: set[Symbol] = set()
        defined: set[Symbol] = set()
        for node in loop_nodes:
            used |= def_use[node].uses
            defined |= def_use[node].defs

        entry_node = cfg.node_of_stmt.get(loop.node_id)
        live_at_entry = (
            live.live_in.get(entry_node, set()) if entry_node is not None else set()
        )
        inputs = tuple(sorted(used & live_at_entry, key=lambda s: s.name))

        after_live: set[Symbol] = set()
        for node in loop_nodes:
            for succ in cfg.successors[node]:
                if succ not in loop_nodes:
                    after_live |= live.live_in.get(succ, set())
                    if succ.kind is NodeKind.EXIT:
                        after_live |= def_use[succ].uses
        outputs = tuple(sorted(defined & after_live, key=lambda s: s.name))

        registry[loop.node_id] = LoopUnitInfo(
            stmt_id=loop.node_id, name=name, inputs=inputs, outputs=outputs
        )
    return registry


def _loop_cfg_nodes(cfg: CFG, loop: ast.Stmt) -> set[CFGNode]:
    """All CFG nodes belonging to the loop statement or anything inside it."""
    nodes: set[CFGNode] = set()
    for stmt in ast.iter_statements(loop):
        nodes.update(cfg.nodes_of_stmt.get(stmt.node_id, ()))
    return nodes
