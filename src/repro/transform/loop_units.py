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
children in the execution tree. A transform's registry is a
:class:`LoopUnits`, which computes a routine's units on the first
lookup of one of its loops: a transform that is only printed computes
none.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro import obs
from repro.analysis.cfg import CFG, CFGNode, NodeKind, build_cfg
from repro.analysis.dataflow import live_variables
from repro.lazy import fill_once, shared_cached_property
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
    analysis: AnalyzedProgram, routine: RoutineInfo | None = None
) -> dict[int, LoopUnitInfo]:
    """The loop-unit registry, loop statement node id -> unit info, of
    every routine of ``analysis``, or of ``routine`` alone."""
    routines = analysis.all_routines() if routine is None else [routine]
    registry: dict[int, LoopUnitInfo] = {}
    for info in routines:
        registry.update(_units_of_routine(info, analysis))
    return registry


class LoopUnits(Mapping[int, LoopUnitInfo]):
    """The loop-unit registry of ``analysis``, computed routine by
    routine: a lookup of a loop computes the units of its routine
    (:func:`compute_loop_units`) unless they are known. Iterating it, or
    taking its length, computes every routine's first, so an iteration
    never sees the registry grow. It equals ``compute_loop_units(analysis)``.
    """

    def __init__(self, analysis: AnalyzedProgram):
        self._analysis = analysis
        #: routine symbol -> its units, each entry stored complete
        self._by_routine: dict[Symbol, dict[int, LoopUnitInfo]] = {}

    def _of_routine(self, symbol: Symbol) -> dict[int, LoopUnitInfo]:
        return fill_once(self._by_routine, symbol, lambda: self._compute(symbol))

    def _compute(self, symbol: Symbol) -> dict[int, LoopUnitInfo]:
        info = self._analysis.routines[symbol]
        with obs.span("transform.pass.loop_units", routine=info.name):
            units = compute_loop_units(self._analysis, info)
        obs.add("transform.loop_units", len(units))
        return units

    @shared_cached_property
    def _all(self) -> dict[int, LoopUnitInfo]:
        merged: dict[int, LoopUnitInfo] = {}
        for symbol in self._analysis.routines:
            merged.update(self._of_routine(symbol))
        return merged

    def get(self, stmt_id: int, default=None):
        symbol = self._analysis.stmt_routine.get(stmt_id)
        if symbol is None:
            return default
        return self._of_routine(symbol).get(stmt_id, default)

    def __getitem__(self, stmt_id: int) -> LoopUnitInfo:
        unit = self.get(stmt_id)
        if unit is None:
            raise KeyError(stmt_id)
        return unit

    def __iter__(self) -> Iterator[int]:
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all)


def _units_of_routine(info: RoutineInfo, analysis: AnalyzedProgram) -> dict[int, LoopUnitInfo]:
    loops = [
        stmt
        for stmt in ast.iter_statements(info.block.body)
        if isinstance(stmt, (ast.While, ast.Repeat, ast.For))
    ]
    if not loops:
        return {}

    cfg = build_cfg(info, analysis)
    live = live_variables(cfg, analysis.side_effects)
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
