"""Classic iterative dataflow on CFGs: reaching definitions and liveness.

Both analyses run at symbol granularity with the interprocedural
side-effect summaries folded into call-node def/use sets, which is what
Weiser-style slicing and the loop-unit extraction need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, CFGNode, NodeKind
from repro.analysis.defuse import (
    DefUse,
    def_use_for_node,
    entry_def_use,
    exit_def_use,
)
from repro.analysis.sideeffects import SideEffects
from repro.pascal.symbols import Symbol


def node_def_use(
    cfg: CFG, node: CFGNode, side_effects: SideEffects | None = None
) -> DefUse:
    """Def/use for any node of ``cfg``, boundary nodes included."""
    if node.kind is NodeKind.ENTRY:
        return entry_def_use(cfg, side_effects)
    if node.kind is NodeKind.EXIT:
        return exit_def_use(cfg, side_effects)
    return def_use_for_node(node, cfg.analysis, side_effects)


def all_def_use(
    cfg: CFG, side_effects: SideEffects | None = None
) -> dict[CFGNode, DefUse]:
    """Def/use sets for every node of a CFG."""
    return {node: node_def_use(cfg, node, side_effects) for node in cfg.nodes}


@dataclass
class ReachingDefinitions:
    """Result of reaching-definitions analysis.

    A *definition* is a (symbol, node) pair. ``in_sets[n]`` holds the
    definitions that may reach the start of node ``n``.
    """

    cfg: CFG
    def_use: dict[CFGNode, DefUse]
    in_sets: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = field(default_factory=dict)
    out_sets: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = field(default_factory=dict)

    def reaching_defs_of(self, node: CFGNode, symbol: Symbol) -> set[CFGNode]:
        """Nodes whose definition of ``symbol`` may reach ``node``."""
        return {
            def_node
            for def_symbol, def_node in self.in_sets.get(node, ())
            if def_symbol is symbol
        }

    def def_use_chains(self) -> dict[CFGNode, set[tuple[Symbol, CFGNode]]]:
        """For each node: the (symbol, defining-node) pairs it uses."""
        chains: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = {}
        for node in self.cfg.nodes:
            uses = self.def_use[node].uses
            chains[node] = {
                (symbol, def_node)
                for symbol, def_node in self.in_sets.get(node, ())
                if symbol in uses
            }
        return chains


def reaching_definitions(
    cfg: CFG, side_effects: SideEffects | None = None
) -> ReachingDefinitions:
    """Iterative forward may-analysis for reaching definitions.

    Array-element stores and call-site writes are *preserving*
    definitions (the def/use layer already marks them as uses too), so a
    definition is killed only by nodes that define the same symbol; this
    keeps the analysis sound for partial updates because the old
    definition still flows in as a use of the new one.
    """
    def_use = all_def_use(cfg, side_effects)
    gen: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = {}
    defined_symbols: dict[CFGNode, set[Symbol]] = {}
    for node in cfg.nodes:
        gen[node] = {(symbol, node) for symbol in def_use[node].defs}
        defined_symbols[node] = set(def_use[node].defs)

    result = ReachingDefinitions(cfg=cfg, def_use=def_use)
    in_sets: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = {
        node: set() for node in cfg.nodes
    }
    out_sets: dict[CFGNode, set[tuple[Symbol, CFGNode]]] = {
        node: set(gen[node]) for node in cfg.nodes
    }

    worklist = deque(cfg.reverse_postorder())
    pending = set(worklist)
    while worklist:
        node = worklist.popleft()
        pending.discard(node)
        new_in: set[tuple[Symbol, CFGNode]] = set()
        for pred in cfg.predecessors[node]:
            new_in |= out_sets[pred]
        in_sets[node] = new_in
        kills = defined_symbols[node]
        new_out = gen[node] | {
            (symbol, def_node) for symbol, def_node in new_in if symbol not in kills
        }
        if new_out != out_sets[node]:
            out_sets[node] = new_out
            for succ in cfg.successors[node]:
                if succ not in pending:
                    worklist.append(succ)
                    pending.add(succ)

    result.in_sets = in_sets
    result.out_sets = out_sets
    return result


@dataclass
class LiveVariables:
    """Result of live-variable analysis: symbols live before/after nodes."""

    cfg: CFG
    def_use: dict[CFGNode, DefUse]
    live_in: dict[CFGNode, set[Symbol]] = field(default_factory=dict)
    live_out: dict[CFGNode, set[Symbol]] = field(default_factory=dict)


def live_variables(
    cfg: CFG, side_effects: SideEffects | None = None
) -> LiveVariables:
    """Iterative backward may-analysis for live variables."""
    def_use = all_def_use(cfg, side_effects)
    result = LiveVariables(cfg=cfg, def_use=def_use)
    live_in: dict[CFGNode, set[Symbol]] = {node: set() for node in cfg.nodes}
    live_out: dict[CFGNode, set[Symbol]] = {node: set() for node in cfg.nodes}

    worklist = deque(reversed(cfg.reverse_postorder()))
    pending = set(worklist)
    while worklist:
        node = worklist.popleft()
        pending.discard(node)
        new_out: set[Symbol] = set()
        for succ in cfg.successors[node]:
            new_out |= live_in[succ]
        live_out[node] = new_out
        new_in = def_use[node].uses | (new_out - def_use[node].defs)
        if new_in != live_in[node]:
            live_in[node] = new_in
            for pred in cfg.predecessors[node]:
                if pred not in pending:
                    worklist.append(pred)
                    pending.add(pred)

    result.live_in = live_in
    result.live_out = live_out
    return result
