"""Canonical forms of analyses, transforms and traces, for differential
tests: node ids are replaced by the node's pre-order position and
symbols by their description, so two builds of one program compare
equal whatever ids their nodes got."""

from __future__ import annotations

import hashlib
import json

from repro.pascal import ast_nodes as ast
from repro.pascal.pretty import print_program


def _symbol(symbol) -> tuple | None:
    if symbol is None:
        return None
    decl = symbol.decl
    return (
        symbol.name,
        symbol.kind.value,
        symbol.qualified_name,
        symbol.level,
        repr(symbol.type),
        str(symbol.type),
        symbol.param_mode,
        [param.qualified_name for param in symbol.params],
        repr(symbol.result_type),
        repr(symbol.const_value),
        None if symbol.owner is None else symbol.owner.qualified_name,
        None if decl is None else (type(decl).__name__, decl.location),
    )


def canonical(analysis) -> dict:
    """Everything an analysis holds, with node ids replaced by the
    node's pre-order position and symbols by their description."""
    described: dict[int, tuple | None] = {}

    def symbol(value) -> tuple | None:
        key = id(value)
        if key not in described:
            described[key] = _symbol(value)
        return described[key]

    def scope(value) -> tuple:
        return (
            value.level,
            symbol(value.owner),
            sorted((name, symbol(entry)) for name, entry in value._symbols.items()),
            sorted((name, symbol(entry)) for name, entry in value._labels.items()),
        )

    nodes = list(analysis.program.walk())
    position = {node.node_id: index for index, node in enumerate(nodes)}
    assert len(position) == len(nodes), "node ids repeat within one program"
    at = {id(node): index for index, node in enumerate(nodes)}
    tree = []
    for node in nodes:
        children = 0
        scalars = []
        for name in ast.child_fields(type(node)):
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                children += 1
            elif isinstance(value, list):
                children += len(value)
            else:
                scalars.append(value)
        tree.append((type(node).__name__, node.location, children, scalars))

    def by_node(table) -> dict:
        return {position[key]: symbol(value) for key, value in table.items()}

    def routine(info) -> tuple:
        return (
            symbol(info.symbol),
            at[id(info.decl)],
            at[id(info.block)],
            scope(info.scope),
            [symbol(param) for param in info.params],
            [symbol(local) for local in info.locals],
            symbol(info.result_symbol),
            sorted(repr(symbol(entry)) for entry in info.nonlocal_reads),
            sorted(repr(symbol(entry)) for entry in info.nonlocal_writes),
            {name: symbol(label) for name, label in info.labels.items()},
            [at[id(goto)] for goto in info.local_gotos],
            [at[id(goto)] for goto in info.global_gotos],
            [(at[id(call)], symbol(target)) for call, target in info.call_sites],
        )

    assert analysis.main is analysis.routines[analysis.main.symbol]
    return {
        "tree": tree,
        "global_scope": scope(analysis.global_scope),
        "routines": [routine(info) for info in analysis.routines.values()],
        "ref_symbol": by_node(analysis.ref_symbol),
        "call_target": by_node(analysis.call_target),
        "expr_type": {
            position[key]: (repr(value), str(value))
            for key, value in analysis.expr_type.items()
        },
        "goto_target": by_node(analysis.goto_target),
        "goto_is_global": {
            position[key]: value for key, value in analysis.goto_is_global.items()
        },
        "for_symbol": by_node(analysis.for_symbol),
        "result_assigns": sorted(position[key] for key in analysis.result_assigns),
        "stmt_routine": by_node(analysis.stmt_routine),
        "named_types": {
            position[key]: value for key, value in analysis.named_types.items()
        },
    }


def trace_form(trace, analysis) -> tuple:
    """A trace with AST node ids renumbered as :func:`canonical` does."""
    position = {node.node_id: index for index, node in enumerate(analysis.program.walk())}
    nodes = list(trace.tree.walk())
    exec_position = {node.node_id: index for index, node in enumerate(nodes)}
    tree = [
        (
            node.kind,
            node.unit_name,
            None if node.routine is None else node.routine.qualified_name,
            position.get(node.loop_stmt_id),
            node.iteration,
            position.get(node.call_site_id),
            None if node.parent is None else exec_position[node.parent.node_id],
            node.via_goto,
            list(node.occurrence_ids),
            [(b.name, b.mode, b.is_global, repr(b.value)) for b in node.inputs],
            [(b.name, b.mode, b.is_global, repr(b.value)) for b in node.outputs],
        )
        for node in nodes
    ]
    ddg = trace.dependence_graph
    occurrences = sorted(
        (
            occ_id,
            position[occ.stmt_id],
            exec_position.get(occ.exec_node_id),
            occ.location_line,
            sorted(ddg.deps_of(occ_id)),
        )
        for occ_id, occ in ddg.occurrences.items()
    )
    return (
        trace.execution.output,
        trace.execution.steps,
        tree,
        occurrences,
        ddg.edge_count(),
    )


def _positions(program) -> dict[int, int]:
    return {node.node_id: index for index, node in enumerate(program.walk())}


def _map_form(source_map, transformed_at: dict, original_at: dict) -> tuple:
    """A source map by positions; ids of nodes no longer in the tree are
    only counted."""
    mapped = sorted(
        (transformed_at[new], original_at.get(old))
        for new, old in source_map.to_original.items()
        if new in transformed_at
    )
    synthesized = sorted(
        transformed_at[new] for new in source_map.synthesized if new in transformed_at
    )
    return (
        mapped,
        synthesized,
        sum(1 for new in source_map.to_original if new not in transformed_at),
        sum(1 for new in source_map.synthesized if new not in transformed_at),
    )


def canonical_transform(transformed) -> dict:
    """Everything a :class:`~repro.transform.pipeline.TransformedProgram`
    holds, node ids renumbered."""
    original_at = _positions(transformed.original_analysis.program)
    at = _positions(transformed.program)

    def names(symbols) -> list:
        return sorted(symbol.qualified_name for symbol in symbols)

    side_effects = transformed.side_effects
    assert side_effects.analysis is transformed.analysis
    form = {
        "analysis": canonical(transformed.analysis),
        "text": print_program(transformed.program),
        "source_map": _map_form(transformed.source_map, at, original_at),
        "loop_units": sorted(
            (at[stmt_id], info.name, names(info.inputs), names(info.outputs))
            for stmt_id, info in transformed.loop_units.items()
        ),
        "added_params": transformed.added_params,
        "exit_params": transformed.exit_params,
        "warnings": transformed.warnings,
        "goto_cases": transformed.goto_cases,
        "goto_eliminated": transformed.goto_eliminated,
        "effects": sorted(
            (
                routine.qualified_name,
                names(effect.mod_params),
                names(effect.ref_params),
                names(effect.gmod),
                names(effect.gref),
                names(effect.exit_labels),
            )
            for routine, effect in side_effects.effects.items()
        ),
        "alias_warnings": [
            (at[warning.site.node_id], warning.callee.qualified_name, warning.description)
            for warning in side_effects.alias_warnings
        ],
        "call_graph": [
            (at[site.node.node_id], site.caller.qualified_name, site.callee.qualified_name)
            for site in side_effects.call_graph.sites
        ],
    }
    instrumented = transformed.instrumented
    form["instrumented_text"] = print_program(instrumented.program)
    form["instrumented_map"] = _map_form(
        instrumented.source_map, _positions(instrumented.program), original_at
    )
    return form


#: the parts of :func:`canonical_transform` a transform digest covers:
#: what the pass pipeline decided, not how the analysis stores it
DIGEST_PARTS = (
    "text",
    "source_map",
    "loop_units",
    "added_params",
    "exit_params",
    "warnings",
    "goto_cases",
    "goto_eliminated",
)


def transform_digest(transformed) -> str:
    """A SHA-256 over the :data:`DIGEST_PARTS` of a transform's
    canonical form: the printed transformed program, its source map by
    positions, the loop units, the parameters the passes added, the
    warnings and the goto counts. Each part is a list in a fixed order
    or a dict encoded with sorted keys, so the digest does not depend
    on set or hash ordering."""
    form = canonical_transform(transformed)
    encoded = json.dumps(
        {part: form[part] for part in DIGEST_PARTS},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


def trace_digest(trace) -> str:
    """A SHA-256 over the debugger's view of a trace: for each node in
    pre-order, its kind, unit, inputs and outputs (name, mode, value
    and ``is_global`` of each binding), ``via_goto``, the positions of
    its children, and the writer set recorded for each output shown."""
    nodes = list(trace.tree.walk())
    position = {node.node_id: index for index, node in enumerate(nodes)}
    writers = trace.tree.output_writers

    def binding(b) -> list:
        return [b.name, b.mode.value, repr(b.value), b.is_global]

    form = [
        (
            node.kind.value,
            node.unit_name,
            [binding(b) for b in node.inputs],
            [
                binding(b) + [sorted(writers.get((node.node_id, b.name), ()))]
                for b in node.outputs
            ],
            node.via_goto,
            [position[child.node_id] for child in node.children],
        )
        for node in nodes
    ]
    encoded = json.dumps(form, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()
