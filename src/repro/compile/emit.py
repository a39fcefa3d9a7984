"""Inline trace emission for the compiled backend.

The interpreter backend routes every observable event through the
:class:`~repro.pascal.interpreter.ExecutionHooks` protocol — one or two
Python calls per statement before any work happens. The compiled
backend inverts this: statement closures emitted by
:mod:`repro.compile.compiler` write occurrences, dependence edges, and
execution-tree bookkeeping *directly* into the :class:`TraceSession`
(via :func:`enter_stmt` and the inlined read/write recording in
:mod:`repro.compile.ops`), and the session's ``enter_call``/``exit_call``
methods replace the tracer's routine hooks.

Binding snapshots are driven by *plans* precomputed at compile time
(:class:`RoutinePlan`, :class:`LoopPlan`): the symbols
:func:`repro.tracing.tracer.activation_symbols` picks for a routine are
resolved once per routine into lists of ``(name, is_global,
cell-accessor)`` entries, so entering or leaving an activation is a
short loop over prepared accessors — the interpreter's tracer looks the
same symbols up through the frame chain and rescans its writer map on
every activation instead.

The session exposes the same result surface as the tracer
(``result()``, ``last_active_node_id``, ``_tree_index``) so
:func:`repro.tracing.tracer.trace_program` can drive either backend
through one code path, including degraded-trace salvage.
"""

from __future__ import annotations

from repro.pascal.errors import PascalRuntimeError, StepLimitExceeded
from repro.pascal.interpreter import (
    _RecursionHeadroom,
    ExecutionResult,
    GotoSignal,
)
from repro.pascal.values import copy_value, UNDEFINED
from repro.tracing.dynamic_deps import DynamicDependenceGraph, Occurrence
from repro.tracing.tracer import decode_exit
from repro.tracing.execution_tree import (
    Binding,
    BindingMode,
    ExecNode,
    ExecutionTree,
    NodeKind,
)
from repro.compile.runtime import _DEADLINE_MASK, Runtime


class RoutinePlan:
    """Compile-time recipe for one routine's execution-tree bindings."""

    __slots__ = (
        "unit_name",
        "routine",
        "input_entries",
        "output_entries",
        "result_slot",
        "exit_accessor",
    )

    def __init__(self, unit_name, routine, input_entries, output_entries, result_slot, exit_accessor):
        self.unit_name = unit_name
        self.routine = routine
        #: ``(name, is_global, accessor-or-None)`` in binding order
        self.input_entries = input_entries
        self.output_entries = output_entries
        self.result_slot = result_slot
        #: the exit parameter's accessor, None for a routine without one
        self.exit_accessor = exit_accessor


class LoopPlan:
    """Compile-time recipe for one loop unit's bindings."""

    __slots__ = ("stmt_id", "name", "input_entries", "output_entries")

    def __init__(self, stmt_id, name, input_entries, output_entries):
        self.stmt_id = stmt_id
        self.name = name
        #: ``(name, accessor-or-None)`` in LoopUnitInfo order
        self.input_entries = input_entries
        self.output_entries = output_entries


def enter_stmt(rt: "TraceSession", stmt_id: int, line: int, location) -> None:
    """Traced statement prologue: step/deadline accounting plus a new
    occurrence (with its control edge) pushed on the occurrence stack.
    The matching epilogue is ``rt.occ_stack.pop()``, which statement
    closures skip when unwinding — exactly like the interpreter's
    ``after_stmt`` hook, so goto-unwinding quirks replicate."""
    steps = rt.steps + 1
    rt.steps = steps
    if steps > rt.step_limit:
        raise StepLimitExceeded(
            f"execution exceeded {rt.step_limit} steps", location
        )
    if rt.budget is not None and not steps & _DEADLINE_MASK:
        rt.budget.check(location)
    node = rt.cur_node
    rt.last_active_node_id = node.node_id
    occ = rt.occ_count + 1
    rt.occ_count = occ
    rt.occurrences[occ] = Occurrence(occ, stmt_id, node.node_id, line)
    ost = rt.occ_stack
    # Control/nesting dependence on the enclosing occurrence.
    rt.adj.append([ost[-1]] if ost else [])
    node.occurrence_ids.append(occ)
    ost.append(occ)


class TraceSession(Runtime):
    """Runtime state for one traced compiled run.

    Doubles as the collector: ``run()`` executes the program's traced
    closures, ``result(execution)`` packages the same
    :class:`~repro.tracing.tracer.TraceResult` a :class:`Tracer` would.
    """

    __slots__ = (
        "ddg",
        "occurrences",
        "adj",
        "occ_count",
        "occ_stack",
        "cur_node",
        "print_occs",
        "node_count",
        "max_tree_nodes",
        "last_active_node_id",
        "prof",
        "_root",
        "_tree_index",
        "_output_writers",
    )

    def __init__(
        self,
        program,
        io=None,
        step_limit: int = 2_000_000,
        budget=None,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        super().__init__(program, io=io, step_limit=step_limit, budget=budget)
        ddg = DynamicDependenceGraph()
        self.ddg = ddg
        # Aliases written directly by the compiled closures.
        self.occurrences = ddg.occurrences
        self.adj = ddg._adj
        self.occ_count = 0
        self.occ_stack: list[int] = []
        self.cur_node: ExecNode | None = None
        self.print_occs: set[int] = set()
        self.node_count = 0
        self.max_tree_nodes = max_tree_nodes
        self.last_active_node_id = 0
        #: optional hot-spot profiler; one None-test per activation, the
        #: per-statement closures never see it (cheap slot counters —
        #: steps per unit/line — are derived post hoc from occurrences)
        self.prof = profiler
        self._root: ExecNode | None = None
        self._tree_index: dict[int, ExecNode] = {}
        self._output_writers: dict[tuple[int, str], set[int]] = {}

    # ------------------------------------------------------------------
    # entry point / result

    def run(self) -> ExecutionResult:
        frame = self.globals_frame
        self._enter_main()
        with _RecursionHeadroom():
            try:
                self.program.main(self, frame)
            except GotoSignal as signal:
                raise PascalRuntimeError(
                    f"goto {signal.label.name} escaped the program", signal.location
                )
            finally:
                self._exit_main()
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)

    def result(self, execution: ExecutionResult):
        from repro.tracing.tracer import TraceResult

        assert self._root is not None, "no traced run"
        tree = ExecutionTree(root=self._root)
        tree_index = self._tree_index
        tree.occurrence_owner = {
            occ_id: tree_index[occ.exec_node_id]
            for occ_id, occ in self.ddg.occurrences.items()
            if occ.exec_node_id in tree_index
        }
        tree.output_writers = dict(self._output_writers)
        return TraceResult(
            analysis=self.program.analysis,
            tree=tree,
            dependence_graph=self.ddg,
            execution=execution,
        )

    # ------------------------------------------------------------------
    # activations

    def _count_node(self) -> None:
        self.node_count += 1
        if self.max_tree_nodes is not None and self.node_count > self.max_tree_nodes:
            from repro.resilience.errors import TraceAborted

            raise TraceAborted(
                f"execution tree exceeded {self.max_tree_nodes} activations",
                reason="tree-nodes",
            )

    def _enter_main(self) -> None:
        self._count_node()
        info = self.program.analysis.main
        node = ExecNode(kind=NodeKind.MAIN, unit_name=info.name, routine=info.symbol)
        self._root = node
        self._tree_index[node.node_id] = node
        self.cur_node = node
        if self.prof is not None:
            self.prof.enter_unit(info.name)

    def _exit_main(self) -> None:
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        text = self.io.text
        if text:
            node.outputs = [Binding("output", BindingMode.OUT, text)]
            self._output_writers[(node.node_id, "output")] = set(self.print_occs)
        self.cur_node = None

    def enter_call(self, plan: RoutinePlan, frame, call_site_id: int) -> ExecNode:
        """Open a CALL activation; returns the previous current node for
        the caller to restore in its ``finally``."""
        self._count_node()
        node = ExecNode(
            kind=NodeKind.CALL,
            unit_name=plan.unit_name,
            routine=plan.routine,
            call_site_id=call_site_id,
        )
        parent = self.cur_node
        parent.add_child(node)
        self._tree_index[node.node_id] = node
        inputs = []
        for name, is_global, acc in plan.input_entries:
            value = UNDEFINED if acc is None else copy_value(acc(self, frame).value)
            inputs.append(Binding(name, BindingMode.IN, value, is_global))
        node.inputs = inputs
        self.cur_node = node
        if self.prof is not None:
            self.prof.enter_unit(plan.unit_name)
        return parent

    def exit_call(self, plan: RoutinePlan, frame, prev: ExecNode, via_goto) -> None:
        """Close the current CALL activation: snapshot outputs and exit,
        record their writer sets, restore the caller's node, and
        attribute the function-result read to the caller's occurrence."""
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        node.via_goto = via_goto.name if via_goto is not None else None
        node_id = node.node_id
        output_writers = self._output_writers
        outputs = []
        for name, is_global, acc in plan.output_entries:
            if acc is None:
                outputs.append(Binding(name, BindingMode.OUT, UNDEFINED, is_global))
                continue
            cell = acc(self, frame)
            outputs.append(
                Binding(name, BindingMode.OUT, copy_value(cell.value), is_global)
            )
            writers = cell.writers
            output_writers[(node_id, name)] = set(writers.values()) if writers else set()
        result_slot = plan.result_slot
        if result_slot is not None:
            cell = frame.slots[result_slot]
            outputs.append(
                Binding(plan.unit_name, BindingMode.RESULT, copy_value(cell.value))
            )
            writers = cell.writers
            output_writers[(node_id, plan.unit_name)] = (
                set(writers.values()) if writers else set()
            )
        node.outputs = outputs
        if plan.exit_accessor is not None:
            code = plan.exit_accessor(self, frame).value
            node.via_goto = decode_exit(code) or node.via_goto
        self.cur_node = prev
        if result_slot is not None:
            # Reading the function result happens at the caller's occurrence.
            ost = self.occ_stack
            if ost:
                writers = frame.slots[result_slot].writers
                writer = writers.get(None) if writers else None
                if writer is not None:
                    current = ost[-1]
                    if writer != current:
                        edges = self.adj[current]
                        if writer not in edges:
                            edges.append(writer)

    # ------------------------------------------------------------------
    # loop units

    def loop_enter(self, plan: LoopPlan, frame) -> ExecNode:
        self._count_node()
        node = ExecNode(kind=NodeKind.LOOP, unit_name=plan.name, loop_stmt_id=plan.stmt_id)
        node.inputs = self._loop_bindings(plan.input_entries, frame, BindingMode.IN)
        parent = self.cur_node
        parent.add_child(node)
        self._tree_index[node.node_id] = node
        self.cur_node = node
        if self.prof is not None:
            self.prof.enter_unit(plan.name)
        return node

    def loop_iteration(
        self, plan: LoopPlan, frame, loop_node: ExecNode, prev_iter, iteration: int
    ) -> ExecNode:
        self._count_node()
        if prev_iter is not None:
            self._close_iteration(plan, prev_iter, frame, loop_node)
        node = ExecNode(
            kind=NodeKind.ITERATION,
            unit_name=plan.name,
            loop_stmt_id=plan.stmt_id,
            iteration=iteration,
        )
        node.inputs = self._loop_bindings(plan.input_entries, frame, BindingMode.IN)
        loop_node.add_child(node)
        self._tree_index[node.node_id] = node
        self.cur_node = node
        return node

    def loop_exit(
        self, plan: LoopPlan, frame, loop_node: ExecNode, last_iter, prev: ExecNode
    ) -> None:
        if self.prof is not None:
            self.prof.exit_unit()
        if last_iter is not None:
            self._close_iteration(plan, last_iter, frame, loop_node)
        loop_node.outputs = self._loop_bindings(
            plan.output_entries, frame, BindingMode.OUT
        )
        output_writers = self._output_writers
        node_id = loop_node.node_id
        for name, acc in plan.output_entries:
            if acc is None:
                continue
            writers = acc(self, frame).writers
            output_writers[(node_id, name)] = set(writers.values()) if writers else set()
        self.cur_node = prev

    def _close_iteration(self, plan: LoopPlan, iter_node: ExecNode, frame, loop_node):
        iter_node.outputs = self._loop_bindings(
            plan.output_entries, frame, BindingMode.OUT
        )
        self.cur_node = loop_node

    def _loop_bindings(self, entries, frame, mode: BindingMode) -> list[Binding]:
        return [
            Binding(
                name,
                mode,
                UNDEFINED if acc is None else copy_value(acc(self, frame).value),
            )
            for name, acc in entries
        ]
