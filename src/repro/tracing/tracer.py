"""The tracer: builds execution trees and dynamic dependences (paper §5.2).

:class:`TreeRecorder` records one traced run's execution tree for both
engines: unit activations with their In/Out bindings, taken through
binding plans (:class:`RoutinePlan`, :class:`LoopPlan`) resolved once
per routine and loop, and each output's writer set. :class:`Tracer` is
the interpreter engine's recorder, an
:class:`~repro.pascal.interpreter.ExecutionHooks` whose hooks add the
statement occurrences and data edges and keep each cell's last writers
(``Cell.writers``); the compiled engine's
:class:`~repro.compile.emit.TraceSession` does the same inline.
:func:`trace_program` runs either and yields a :class:`TraceResult`
bundling the execution tree, the dynamic dependence graph, and the
analyses the debugging phase needs.

Loop units: a transformed analysis's :class:`ActivationView` carries
the registry of the transformation phase's loop-unit pass, and each
registered loop becomes a unit node in the execution tree with
per-iteration child nodes — the paper's treatment of loops as
debuggable units (§5.1, §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.pascal import ast_nodes as ast
from repro.pascal.errors import PascalRuntimeError
from repro.pascal.interpreter import (
    Cell,
    ExecutionHooks,
    ExecutionResult,
    Frame,
    Interpreter,
    PascalIO,
)
from repro.pascal.semantics import AnalyzedProgram, RoutineInfo
from repro.pascal.symbols import Symbol
from repro.pascal.values import copy_value
from repro.tracing.dynamic_deps import DynamicDependenceGraph
from repro.tracing.execution_tree import (
    Binding,
    BindingMode,
    ExecNode,
    ExecutionTree,
    NodeKind,
)


@dataclass(frozen=True)
class LoopUnitInfo:
    """Static description of one loop unit (computed by the transformation
    phase): which variables flow in and out of the loop."""

    stmt_id: int
    name: str
    inputs: tuple[Symbol, ...]
    outputs: tuple[Symbol, ...]


class ActivationView(NamedTuple):
    """The user's view of a transformed program's activations (paper
    §6.1), per routine name: the globals threaded through it as
    parameters, recorded as globals, and the parameter that carries its
    broken global gotos, recorded as the activation's ``via_goto``.
    Exit parameters and the loop-goto pass's flags and bounds are never
    recorded. ``loops`` is the loop-unit registry (loop statement id ->
    unit), as computed: each engine drops the hidden variables."""

    threaded: dict[str, frozenset[str]]
    exits: dict[str, str]
    loops: dict[int, LoopUnitInfo]

    def hides(self, name: str) -> bool:
        return name in self.exits.values() or name.startswith(("gadt_leave_", "gadt_limit_"))


def decode_exit(code: object) -> str | None:
    """The label an exit parameter's final value names: the exit code
    *is* the numeric label, and 0 means the routine returned."""
    return str(code) if isinstance(code, int) and code else None


class ActivationSymbols(NamedTuple):
    """What one routine's activations record, in binding order; each
    symbol comes with its ``is_global`` flag."""

    inputs: list[tuple[Symbol, bool]]
    outputs: list[tuple[Symbol, bool]]
    #: the function result (recorded last, as a ``Result`` binding)
    result: Symbol | None
    #: the exit parameter, decoded into ``via_goto`` at exit
    exit: Symbol | None = None


def activation_symbols(analysis: AnalyzedProgram, info: RoutineInfo) -> ActivationSymbols:
    """The binding policy: which values an activation of ``info``
    carries into the execution tree as its inputs and outputs (paper
    §5.2). :func:`routine_plan` maps these symbols to each engine's
    storage once per routine, so both engines record the same bindings.

    Inputs are value and ``in`` parameters, then the by-reference
    parameters the routine reads and the globals it reads (sorted by
    name), each only if live at entry: a ``var`` parameter or global
    that is always overwritten before any read carries no meaningful
    input value. Outputs are the ``var``/``out`` parameters and the
    globals (sorted by name) the routine modifies, then the function
    result.
    A transformed analysis's :class:`ActivationView` marks threaded
    parameters as globals and hides the exit parameter, returned as
    ``exit``.
    """
    from repro.analysis.cfg import build_cfg
    from repro.analysis.dataflow import live_variables

    side_effects = analysis.side_effects
    effects = side_effects.of(info.symbol)
    cfg = build_cfg(info, analysis)
    # live *after* the entry node (parameter binding): the incoming
    # values the body may actually read
    entry_live = live_variables(cfg, side_effects).live_out[cfg.entry]
    inputs = [
        (param, False)
        for param in info.params
        if param.param_mode in (ast.ParamMode.VALUE, ast.ParamMode.IN_)
        or (param in effects.ref_params and param in entry_live)
    ]
    inputs += [
        (symbol, True)
        for symbol in sorted(effects.gref, key=lambda s: s.name)
        if symbol in entry_live
    ]
    outputs = [
        (param, False)
        for param in info.params
        if param.param_mode in (ast.ParamMode.VAR, ast.ParamMode.OUT)
        and param in effects.mod_params
    ]
    outputs += [
        (symbol, True) for symbol in sorted(effects.gmod, key=lambda s: s.name)
    ]
    view = analysis.view
    if view is None:
        return ActivationSymbols(inputs, outputs, info.result_symbol)
    threaded = view.threaded.get(info.name, ())

    def shown(pairs):
        return [
            (symbol, is_global or symbol.name in threaded)
            for symbol, is_global in pairs
            if not view.hides(symbol.name)
        ]

    exit_name = view.exits.get(info.name)
    exit_param = next((param for param in info.params if param.name == exit_name), None)
    return ActivationSymbols(shown(inputs), shown(outputs), info.result_symbol, exit_param)


def loop_symbols(analysis: AnalyzedProgram, unit: LoopUnitInfo) -> LoopUnitInfo:
    """``unit`` with only the variables the analysis's view shows."""
    view = analysis.view
    if view is None:
        return unit

    def shown(symbols):
        return tuple(symbol for symbol in symbols if not view.hides(symbol.name))

    return replace(unit, inputs=shown(unit.inputs), outputs=shown(unit.outputs))


@dataclass
class TraceResult:
    """Everything the debugging phase needs from one traced run."""

    analysis: AnalyzedProgram
    tree: ExecutionTree
    dependence_graph: DynamicDependenceGraph
    execution: ExecutionResult
    #: the runtime error that ended the run, when traced tolerantly
    error: Exception | None = None
    #: unit active when the error struck (for the user's orientation)
    crash_unit: str | None = None
    #: the trace blew its resource budget and this is a salvaged,
    #: depth-capped partial tree (see docs/ROBUSTNESS.md)
    degraded: bool = False
    degraded_reason: str | None = None
    #: activations dropped when capping the salvaged tree's depth
    truncated_nodes: int = 0
    #: which execution backend produced this trace ("interp" | "compiled")
    backend: str = "interp"

    @property
    def root(self) -> ExecNode:
        return self.tree.root

    @property
    def crashed(self) -> bool:
        return self.error is not None


class RoutinePlan:
    """One routine's execution-tree bindings, resolved once per routine.

    An *accessor* is a ``(recorder, frame) -> Cell`` function that
    reaches one symbol's storage from an activation's frame, or
    :data:`NO_STORAGE` where the symbol has none."""

    __slots__ = (
        "unit_name",
        "routine",
        "input_entries",
        "output_entries",
        "result",
        "exit_param",
    )

    def __init__(
        self, unit_name, routine, input_entries, output_entries, result, exit_param
    ):
        self.unit_name = unit_name
        self.routine = routine
        #: ``(name, is_global, accessor)`` in binding order
        self.input_entries = input_entries
        self.output_entries = output_entries
        #: the function result's accessor, None for a procedure
        self.result = result
        #: the exit parameter's accessor, None for a routine without one
        self.exit_param = exit_param


class LoopPlan:
    """One loop unit's bindings, entries as in :class:`RoutinePlan`."""

    __slots__ = ("stmt_id", "name", "input_entries", "output_entries")

    def __init__(self, stmt_id, name, input_entries, output_entries):
        self.stmt_id = stmt_id
        self.name = name
        self.input_entries = input_entries
        self.output_entries = output_entries


#: the cell an accessor returns for a symbol without storage: its
#: bindings read UNDEFINED, and it has no writer set
NO_STORAGE = Cell()


def _no_storage(recorder, frame) -> Cell:
    return NO_STORAGE


def routine_plan(
    analysis: AnalyzedProgram, info: RoutineInfo, accessor, result
) -> RoutinePlan:
    """The plan of :func:`activation_symbols`, with ``accessor(symbol)``
    resolving each symbol (None: no storage) and ``result`` the function
    result's accessor."""
    symbols = activation_symbols(analysis, info)

    def entries(pairs):
        return [
            (symbol.name, is_global, accessor(symbol) or _no_storage)
            for symbol, is_global in pairs
        ]

    return RoutinePlan(
        info.name,
        info.symbol,
        entries(symbols.inputs),
        entries(symbols.outputs),
        None if symbols.result is None else result,
        symbols.exit and accessor(symbols.exit),
    )


def loop_plan(analysis: AnalyzedProgram, unit: LoopUnitInfo, accessor) -> LoopPlan:
    """The plan of :func:`loop_symbols`, resolved as in :func:`routine_plan`."""
    unit = loop_symbols(analysis, unit)

    def entries(symbols):
        return [
            (symbol.name, False, accessor(symbol) or _no_storage) for symbol in symbols
        ]

    return LoopPlan(
        unit.stmt_id, unit.name, entries(unit.inputs), entries(unit.outputs)
    )


class TreeRecorder:
    """Records one traced run's execution tree (paper §5.2), for both
    engines: the :class:`Tracer` calls it from the interpreter's hooks,
    and the compiled engine's :class:`~repro.compile.emit.TraceSession`
    from its closures.

    It creates the activation nodes under the node cap, snapshots their
    bindings through the plans, records each output's writer set (the
    occurrences that last wrote it, the slice criteria), decodes exits
    and packages the :class:`TraceResult`. The engines keep their own
    statement occurrences, data edges and writer updates, which land in
    ``ddg``, ``occ_stack`` and the cells' ``writers``.

    A mixin without slots of its own: :meth:`_start_recording` sets the
    state on the engine's object, so a slotted session keeps its slots.
    The engine provides ``analysis``, the program it runs.
    """

    __slots__ = ()

    def _start_recording(self, max_tree_nodes: int | None, profiler) -> None:
        self.ddg = DynamicDependenceGraph()
        self.occ_count = 0
        self.occ_stack: list[int] = []
        self.cur_node: ExecNode | None = None
        self.print_occs: set[int] = set()
        #: memory guard: abort the trace when the tree outgrows this
        self.max_tree_nodes = max_tree_nodes
        self.node_count = 0
        self.last_active_node_id = 0
        #: optional hot-spot profiler observing activation boundaries
        #: (:class:`repro.obs.profiler.HotspotProfiler`)
        self.prof = profiler
        self._root: ExecNode | None = None
        self._tree_index: dict[int, ExecNode] = {}
        self._output_writers: dict[tuple[int, str], set[int]] = {}

    def result(self, execution: ExecutionResult) -> TraceResult:
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
            analysis=self.analysis,
            tree=tree,
            dependence_graph=self.ddg,
            execution=execution,
        )

    def crash_unit(self) -> str | None:
        """The unit that ran the last statement (where a crash struck)."""
        node = self._tree_index.get(self.last_active_node_id)
        return node.unit_name if node is not None else None

    # ------------------------------------------------------------------
    # nodes

    def _count_node(self) -> None:
        """Memory guard: a tree node pins bindings and dependence
        bookkeeping, so runaway traces are aborted (and salvaged by
        :func:`trace_program` when degradation is enabled)."""
        self.node_count += 1
        if self.max_tree_nodes is not None and self.node_count > self.max_tree_nodes:
            from repro.resilience.errors import TraceAborted

            raise TraceAborted(
                f"execution tree exceeded {self.max_tree_nodes} activations",
                reason="tree-nodes",
            )

    def _open(self, node: ExecNode, parent: ExecNode, entries, frame) -> None:
        node.inputs = self._snapshot(entries, frame, BindingMode.IN)
        parent.add_child(node)
        self._tree_index[node.node_id] = node
        self.cur_node = node

    def _snapshot(self, entries, frame, mode: BindingMode) -> list[Binding]:
        bindings = []
        for name, is_global, acc in entries:
            bindings.append(
                Binding(name, mode, copy_value(acc(self, frame).value), is_global)
            )
        return bindings

    def _outputs(self, node: ExecNode, entries, frame) -> list[Binding]:
        """Snapshot ``entries`` as ``node``'s outputs and record each
        one's writer set (the slice criteria)."""
        output_writers = self._output_writers
        node_id = node.node_id
        outputs = []
        for name, is_global, acc in entries:
            cell = acc(self, frame)
            outputs.append(
                Binding(name, BindingMode.OUT, copy_value(cell.value), is_global)
            )
            if cell is not NO_STORAGE:
                writers = cell.writers
                output_writers[(node_id, name)] = (
                    set(writers.values()) if writers else set()
                )
        return outputs

    # ------------------------------------------------------------------
    # routine activations

    def open_main(self, info: RoutineInfo) -> None:
        self._count_node()
        node = ExecNode(kind=NodeKind.MAIN, unit_name=info.name, routine=info.symbol)
        self._root = node
        self._tree_index[node.node_id] = node
        self.cur_node = node
        if self.prof is not None:
            self.prof.enter_unit(info.name)

    def close_main(self, text: str) -> None:
        """The program's observable result is what it printed: that is
        the "externally visible symptom" the whole session starts from,
        so the root node carries it as an output."""
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        if text:
            node.outputs = [Binding("output", BindingMode.OUT, text)]
            self._output_writers[(node.node_id, "output")] = set(self.print_occs)
        self.cur_node = None

    def open_call(self, plan: RoutinePlan, frame, call_site_id: int) -> None:
        self._count_node()
        node = ExecNode(
            kind=NodeKind.CALL,
            unit_name=plan.unit_name,
            routine=plan.routine,
            call_site_id=call_site_id,
        )
        self._open(node, self.cur_node, plan.input_entries, frame)
        if self.prof is not None:
            self.prof.enter_unit(plan.unit_name)

    def close_call(self, plan: RoutinePlan, frame, via_goto: Symbol | None) -> None:
        """Close the current CALL activation: snapshot outputs and exit,
        record their writer sets, return to the caller's node, and
        attribute the function-result read to the caller's occurrence."""
        if self.prof is not None:
            self.prof.exit_unit()
        node = self.cur_node
        node.via_goto = via_goto.name if via_goto is not None else None
        outputs = self._outputs(node, plan.output_entries, frame)
        result = None if plan.result is None else plan.result(self, frame)
        if result is not None:
            value = copy_value(result.value)
            outputs.append(Binding(plan.unit_name, BindingMode.RESULT, value))
            writers = result.writers
            self._output_writers[(node.node_id, plan.unit_name)] = (
                set(writers.values()) if writers else set()
            )
        node.outputs = outputs
        if plan.exit_param is not None:
            code = plan.exit_param(self, frame).value
            node.via_goto = decode_exit(code) or node.via_goto
        self.cur_node = node.parent
        if result is not None and result.writers and self.occ_stack:
            # Reading the function result happens at the caller's occurrence.
            writer = result.writers.get(None)
            if writer is not None:
                self.ddg.add_dep(self.occ_stack[-1], writer)

    # ------------------------------------------------------------------
    # loop units

    def open_loop(self, plan: LoopPlan, frame) -> None:
        self._count_node()
        node = ExecNode(
            kind=NodeKind.LOOP, unit_name=plan.name, loop_stmt_id=plan.stmt_id
        )
        self._open(node, self.cur_node, plan.input_entries, frame)
        if self.prof is not None:
            self.prof.enter_unit(plan.name)

    def open_iteration(self, plan: LoopPlan, frame, iteration: int) -> None:
        self._count_node()
        node = ExecNode(
            kind=NodeKind.ITERATION,
            unit_name=plan.name,
            loop_stmt_id=plan.stmt_id,
            iteration=iteration,
        )
        self._open(node, self._close_iteration(plan, frame), plan.input_entries, frame)

    def close_loop(self, plan: LoopPlan, frame) -> None:
        if self.prof is not None:
            self.prof.exit_unit()
        node = self._close_iteration(plan, frame)
        node.outputs = self._outputs(node, plan.output_entries, frame)
        self.cur_node = node.parent

    def _close_iteration(self, plan: LoopPlan, frame) -> ExecNode:
        """Close the loop's open iteration, if any; returns the loop node."""
        node = self.cur_node
        if node.kind is NodeKind.ITERATION:
            node.outputs = self._snapshot(plan.output_entries, frame, BindingMode.OUT)
            node = node.parent
            self.cur_node = node
        return node


def _interpreter_accessor(symbol: Symbol):
    """An accessor reaching ``symbol`` through the interpreter's frame
    chain, as the running program would."""

    def access(tracer: "Tracer", frame: Frame) -> Cell:
        try:
            return tracer.interpreter._lookup_cell(symbol, frame)
        except PascalRuntimeError:
            return NO_STORAGE

    return access


def _result_cell(tracer: "Tracer", frame: Frame) -> Cell:
    return frame.result_cell


class Tracer(ExecutionHooks, TreeRecorder):
    """The interpreter engine's recorder: the interpreter's hooks add
    statement occurrences and data edges, keep each cell's last writers
    by the compiled closures' rule, and drive the :class:`TreeRecorder`
    through plans whose accessors look symbols up in the frame chain."""

    def __init__(
        self,
        analysis: AnalyzedProgram,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        self.analysis = analysis
        self.interpreter: Interpreter | None = None
        self._start_recording(max_tree_nodes, profiler)
        view = analysis.view
        self.loop_plans = {
            stmt_id: loop_plan(analysis, unit, _interpreter_accessor)
            for stmt_id, unit in (view.loops if view is not None else {}).items()
        }
        self._plans: dict[Symbol, RoutinePlan] = {}

    def attach(self, interpreter: Interpreter) -> None:
        self.interpreter = interpreter

    def _plan(self, info: RoutineInfo) -> RoutinePlan:
        plan = self._plans.get(info.symbol)
        if plan is None:
            plan = routine_plan(
                self.analysis, info, _interpreter_accessor, _result_cell
            )
            self._plans[info.symbol] = plan
        return plan

    # ------------------------------------------------------------------
    # occurrences and data edges

    def before_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        node = self.cur_node
        self.last_active_node_id = node.node_id
        self.occ_count += 1
        occ_id = self.ddg.new_occurrence(stmt, node.node_id, self.occ_count).occ_id
        ost = self.occ_stack
        if ost:
            # Control/nesting dependence on the enclosing occurrence.
            self.ddg.add_dep(occ_id, ost[-1])
        node.occurrence_ids.append(occ_id)
        ost.append(occ_id)

    def after_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        self.occ_stack.pop()

    def cell_read(self, cell: Cell, index: int | None) -> None:
        writers = cell.writers
        if writers is None or not self.occ_stack:
            return
        current = self.occ_stack[-1]
        writer = writers.get(index)
        if writer is not None:
            self.ddg.add_dep(current, writer)
        if index is not None:
            # An element read also depends on whole-array writes.
            whole = writers.get(None)
            if whole is not None:
                self.ddg.add_dep(current, whole)

    def io_write(self, text: str) -> None:
        # The program's printed output "depends on" every occurrence
        # that wrote a chunk of it — making the output sliceable.
        if self.occ_stack:
            self.print_occs.add(self.occ_stack[-1])

    def cell_write(self, cell: Cell, index: int | None, value: object) -> None:
        if not self.occ_stack:
            return
        writers = cell.writers
        if writers is None:
            cell.writers = {index: self.occ_stack[-1]}
            return
        if index is None:
            # A whole write supersedes element writes.
            writers.clear()
        writers[index] = self.occ_stack[-1]

    # ------------------------------------------------------------------
    # routine and loop units

    def enter_routine(
        self, call: ast.Node | None, info: RoutineInfo, frame: Frame
    ) -> None:
        if info.is_main:
            self.open_main(info)
            return
        self.open_call(self._plan(info), frame, call.node_id)
        # Attribute incoming parameter values to the call-site occurrence.
        if self.occ_stack:
            call_occ = self.occ_stack[-1]
            for param in info.params:
                cell = frame.cells.get(param)
                if cell is None:
                    continue
                writers = cell.writers
                if param.param_mode == ast.ParamMode.VALUE or writers is None:
                    # A fresh value cell, or the first sight of a
                    # by-reference cell (e.g. seeded input).
                    cell.writers = {None: call_occ}
                elif None not in writers:
                    writers[None] = call_occ

    def exit_routine(
        self, info: RoutineInfo, frame: Frame, via_goto: Symbol | None
    ) -> None:
        if info.is_main:
            self.close_main(self.interpreter.io.text)
        else:
            self.close_call(self._plan(info), frame, via_goto)

    def loop_enter(self, stmt: ast.Stmt, frame: Frame) -> None:
        plan = self.loop_plans.get(stmt.node_id)
        if plan is not None:
            self.open_loop(plan, frame)

    def loop_iteration(self, stmt: ast.Stmt, frame: Frame, iteration: int) -> None:
        plan = self.loop_plans.get(stmt.node_id)
        if plan is not None:
            self.open_iteration(plan, frame, iteration)

    def loop_exit(self, stmt: ast.Stmt, frame: Frame, iterations: int) -> None:
        plan = self.loop_plans.get(stmt.node_id)
        if plan is not None:
            self.close_loop(plan, frame)


def trace_program(
    analysis: AnalyzedProgram,
    inputs: list[object] | None = None,
    step_limit: int = 2_000_000,
    tolerate_errors: bool = False,
    budget=None,
    degrade: bool = False,
    backend: str | None = None,
    profiler=None,
) -> TraceResult:
    """Run an analyzed program under the tracer (the paper's tracing phase).
    A transformed analysis brings its loop units
    (:class:`ActivationView`); any other analysis records no loop unit.
    The loop units and the side effects that choose the bindings are
    computed on first read: the :class:`Tracer` reads every loop unit up
    front, the compiled engine a routine's when it compiles its body.

    With ``tolerate_errors``, a run that dies with a runtime error (bad
    index, division by zero, step limit...) still yields its partial
    execution tree: every activation open at the moment of the crash is
    closed with its values as of that moment, so the debugger can chase
    the crash the same way it chases a wrong value.

    ``backend`` selects the execution engine: ``"interp"`` (the
    tree-walking interpreter driving a :class:`Tracer` through hooks) or
    ``"compiled"`` (closures from :mod:`repro.compile` with inline
    event emission). ``None`` means ``REPRO_BACKEND`` if set, else
    ``"compiled"``. Both produce the same :class:`TraceResult`,
    bit-for-bit.

    ``budget`` (a :class:`repro.resilience.Budget`) bounds the trace:
    deadline and step/depth limits in the interpreter, plus a tree-node
    cap in the tracer. With ``degrade``, blowing the budget does not
    raise — the partial execution tree built so far is salvaged, capped
    at ``budget.salvage_depth``, and returned with ``degraded`` set, so
    the debugger can still localize on partial information.

    ``profiler`` (a :class:`repro.obs.profiler.HotspotProfiler`)
    observes activation enter/exit boundaries on either backend for
    self-time hot-spot attribution; ``None`` costs nothing.
    """
    from repro import obs
    from repro.pascal.errors import PascalError, StepLimitExceeded
    from repro.resilience import faults
    from repro.resilience.budget import DEFAULT_SALVAGE_DEPTH
    from repro.compile import compiled_trace_session, resolve_backend
    from repro.resilience.errors import BudgetExceeded, TraceAborted

    backend = resolve_backend(backend)
    max_tree_nodes = budget.max_tree_nodes if budget is not None else None
    if backend == "compiled":
        # One object is both the runner and the event collector.
        collector = runner = compiled_trace_session(
            analysis,
            inputs=inputs,
            step_limit=step_limit,
            budget=budget,
            max_tree_nodes=max_tree_nodes,
            profiler=profiler,
        )
    else:
        collector = tracer = Tracer(
            analysis, max_tree_nodes=max_tree_nodes, profiler=profiler
        )
        runner = Interpreter(
            analysis, io=PascalIO(inputs), hooks=tracer, step_limit=step_limit,
            budget=budget,
        )
        tracer.attach(runner)
    error: Exception | None = None
    degraded_reason: str | None = None
    with obs.span("trace.execute", program=analysis.program.name, backend=backend):
        spec = faults.fire("trace", key=analysis.program.name)
        if spec is not None:
            raise PascalRuntimeError(f"{spec.message} [trace]")
        try:
            execution = runner.run()
        except PascalError as raised:
            budget_blown = isinstance(
                raised, (BudgetExceeded, TraceAborted, StepLimitExceeded)
            )
            if degrade and budget_blown:
                degraded_reason = str(raised)
            elif not tolerate_errors:
                raise
            error = raised
            frame = runner.globals_frame
            assert frame is not None  # run() builds it before executing
            execution = ExecutionResult(
                io=runner.io, globals_frame=frame, steps=runner.steps
            )
    result = collector.result(execution)
    result.backend = backend
    result.error = error
    if error is not None:
        result.crash_unit = collector.crash_unit()
    if degraded_reason is not None:
        from repro.resilience.degrade import cap_depth

        result.degraded = True
        result.degraded_reason = degraded_reason
        salvage_depth = (
            budget.salvage_depth if budget is not None else DEFAULT_SALVAGE_DEPTH
        )
        result.truncated_nodes = cap_depth(result.tree.root, salvage_depth)
        if result.truncated_nodes:
            # Re-anchor the indexes on the surviving activations so the
            # debugger and the slicer never chase a dropped node.
            alive = {node.node_id for node in result.tree.walk()}
            result.tree.occurrence_owner = {
                occ: node
                for occ, node in result.tree.occurrence_owner.items()
                if node.node_id in alive
            }
            result.tree.output_writers = {
                key: writers
                for key, writers in result.tree.output_writers.items()
                if key[0] in alive
            }
        if obs.enabled():
            obs.add("resilience.degraded_traces")
    if obs.enabled():
        # End-of-trace accounting only: the per-statement hot path stays
        # untouched.
        nodes = result.tree.size()
        occurrences = len(result.dependence_graph)
        edges = result.dependence_graph.edge_count()
        obs.add("trace.runs")
        obs.add("trace.nodes", nodes)
        obs.add("trace.occurrences", occurrences)
        obs.add("trace.dep_edges", edges)
        obs.add("trace.steps", execution.steps)
        obs.add("backend.steps", execution.steps)
        obs.set_max_gauge("trace.peak_nodes", nodes)
        obs.set_max_gauge("trace.peak_occurrences", occurrences)
        obs.set_max_gauge("trace.peak_dep_edges", edges)
        # The journal's trace record. ``root`` anchors replay: node ids
        # are process-global, so a replayer normalizes recorded ids by
        # the difference between its own root id and this one.
        obs.emit(
            "trace",
            program=analysis.program.name,
            backend=backend,
            root=result.tree.root.node_id,
            nodes=nodes,
            occurrences=occurrences,
            dep_edges=edges,
            steps=execution.steps,
            degraded=result.degraded,
            degraded_reason=result.degraded_reason,
        )
    return result


def trace_source(
    source: str,
    inputs: list[object] | None = None,
    step_limit: int = 2_000_000,
    tolerate_errors: bool = False,
    budget=None,
    degrade: bool = False,
    backend: str | None = None,
    profiler=None,
) -> TraceResult:
    """Parse, analyze, and trace a program in one call."""
    from repro.pascal.semantics import analyze_source

    analysis = analyze_source(source)
    return trace_program(
        analysis,
        inputs=inputs,
        step_limit=step_limit,
        tolerate_errors=tolerate_errors,
        budget=budget,
        degrade=degrade,
        backend=backend,
        profiler=profiler,
    )
