"""The tracer: builds execution trees and dynamic dependences (paper §5.2).

Implemented as :class:`~repro.pascal.interpreter.ExecutionHooks`. One
``Tracer`` instance observes one program run and yields a
:class:`TraceResult` bundling the execution tree, the dynamic dependence
graph, and the analyses the debugging phase needs.

Loop units: a transformed analysis's :class:`ActivationView` carries
the registry of the transformation phase's loop-unit pass, and each
registered loop becomes a unit node in the execution tree with
per-iteration child nodes — the paper's treatment of loops as
debuggable units (§5.1, §6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.pascal import ast_nodes as ast
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
from repro.pascal.values import UNDEFINED, copy_value
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
    §5.2). Both engines map these symbols to storage their own way, the
    interpreter's :class:`Tracer` per activation and the compiler once
    per routine, so they record the same bindings.

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


class Tracer(ExecutionHooks):
    def __init__(
        self,
        analysis: AnalyzedProgram,
        max_tree_nodes: int | None = None,
        profiler=None,
    ):
        self.analysis = analysis
        view = analysis.view
        self.loop_units = {
            stmt_id: loop_symbols(analysis, unit)
            for stmt_id, unit in (view.loops if view is not None else {}).items()
        }
        self.interpreter: Interpreter | None = None
        #: memory guard: abort the trace when the tree outgrows this
        self.max_tree_nodes = max_tree_nodes
        self._node_count = 0
        #: optional hot-spot profiler observing activation boundaries
        #: (:class:`repro.obs.profiler.HotspotProfiler`)
        self.profiler = profiler

        self.ddg = DynamicDependenceGraph()
        self._occ_counter = 0
        self._occ_stack: list[int] = []
        #: (cell id, element index or None) -> last writing occurrence id
        self._last_writer: dict[tuple[int, int | None], int] = {}
        #: pin cells so id() keys stay unique for the lifetime of the trace
        self._pinned_cells: dict[int, Cell] = {}

        self._activations: dict[Symbol, ActivationSymbols] = {}
        self._print_occs: set[int] = set()
        self.last_active_node_id: int = 0
        self._root: ExecNode | None = None
        self._node_stack: list[ExecNode] = []
        self._tree_index: dict[int, ExecNode] = {}
        self._output_writers: dict[tuple[int, str], set[int]] = {}
        #: open loop/iteration bookkeeping: loop stmt id -> (loop node, iter node)
        self._open_loops: list[tuple[ExecNode, ExecNode | None]] = []

    # ------------------------------------------------------------------
    # wiring

    def attach(self, interpreter: Interpreter) -> None:
        self.interpreter = interpreter

    def result(self, execution: ExecutionResult) -> TraceResult:
        assert self._root is not None, "no traced run"
        tree = ExecutionTree(root=self._root)
        tree.occurrence_owner = {
            occ_id: self._tree_index[occ.exec_node_id]
            for occ_id, occ in self.ddg.occurrences.items()
            if occ.exec_node_id in self._tree_index
        }
        tree.output_writers = dict(self._output_writers)
        return TraceResult(
            analysis=self.analysis,
            tree=tree,
            dependence_graph=self.ddg,
            execution=execution,
        )

    def _count_node(self) -> None:
        """Memory guard: a tree node pins bindings and dependence
        bookkeeping, so runaway traces are aborted (and salvaged by
        :func:`trace_program` when degradation is enabled)."""
        self._node_count += 1
        if self.max_tree_nodes is not None and self._node_count > self.max_tree_nodes:
            from repro.resilience.errors import TraceAborted

            raise TraceAborted(
                f"execution tree exceeded {self.max_tree_nodes} activations",
                reason="tree-nodes",
            )

    # ------------------------------------------------------------------
    # occurrences

    def _current_node_id(self) -> int:
        return self._node_stack[-1].node_id if self._node_stack else 0

    def _push_occurrence(self, stmt: ast.Stmt | None) -> int:
        self._occ_counter += 1
        occ = self.ddg.new_occurrence(stmt, self._current_node_id(), self._occ_counter)
        if self._occ_stack:
            # Control/nesting dependence on the enclosing occurrence.
            self.ddg.add_dep(occ.occ_id, self._occ_stack[-1])
        if self._node_stack:
            self._node_stack[-1].occurrence_ids.append(occ.occ_id)
        self._occ_stack.append(occ.occ_id)
        return occ.occ_id

    def before_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        self.last_active_node_id = self._current_node_id()
        self._push_occurrence(stmt)

    def after_stmt(self, stmt: ast.Stmt, frame: Frame) -> None:
        self._occ_stack.pop()

    def cell_read(self, cell: Cell, index: int | None) -> None:
        if not self._occ_stack:
            return
        current = self._occ_stack[-1]
        writer = self._last_writer.get((id(cell), index))
        if writer is not None:
            self.ddg.add_dep(current, writer)
        if index is not None:
            # An element read also depends on whole-array writes.
            whole = self._last_writer.get((id(cell), None))
            if whole is not None:
                self.ddg.add_dep(current, whole)

    def io_write(self, text: str) -> None:
        # The program's printed output "depends on" every occurrence
        # that wrote a chunk of it — making the output sliceable.
        if self._occ_stack:
            self._print_occs.add(self._occ_stack[-1])

    def cell_write(self, cell: Cell, index: int | None, value: object) -> None:
        if not self._occ_stack:
            return
        self._pinned_cells[id(cell)] = cell
        self._last_writer[(id(cell), index)] = self._occ_stack[-1]
        if index is None:
            # A whole write supersedes element writes.
            stale = [
                key
                for key in self._last_writer
                if key[0] == id(cell) and key[1] is not None
            ]
            for key in stale:
                del self._last_writer[key]

    # ------------------------------------------------------------------
    # routine units

    def enter_routine(
        self, call: ast.Node | None, info: RoutineInfo, frame: Frame
    ) -> None:
        self._count_node()
        if info.is_main:
            node = ExecNode(
                kind=NodeKind.MAIN, unit_name=info.name, routine=info.symbol
            )
            self._root = node
        else:
            node = ExecNode(
                kind=NodeKind.CALL,
                unit_name=info.name,
                routine=info.symbol,
                call_site_id=call.node_id if call is not None else None,
            )
            if self._node_stack:
                self._node_stack[-1].add_child(node)
            else:  # isolated unit call (testing/oracle use)
                self._root = node
        self._tree_index[node.node_id] = node
        node.inputs = self._input_bindings(info, frame)
        self._node_stack.append(node)
        if self.profiler is not None:
            self.profiler.enter_unit(info.name)

        # Attribute incoming parameter values to the call-site occurrence.
        if self._occ_stack:
            call_occ = self._occ_stack[-1]
            for param in info.params:
                cell = frame.cells.get(param)
                if cell is None:
                    continue
                self._pinned_cells[id(cell)] = cell
                key = (id(cell), None)
                if param.param_mode == ast.ParamMode.VALUE:
                    self._last_writer[key] = call_occ
                elif key not in self._last_writer:
                    # First sight of a by-reference cell (e.g. seeded input).
                    self._last_writer[key] = call_occ

    def exit_routine(
        self, info: RoutineInfo, frame: Frame, via_goto: Symbol | None
    ) -> None:
        if self.profiler is not None:
            self.profiler.exit_unit()
        node = self._node_stack.pop()
        node.via_goto = via_goto.name if via_goto is not None else None
        self._close_outputs(node, info, frame)
        # Reading the function result happens at the caller's occurrence.
        if frame.result_cell is not None and self._occ_stack:
            writer = self._last_writer.get((id(frame.result_cell), None))
            if writer is not None:
                self.ddg.add_dep(self._occ_stack[-1], writer)

    # ------------------------------------------------------------------
    # loop units

    def loop_enter(self, stmt: ast.Stmt, frame: Frame) -> None:
        unit = self.loop_units.get(stmt.node_id)
        if unit is None:
            return
        self._count_node()
        node = ExecNode(
            kind=NodeKind.LOOP,
            unit_name=unit.name,
            loop_stmt_id=stmt.node_id,
        )
        node.inputs = self._loop_bindings(unit.inputs, frame, BindingMode.IN)
        if self._node_stack:
            self._node_stack[-1].add_child(node)
        self._tree_index[node.node_id] = node
        self._node_stack.append(node)
        self._open_loops.append((node, None))
        if self.profiler is not None:
            self.profiler.enter_unit(unit.name)

    def loop_iteration(self, stmt: ast.Stmt, frame: Frame, iteration: int) -> None:
        unit = self.loop_units.get(stmt.node_id)
        if unit is None:
            return
        self._count_node()
        loop_node, iter_node = self._open_loops[-1]
        if iter_node is not None:
            self._close_iteration(unit, iter_node, frame)
        new_iter = ExecNode(
            kind=NodeKind.ITERATION,
            unit_name=unit.name,
            loop_stmt_id=stmt.node_id,
            iteration=iteration,
        )
        new_iter.inputs = self._loop_bindings(unit.inputs, frame, BindingMode.IN)
        loop_node.add_child(new_iter)
        self._tree_index[new_iter.node_id] = new_iter
        self._node_stack.append(new_iter)
        self._open_loops[-1] = (loop_node, new_iter)

    def loop_exit(self, stmt: ast.Stmt, frame: Frame, iterations: int) -> None:
        unit = self.loop_units.get(stmt.node_id)
        if unit is None:
            return
        if self.profiler is not None:
            self.profiler.exit_unit()
        loop_node, iter_node = self._open_loops.pop()
        if iter_node is not None:
            self._close_iteration(unit, iter_node, frame)
        loop_node.outputs = self._loop_bindings(unit.outputs, frame, BindingMode.OUT)
        self._record_loop_output_writers(loop_node, unit, frame)
        popped = self._node_stack.pop()
        assert popped is loop_node

    def _close_iteration(
        self, unit: LoopUnitInfo, iter_node: ExecNode, frame: Frame
    ) -> None:
        iter_node.outputs = self._loop_bindings(unit.outputs, frame, BindingMode.OUT)
        popped = self._node_stack.pop()
        assert popped is iter_node

    # ------------------------------------------------------------------
    # snapshots

    def _symbol_value(self, symbol: Symbol, frame: Frame) -> object:
        assert self.interpreter is not None
        try:
            cell = self.interpreter._lookup_cell(symbol, frame)
        except Exception:
            return UNDEFINED
        return copy_value(cell.value)

    def _symbol_cell(self, symbol: Symbol, frame: Frame) -> Cell | None:
        assert self.interpreter is not None
        try:
            return self.interpreter._lookup_cell(symbol, frame)
        except Exception:
            return None

    def _activation(self, info: RoutineInfo) -> ActivationSymbols:
        symbols = self._activations.get(info.symbol)
        if symbols is None:
            symbols = activation_symbols(self.analysis, info)
            self._activations[info.symbol] = symbols
        return symbols

    def _input_bindings(self, info: RoutineInfo, frame: Frame) -> list[Binding]:
        if info.is_main:
            return []
        return [
            Binding(
                symbol.name, BindingMode.IN, self._symbol_value(symbol, frame), is_global
            )
            for symbol, is_global in self._activation(info).inputs
        ]

    def _close_outputs(self, node: ExecNode, info: RoutineInfo, frame: Frame) -> None:
        """Snapshot the activation's outputs and exit, and record, per
        output, the occurrences that last wrote it (the slice criteria)."""
        if info.is_main:
            # The program's observable result is what it printed: that is
            # the "externally visible symptom" the whole session starts
            # from, so the root node carries it as an output.
            assert self.interpreter is not None
            text = self.interpreter.io.text
            if text:
                node.outputs = [Binding("output", BindingMode.OUT, text)]
                self._output_writers[(node.node_id, "output")] = set(self._print_occs)
            return
        symbols = self._activation(info)
        outputs = [
            self._output(
                node, symbol.name, BindingMode.OUT, self._symbol_cell(symbol, frame),
                is_global,
            )
            for symbol, is_global in symbols.outputs
        ]
        if symbols.result is not None:
            outputs.append(
                self._output(node, info.name, BindingMode.RESULT, frame.result_cell)
            )
        node.outputs = outputs
        if symbols.exit is not None:
            code = self._symbol_value(symbols.exit, frame)
            node.via_goto = decode_exit(code) or node.via_goto

    def _output(
        self,
        node: ExecNode,
        name: str,
        mode: BindingMode,
        cell: Cell | None,
        is_global: bool = False,
    ) -> Binding:
        if cell is None:
            return Binding(name, mode, UNDEFINED, is_global)
        self._output_writers[(node.node_id, name)] = self._writers_of_cell(cell)
        return Binding(name, mode, copy_value(cell.value), is_global)

    def _loop_bindings(
        self, symbols: tuple[Symbol, ...], frame: Frame, mode: BindingMode
    ) -> list[Binding]:
        return [
            Binding(symbol.name, mode, self._symbol_value(symbol, frame))
            for symbol in symbols
        ]

    # ------------------------------------------------------------------
    # slice criteria support

    def _writers_of_cell(self, cell: Cell) -> set[int]:
        writers: set[int] = set()
        for (cell_id, _index), occ in self._last_writer.items():
            if cell_id == id(cell):
                writers.add(occ)
        return writers

    def _record_loop_output_writers(
        self, node: ExecNode, unit: LoopUnitInfo, frame: Frame
    ) -> None:
        for symbol in unit.outputs:
            cell = self._symbol_cell(symbol, frame)
            if cell is not None:
                self._output_writers[(node.node_id, symbol.name)] = (
                    self._writers_of_cell(cell)
                )


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
    from repro.pascal.errors import (
        PascalError,
        PascalRuntimeError,
        StepLimitExceeded,
    )
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
        crash_node = collector._tree_index.get(collector.last_active_node_id)
        result.crash_unit = crash_node.unit_name if crash_node is not None else None
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
