"""Inline trace emission for the compiled backend.

The interpreter backend routes every observable event through the
:class:`~repro.pascal.interpreter.ExecutionHooks` protocol — one or two
Python calls per statement before any work happens. The compiled
backend inverts this: statement closures emitted by
:mod:`repro.compile.compiler` write occurrences, dependence edges, and
per-cell last writers *directly* into the :class:`TraceSession` (via
:func:`enter_stmt` and the inlined read/write recording in
:mod:`repro.compile.ops`).

Activations are recorded by the
:class:`~repro.tracing.tracer.TreeRecorder` both engines share: call
and loop closures call its ``open_call``/``close_call`` and loop
methods with binding plans the compiler builds once per routine and
loop, whose accessors reach frame slots directly.

The session exposes the same result surface as the interpreter's
:class:`~repro.tracing.tracer.Tracer` (``result()``, ``crash_unit()``),
so :func:`repro.tracing.tracer.trace_program` drives either backend
through one code path, including degraded-trace salvage.
"""

from __future__ import annotations

from repro.pascal.errors import StepLimitExceeded
from repro.pascal.interpreter import ExecutionResult
from repro.pascal.values import DEADLINE_MASK, MainBody
from repro.tracing.dynamic_deps import Occurrence
from repro.tracing.tracer import TreeRecorder
from repro.compile.runtime import Runtime


def enter_stmt(rt: "TraceSession", stmt_id: int, line: int, location) -> None:
    """Traced statement prologue: :func:`~repro.pascal.values.tick`,
    inlined because it runs once per statement, plus a new occurrence
    (with its control edge) pushed on the occurrence stack.
    The matching epilogue is ``rt.occ_stack.pop()``, which statement
    closures skip when unwinding — exactly like the interpreter's
    ``after_stmt`` hook, so goto-unwinding quirks replicate."""
    steps = rt.steps + 1
    rt.steps = steps
    if steps > rt.step_limit:
        raise StepLimitExceeded(
            f"execution exceeded {rt.step_limit} steps", location
        )
    if rt.budget is not None and not steps & DEADLINE_MASK:
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


class TraceSession(Runtime, TreeRecorder):
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
        # The profiler costs one None-test per activation; the
        # per-statement closures never see it (steps per unit and line
        # are derived post hoc from occurrences).
        self._start_recording(max_tree_nodes, profiler)
        # Aliases written directly by the compiled closures.
        self.occurrences = self.ddg.occurrences
        self.adj = self.ddg._adj

    @property
    def analysis(self):
        return self.program.analysis

    def run(self) -> ExecutionResult:
        frame = self.globals_frame
        self.open_main(self.analysis.main)
        with MainBody():
            try:
                self.program.main(self, frame)
            finally:
                self.close_main(self.io.text)
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)
