"""Runtime objects for the compiled execution backend.

The compiled backend (see :mod:`repro.compile`) turns the mini-Pascal
AST into Python closures once per program; this module supplies the
mutable state those closures run against, in the interpreter's
:class:`~repro.pascal.interpreter.Cell` storage (whose ``writers`` the
traced closures keep):

* :class:`CFrame` — a slot-addressed activation record. Variable
  references are compiled to direct list indexing (own frame, a static
  ``up``-link hop for nested routines, or the shared globals slab), so
  there is no per-access dict lookup or frame-stack scan.
* :class:`Runtime` — the per-run state (io, step counter, budget, call
  depth, globals, the program's routine-body table) plus the plain
  ``run()`` entry point. The traced
  variant lives in :mod:`repro.compile.emit`.

The step accounting, the budget's limits, array widening and the
escaped-goto error are the interpreter's own rules, imported from
:mod:`repro.pascal.values`.
"""

from __future__ import annotations

from repro.pascal.interpreter import Cell, ExecutionResult, Frame, PascalIO
from repro.pascal.values import MainBody, default_value, run_limits


class CFrame:
    """A compiled activation record: cells in compiler-assigned slots
    (parameters, then locals, then the function result cell), plus the
    static link ``up`` to the enclosing routine's frame for non-local
    access from nested routines."""

    __slots__ = ("slots", "up")

    def __init__(self, slots: list[Cell], up: "CFrame | None"):
        self.slots = slots
        self.up = up


class Runtime:
    """Per-run state for the compiled backend (plain, untraced mode).

    Limits come from :func:`~repro.pascal.values.run_limits`, as the
    interpreter's do. ``globals_frame`` is a real interpreter
    :class:`Frame` (so :class:`ExecutionResult` consumers see the same
    shape) whose cells are additionally exposed positionally through
    ``gslots`` for compiled global access.
    """

    __slots__ = (
        "program",
        "io",
        "steps",
        "step_limit",
        "budget",
        "depth",
        "max_depth",
        "gslots",
        "globals_frame",
        "bodies",
    )

    def __init__(self, program, io=None, step_limit: int = 2_000_000, budget=None):
        self.program = program
        #: the program's body table, read by every call closure
        self.bodies = program.bodies
        self.io = io if io is not None else PascalIO()
        self.step_limit, self.max_depth = run_limits(step_limit, budget)
        self.budget = budget
        self.steps = 0
        frame = Frame(routine=program.analysis.main)
        cells = frame.cells
        gslots: list[Cell] = []
        for symbol in program.global_symbols:
            cell = Cell(default_value(symbol.type), symbol)
            cells[symbol] = cell
            gslots.append(cell)
        self.gslots = gslots
        self.globals_frame = frame
        #: Pascal frame count, globals frame included (the interpreter's
        #: depth guard compares ``len(self._frames)``, which starts at 1)
        self.depth = 1

    def run(self) -> ExecutionResult:
        """Execute the whole program from its (compiled) main body."""
        frame = self.globals_frame
        with MainBody():
            self.program.main(self, frame)
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)
