"""Runtime objects for the compiled execution backend.

The compiled backend (see :mod:`repro.compile`) turns the mini-Pascal
AST into Python closures once per program; this module supplies the
mutable state those closures run against:

* :class:`CCell` — interpreter-compatible storage cells extended with a
  per-cell ``writers`` map (element index → last writing occurrence id),
  replacing the tracer's global ``(id(cell), index)`` dictionary. A
  whole write clears the map; "all writers of this cell" is then simply
  ``set(writers.values())`` instead of a scan over every key the trace
  ever produced.
* :class:`CFrame` — a slot-addressed activation record. Variable
  references are compiled to direct list indexing (own frame, a static
  ``up``-link hop for nested routines, or the shared globals slab), so
  there is no per-access dict lookup or frame-stack scan.
* :class:`Runtime` — the per-run state (io, step counter, budget, call
  depth, globals, the program's routine-body table) plus the plain
  ``run()`` entry point. The traced
  variant lives in :mod:`repro.compile.emit`.

Conformance: every limit check reproduces the interpreter byte for
byte — same messages, same source locations, same check ordering — so
differential tests can compare error strings across backends.
"""

from __future__ import annotations

from repro.pascal.errors import PascalRuntimeError, StepLimitExceeded
from repro.pascal.interpreter import (
    _MAX_DEPTH,
    _RecursionHeadroom,
    Cell,
    ExecutionResult,
    Frame,
    GotoSignal,
    PascalIO,
)
from repro.pascal.symbols import ArrayTypeInfo
from repro.pascal.values import ArrayValue, UNDEFINED, default_value

#: deadline checks fire when ``steps & _DEADLINE_MASK == 0`` (mirrors
#: the interpreter / repro.resilience.budget.DEADLINE_CHECK_MASK)
_DEADLINE_MASK = 0x3FF


class CCell(Cell):
    """A storage cell that carries its own dependence bookkeeping.

    ``writers`` is ``None`` until the traced backend records a write;
    afterwards it maps element index (``None`` = whole cell) to the
    occurrence id that last wrote that location. Keeping the map on the
    cell makes write attribution O(1) and writer enumeration O(live
    writers) — the tracer's global map pays a full scan per output
    binding instead.
    """

    __slots__ = ("writers",)

    def __init__(self, value: object = UNDEFINED, symbol=None):
        self.value = value
        self.symbol = symbol
        self.writers: dict[int | None, int] | None = None


class CFrame:
    """A compiled activation record: cells in compiler-assigned slots
    (parameters, then locals, then the function result cell), plus the
    static link ``up`` to the enclosing routine's frame for non-local
    access from nested routines."""

    __slots__ = ("slots", "up")

    def __init__(self, slots: list[CCell], up: "CFrame | None"):
        self.slots = slots
        self.up = up


def tick(rt: "Runtime", location) -> None:
    """One step of the step/deadline accounting (statement prologue in
    plain mode; loop-iteration tick in both modes). Mirrors
    ``Interpreter._tick`` exactly."""
    steps = rt.steps + 1
    rt.steps = steps
    if steps > rt.step_limit:
        raise StepLimitExceeded(
            f"execution exceeded {rt.step_limit} steps", location
        )
    if rt.budget is not None and not steps & _DEADLINE_MASK:
        rt.budget.check(location)


def adapt_value(value: object, target_type: object) -> object:
    """Widen an array value to a larger declared array type (mirrors
    ``Interpreter._adapt_value``, including the location-less error)."""
    if (
        isinstance(target_type, ArrayTypeInfo)
        and isinstance(value, ArrayValue)
        and (value.low, value.high) != (target_type.low, target_type.high)
    ):
        if len(value.elements) > target_type.length:
            raise PascalRuntimeError(
                f"array value with {len(value.elements)} elements does not "
                f"fit array[{target_type.low}..{target_type.high}]"
            )
        widened = ArrayValue(target_type.low, target_type.high)
        for offset, element in enumerate(value.elements):
            widened.elements[offset] = element
        return widened
    return value


class Runtime:
    """Per-run state for the compiled backend (plain, untraced mode).

    Matches the interpreter's construction contract: a budget tightens
    the step limit and call depth and is armed on construction if not
    already started. ``globals_frame`` is a real interpreter
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
        if budget is not None:
            step_limit = budget.effective_step_limit(step_limit)
            self.max_depth = budget.effective_call_depth(_MAX_DEPTH)
            if budget.deadline_at is None:
                budget.start()
        else:
            self.max_depth = _MAX_DEPTH
        self.budget = budget
        self.step_limit = step_limit
        self.steps = 0
        frame = Frame(routine=program.analysis.main)
        cells = frame.cells
        gslots: list[CCell] = []
        for symbol in program.global_symbols:
            cell = CCell(default_value(symbol.type), symbol)
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
        with _RecursionHeadroom():
            try:
                self.program.main(self, frame)
            except GotoSignal as signal:
                raise PascalRuntimeError(
                    f"goto {signal.label.name} escaped the program", signal.location
                )
        return ExecutionResult(io=self.io, globals_frame=frame, steps=self.steps)
