"""``repro.resilience`` — fault tolerance for the GADT pipeline.

The debugger's normal diet is *buggy* programs: mutants that loop
forever, recurse past the stack, exhaust memory, or crash mid-trace.
This package makes the run/trace/debug phases degrade gracefully
instead of failing wholesale:

* **budgets** (:class:`Budget`) — wall-clock deadline, step limit,
  call-depth and tree-node guards threaded through the interpreter,
  the tracer, and the debugger;
* **error taxonomy** (:class:`BudgetExceeded`, :class:`TraceAborted`,
  :class:`WorkerCrashed`) — classifiable failures replacing bare
  propagation, so sweeps attribute each failure to one task;
* **crash isolation** (:func:`run_isolated`) — per-task process-pool
  submission with timeouts, worker-death attribution from lock-free
  start stamps, and bounded retries paced by jittered exponential
  backoff (:class:`Backoff`); ``repro serve`` kills a stuck slot with
  the same :func:`~repro.resilience.pool.kill_executor`;
* **degradation** (:func:`cap_depth`) — salvaging depth-capped partial
  execution trees when tracing blows its budget, so the debugger can
  still localize on partial information;
* **fault injection** (:mod:`repro.resilience.faults`) — deterministic
  failures at the cache-read, sink-write, trace, and worker boundaries
  so all of the above stays testable in CI.

See ``docs/ROBUSTNESS.md`` for the budget model and degradation
semantics.
"""

from __future__ import annotations

from repro.resilience import faults
from repro.resilience.backoff import Backoff, RetrySchedule
from repro.resilience.budget import DEFAULT_SALVAGE_DEPTH, Budget
from repro.resilience.degrade import cap_depth
from repro.resilience.errors import (
    BudgetExceeded,
    FaultInjected,
    ResilienceError,
    TraceAborted,
    WorkerCrashed,
)
from repro.resilience.pool import TaskResult, run_isolated

__all__ = [
    "Backoff",
    "Budget",
    "BudgetExceeded",
    "DEFAULT_SALVAGE_DEPTH",
    "FaultInjected",
    "ResilienceError",
    "RetrySchedule",
    "TaskResult",
    "TraceAborted",
    "WorkerCrashed",
    "cap_depth",
    "faults",
    "run_isolated",
]
