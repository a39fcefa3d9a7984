"""Resource budgets for runs, traces, and debug sessions.

A :class:`Budget` bounds one pipeline activity along four axes:

* **wall clock** (``deadline_s``) — checked by a run every
  :data:`repro.pascal.values.DEADLINE_MASK` + 1 steps, so an infinite
  loop costs at most the deadline, never the sweep;
* **steps** (``step_limit``) — tightens (never loosens) the
  interpreter's own step budget;
* **call depth** (``max_call_depth``) — tightens the interpreter's
  recursion guard so runaway recursion dies cheaply;
* **tree nodes** (``max_tree_nodes``) — caps execution-tree growth
  during tracing (the memory guard: each node pins bindings and
  dependence bookkeeping).

Budgets are per-activity: call :meth:`start` (or :func:`Budget.started`)
immediately before the run it governs; the deadline is measured from
that instant. A budget that was never started has no deadline.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.resilience.errors import BudgetExceeded


def _journal(action: str, **fields: object) -> None:
    """Emit a ``budget`` event if observability is loaded and enabled
    (``sys.modules`` probe: the resilience substrate never imports
    upward, mirroring the cache's metric counting)."""
    obs = sys.modules.get("repro.obs")
    if obs is not None:
        obs.emit("budget", action=action, **fields)

#: depth cap applied to a salvaged partial tree when the budget does
#: not name one (keeps the degraded debug search bounded)
DEFAULT_SALVAGE_DEPTH = 12


@dataclass
class Budget:
    """Resource limits for one run/trace/debug activity. ``None`` along
    any axis means "no limit along this axis"."""

    deadline_s: float | None = None
    step_limit: int | None = None
    max_call_depth: int | None = None
    max_tree_nodes: int | None = None
    #: depth cap for partial trees salvaged after a mid-trace abort
    salvage_depth: int = DEFAULT_SALVAGE_DEPTH

    #: absolute ``time.monotonic`` deadline, set by :meth:`start`
    deadline_at: float | None = None

    def start(self) -> "Budget":
        """Arm the wall-clock deadline now; returns self for chaining."""
        if self.deadline_s is not None:
            self.deadline_at = time.monotonic() + self.deadline_s
            _journal(
                "armed",
                deadline_s=self.deadline_s,
                step_limit=self.step_limit,
                max_tree_nodes=self.max_tree_nodes,
            )
        return self

    @classmethod
    def started(cls, **kwargs: object) -> "Budget":
        """Construct and :meth:`start` in one call."""
        return cls(**kwargs).start()  # type: ignore[arg-type]

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (None when unarmed; floored at 0)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def expired(self) -> bool:
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at

    def check(self, location=None) -> None:
        """Raise :class:`BudgetExceeded` if the deadline has passed."""
        if self.expired():
            _journal("exhausted", resource="deadline", deadline_s=self.deadline_s)
            raise BudgetExceeded(
                f"wall-clock budget of {self.deadline_s}s exhausted",
                location,
                resource="deadline",
            )

    def effective_step_limit(self, default: int) -> int:
        """The interpreter step limit under this budget (tighten only)."""
        if self.step_limit is None:
            return default
        return min(self.step_limit, default)

    def effective_call_depth(self, default: int) -> int:
        """The interpreter call-depth cap under this budget (tighten only)."""
        if self.max_call_depth is None:
            return default
        return min(self.max_call_depth, default)
