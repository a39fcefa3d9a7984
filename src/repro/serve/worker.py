"""Worker-side job execution for the debug service.

Runs inside a service worker: the child process a service slot owns,
so a crash costs that slot and nothing else. The contract with
:mod:`repro.serve.service` mirrors the one :mod:`repro.resilience.pool`
workers honour:

* **user-level failures return, infra failures raise.** A program
  error, a blown budget, or a degraded salvage are *results* — the job
  is done, no retry will change it — so they come back as tagged
  dicts. An injected ``serve.worker`` fault, an ``OSError``, or a
  process death are *infrastructure* — the parent retries them with
  backoff and charges the tenant's circuit breaker.
* **the fault point fires first.** ``serve.worker`` is keyed
  ``<job id>@<attempt>`` exactly like the sweep pool's ``worker``
  point, so a plan can kill attempt 0 and let the retry run clean.

Per-process state (the shared test-report store handle, parsed specs)
is built once by :func:`init_worker`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: per-process answer service over the shared store (None = no testdb)
_ANSWER_SERVICE = None


def init_worker(
    testdb: str | None,
    spec_texts: Sequence[str] = (),
    fault_plan=None,
) -> None:
    """Process-pool initializer: install the parent's fault plan and
    open this worker's :class:`~repro.store.BatchAnswerService` over the
    shared store, with the given T-GEN specs and the registered
    automatic frame selectors. Segments are immutable once published,
    so read-only handles in many processes are safe."""
    global _ANSWER_SERVICE
    from repro.resilience import faults

    faults.install(fault_plan)
    if testdb is None:
        return
    import repro.workloads.arrsum_spec  # noqa: F401  (registers its selector)
    from repro.store import BatchAnswerService, ShardedReportStore
    from repro.tgen import FRAME_SELECTORS
    from repro.tgen.spec_parser import parse_spec

    _ANSWER_SERVICE = BatchAnswerService(
        ShardedReportStore(testdb),
        specs=[parse_spec(text) for text in spec_texts],
        selectors=dict(FRAME_SELECTORS),
    )


def _budget(deadline_s: float | None):
    if deadline_s is None:
        return None
    from repro.resilience import Budget

    return Budget.started(deadline_s=deadline_s)


def execute_job(payload: Mapping[str, Any], attempt: int = 0) -> dict:
    """Execute one job payload; returns a tagged result dict.

    Result shapes: ``{"ok": ..., "degraded": ..., ...}`` on success,
    ``{"timed_out": <msg>}`` on a blown budget without salvage,
    ``{"program_error": <msg>}`` when the *program* is at fault.
    Anything raised out of here is infrastructure and will be retried.
    """
    from repro.pascal.errors import PascalError
    from repro.resilience import BudgetExceeded, faults

    faults.trip("serve.worker", key=f"{payload.get('id', '')}@{attempt}")
    op = payload["op"]
    try:
        if op == "run":
            return _run(payload)
        if op == "trace":
            return _trace(payload)
        if op == "debug":
            return _debug(payload)
        if op == "answer":
            return _answer(payload)
    except BudgetExceeded as exc:  # must precede PascalError: it is both
        return {"timed_out": str(exc)}
    except PascalError as exc:
        return {"program_error": f"{type(exc).__name__}: {exc}"}
    raise ValueError(f"unknown job op {op!r}")  # guarded by the protocol


def _run(payload: Mapping[str, Any]) -> dict:
    from repro.pascal import run_source

    result = run_source(
        payload["source"],
        inputs=list(payload.get("inputs") or []),
        step_limit=payload.get("step_limit", 2_000_000),
        budget=_budget(payload.get("deadline_s")),
    )
    return {"ok": {"output": result.output, "steps": result.steps}}


def _trace(payload: Mapping[str, Any]) -> dict:
    from repro.tracing import trace_source

    trace = trace_source(
        payload["source"],
        inputs=list(payload.get("inputs") or []),
        step_limit=payload.get("step_limit", 2_000_000),
        budget=_budget(payload.get("deadline_s")),
        degrade=bool(payload.get("degrade")),
    )
    return {
        "ok": {
            "nodes": trace.tree.size(),
            "occurrences": len(trace.dependence_graph),
            "backend": trace.backend,
        },
        "degraded": trace.degraded,
        "degraded_reason": trace.degraded_reason,
    }


def _debug(payload: Mapping[str, Any]) -> dict:
    from repro.core import GadtSystem, ReferenceOracle
    from repro.core.oracle import Oracle

    inputs = list(payload.get("inputs") or [])
    system = GadtSystem.from_source(
        payload["source"],
        program_inputs=inputs,
        step_limit=payload.get("step_limit", 2_000_000),
        budget=_budget(payload.get("deadline_s")),
        degrade=bool(payload.get("degrade")),
    )
    if payload.get("reference"):
        oracle: Oracle = ReferenceOracle.from_source(
            payload["reference"], program_inputs=inputs
        )
    else:
        # Store-answered session: a query the store cannot answer ends
        # the session (there is no human on the other end of a service).
        oracle = _GiveUpOracle()
    test_lookup = None
    if payload.get("use_testdb") and _ANSWER_SERVICE is not None:
        test_lookup = _ANSWER_SERVICE.session_lookup()
    try:
        debugger = system.debugger(
            oracle,
            strategy=payload.get("strategy", "top-down"),
            test_lookup=test_lookup,
        )
    except ValueError as exc:
        # An unknown strategy is a fault of the *request*, not of the
        # infrastructure: report it as a permanent result so the parent
        # never burns retries or breaker credit on it. The protocol
        # rejects these up front; this guards direct payload callers.
        return {"invalid": str(exc)}
    try:
        result = debugger.debug()
    except _OracleExhausted as exc:
        return {
            "ok": {
                "localized": False,
                "bug_unit": None,
                "stopped": "oracle_exhausted",
                "unanswerable_unit": exc.unit,
            },
            "degraded": system.trace.degraded,
            "degraded_reason": system.trace.degraded_reason,
        }
    return {
        "ok": {
            "localized": result.localized,
            "bug_unit": result.bug_unit,
            "user_questions": result.user_questions,
            "auto_answers": result.auto_answers,
            "slices": result.slices,
        },
        "degraded": result.partial,
        "degraded_reason": result.degraded_reason,
    }


def _answer(payload: Mapping[str, Any]) -> dict:
    if _ANSWER_SERVICE is None:
        return {"program_error": "service has no test-report store configured"}
    from repro.store import BatchQuery

    queries = [
        BatchQuery(unit=q["unit"], inputs=q.get("inputs") or {})
        for q in payload["queries"]
    ]
    budget = _budget(payload.get("deadline_s"))
    outcomes = _ANSWER_SERVICE.answer_batch(queries, budget=budget)
    return {
        "ok": {
            "answers": [
                {
                    "unit": query.unit,
                    "status": outcome.status.name.lower(),
                    "answers_yes": outcome.answers_yes,
                }
                for query, outcome in zip(queries, outcomes)
            ]
        }
    }


class _OracleExhausted(Exception):
    """A store-answered session hit a question only a human could answer."""

    def __init__(self, unit: str):
        super().__init__(unit)
        self.unit = unit


class _GiveUpOracle:
    """Oracle for oracle-less service sessions: any question that falls
    all the way through the answer chain ends the session cleanly."""

    def answer(self, query):
        raise _OracleExhausted(query.unit_name)
