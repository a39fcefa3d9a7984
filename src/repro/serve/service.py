"""The fault-tolerant multi-session debug service.

:class:`DebugService` is the front door the ROADMAP asked for: it
accepts many concurrent debug/trace/run/answer jobs and multiplexes
them over one shared test-report store and a fixed pool of workers,
staying correct and responsive when overloaded, when jobs misbehave,
and when workers die. The invariant everything else hangs off:

    **every admitted job receives exactly one terminal response** —
    ``completed`` / ``degraded`` / ``shed`` / ``timed_out`` /
    ``failed`` — never silence.

Robustness mechanisms, in the order a job meets them:

1. **admission control** — a full queue sheds ``overloaded`` (the
   queue is bounded; the service never grows without limit), a tenant
   over its token-bucket rate sheds ``rate_limited``, a tenant whose
   jobs keep crashing workers sheds ``circuit_open``, a draining
   service sheds ``draining``. All before any queue slot is taken.
2. **queue-timeout semantics** — a job whose deadline expires while
   it waits is ``timed_out`` *before* it burns a worker; the deadline
   covers wait + execution, so a slow queue eats into execution budget,
   never past it.
3. **slot-isolated workers** — every concurrency slot owns its own
   single-process executor, so a worker death breaks exactly one slot
   and is attributed to exactly one job (the permanent form of
   :mod:`repro.resilience.pool`'s solo-phase disambiguation); the
   slot's process is rebuilt and the job retried.
4. **retry with jittered exponential backoff** — infra failures
   (worker death, injected ``serve.worker`` faults, ``OSError``) are
   retried up to ``retries`` times via the shared
   :class:`~repro.resilience.backoff.Backoff`, then ``failed`` with
   reason ``infra_error``. Program errors are never retried — they are
   the job's own fault and deterministic.
5. **graceful degradation** — when queue depth crosses the
   ``pressure_highwater`` fraction, trace/debug jobs that did not pin
   ``degrade`` are served with ``degrade=True``: a partial result with
   status ``degraded`` instead of a failure or an ever-longer queue.
6. **drain** — :meth:`drain` finishes every in-flight job, sheds new
   ones as ``draining``, and resolves when the service is idle; no job
   is abandoned.

Queue depth, wait/serve latency histograms, and shed/timeout/retry/
breaker counters land in :mod:`repro.obs` under ``serve.*`` (see
``docs/OBSERVABILITY.md``); the service also keeps its own
:class:`ServeStats` so accounting works with observability off.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.resilience import faults
from repro.resilience.backoff import Backoff
from repro.resilience.errors import FaultInjected
from repro.resilience.pool import kill_executor
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    CONTROL_OPS,
    JobRequest,
    JobResponse,
    ProtocolError,
    SHED_REASONS,
    parse_request,
)
from repro.serve import worker as worker_mod


@dataclass
class ServeConfig:
    """Service tuning. Defaults favour a small, honest service: a
    bounded queue, short deadlines, and crash-isolated process slots."""

    workers: int = 2
    max_queue: int = 64
    #: cap on time spent waiting for a slot (the job deadline also caps it)
    queue_timeout_s: float | None = 30.0
    #: deadline for jobs that do not bring one (None = unbounded)
    default_deadline_s: float | None = 30.0
    #: per-tenant token-bucket rate (tokens/s; None = no rate limiting)
    rate: float | None = None
    burst: float = 10.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 1.0
    #: queue fraction beyond which degraded service kicks in
    pressure_highwater: float = 0.75
    #: extra seconds past a job's deadline before a worker counts as stuck
    stuck_grace_s: float = 5.0
    step_limit: int = 2_000_000
    #: shared test-report store directory (``answer`` / ``use_testdb`` jobs)
    testdb: str | None = None
    spec_texts: tuple[str, ...] = ()


@dataclass
class ServeStats:
    """Terminal-response accounting, independent of :mod:`repro.obs`.
    ``submitted == completed + degraded + shed + timed_out + failed``
    holds whenever the service is idle — the zero-lost-jobs check."""

    submitted: int = 0
    completed: int = 0
    degraded: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    retries: int = 0
    breaker_opens: int = 0
    pressure_degrades: int = 0
    cancelled: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)

    def terminal(self) -> int:
        return (
            self.completed + self.degraded + self.shed
            + self.timed_out + self.failed
        )

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "retries": self.retries,
            "breaker_opens": self.breaker_opens,
            "pressure_degrades": self.pressure_degrades,
            "cancelled": self.cancelled,
            "shed_reasons": dict(self.shed_reasons),
        }


class _InfraFailure(Exception):
    """A retryable infrastructure failure; ``crash`` marks worker death."""

    def __init__(self, message: str, crash: bool):
        super().__init__(message)
        self.crash = crash


@dataclass
class _Slot:
    """One concurrency slot: the single-process executor it owns,
    replaced by :meth:`DebugService._rebuild_slot` when it breaks."""

    executor: ProcessPoolExecutor


class DebugService:
    """See the module docstring. Construct, :meth:`start` inside a
    running event loop, :meth:`submit` jobs, :meth:`drain`, :meth:`close`."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.clock = clock if clock is not None else time.monotonic
        self.stats = ServeStats()
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown_s=self.config.breaker_cooldown_s,
            clock=self.clock,
        )
        self.backoff = Backoff(
            base_s=self.config.backoff_base_s,
            max_s=self.config.backoff_max_s,
        )
        self._slots: asyncio.Queue[_Slot] | None = None
        self._queued = 0
        self._active = 0
        self._draining = False
        self._idle: asyncio.Event | None = None
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "DebugService":
        """Build the worker slots (must run inside the event loop)."""
        if self._started:
            return self
        self._slots = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        for _ in range(self.config.workers):
            self._slots.put_nowait(_Slot(executor=self._make_process()))
        self._started = True
        return self

    def _make_process(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=worker_mod.init_worker,
            initargs=(
                self.config.testdb, self.config.spec_texts, faults.active(),
            ),
        )

    def _rebuild_slot(self, slot: _Slot, kill: bool = False) -> None:
        """Replace a broken/stuck slot executor with a fresh process."""
        if kill:
            kill_executor(slot.executor)
        else:
            slot.executor.shutdown(wait=False, cancel_futures=True)
        slot.executor = self._make_process()

    async def drain(self, timeout_s: float | None = None) -> dict:
        """Stop admitting, finish every in-flight job, report. Raises
        ``asyncio.TimeoutError`` if in-flight work outlives ``timeout_s``
        (no job is abandoned either way — it keeps running)."""
        self._draining = True
        obs.add("serve.drains")
        assert self._idle is not None, "service not started"
        if timeout_s is None:
            await self._idle.wait()
        else:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        return {"drained": True, "stats": self.stats.as_dict()}

    async def close(self) -> None:
        """Drain, then release the worker slots."""
        await self.drain()
        if self._slots is not None:
            while not self._slots.empty():
                self._slots.get_nowait().executor.shutdown(
                    wait=False, cancel_futures=True
                )
        self._started = False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def in_flight(self) -> int:
        return self._active

    # ------------------------------------------------------------------
    # the job lifecycle

    async def submit(self, request: JobRequest | dict | str | bytes) -> JobResponse:
        """Take one job from parse to its single terminal response."""
        assert self._started, "DebugService.start() must run first"
        arrival = self.clock()
        self.stats.submitted += 1
        obs.add("serve.submitted")
        if not isinstance(request, JobRequest):
            try:
                request = parse_request(request)
            except ProtocolError as error:
                bad_id = ""
                if isinstance(request, dict):
                    bad_id = str(request.get("id", ""))
                return self._terminal(
                    JobRequest(id=bad_id, op="run", source="-"),
                    arrival, "failed", reason="bad_request", error=str(error),
                )
        if request.op == "ping":  # liveness probe: skips queue and pool
            return self._terminal(
                request, arrival, "completed", result={"pong": True}
            )
        if request.op in CONTROL_OPS:
            return self._terminal(
                request, arrival, "failed", reason="bad_request",
                error=f"control op {request.op!r} is handled by the server",
            )
        # the admission fault point: an accept-path failure is still a
        # terminal response, never a dropped line
        try:
            faults.trip("serve.accept", key=f"{request.tenant}:{request.id}")
        except (FaultInjected, OSError) as error:
            return self._terminal(
                request, arrival, "failed", reason="accept_fault",
                error=str(error),
            )
        if self._draining:
            return self._shed(request, arrival, "draining")
        if self._queued >= self.config.max_queue:
            return self._shed(request, arrival, "overloaded")
        reason = self.admission.check(request.tenant)
        if reason is not None:
            return self._shed(request, arrival, reason)
        # admitted: from here on the job is tracked until its terminal
        # response, and drain() waits for it
        self._active += 1
        obs.set_gauge("serve.inflight", self._active)
        assert self._idle is not None
        self._idle.clear()
        try:
            return await self._serve_admitted(request, arrival)
        except asyncio.CancelledError:
            self.stats.cancelled += 1
            obs.add("serve.cancelled")
            raise
        finally:
            self._active -= 1
            obs.set_gauge("serve.inflight", self._active)
            if self._active == 0:
                self._idle.set()

    async def _serve_admitted(
        self, request: JobRequest, arrival: float
    ) -> JobResponse:
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        deadline_at = arrival + deadline_s if deadline_s is not None else None

        # ---- queue: wait for a slot, but never past the deadline
        self._queued += 1
        obs.set_gauge("serve.queue_depth", self._queued)
        obs.set_max_gauge("serve.queue_peak", self._queued)
        assert self._slots is not None
        try:
            wait_limit = self.config.queue_timeout_s
            if deadline_at is not None:
                remaining = deadline_at - self.clock()
                wait_limit = (
                    remaining if wait_limit is None else min(wait_limit, remaining)
                )
            if wait_limit is not None and wait_limit <= 0:
                return self._terminal(
                    request, arrival, "timed_out", reason="queue",
                    error="deadline expired before a worker was free",
                )
            if wait_limit is None:
                slot = await self._slots.get()
            else:
                slot = await asyncio.wait_for(self._slots.get(), wait_limit)
        except asyncio.TimeoutError:
            return self._terminal(
                request, arrival, "timed_out", reason="queue",
                error="job waited past its deadline; dropped before "
                "burning a worker",
            )
        finally:
            self._queued -= 1
            obs.set_gauge("serve.queue_depth", self._queued)

        wait_s = self.clock() - arrival
        obs.observe("serve.wait_s", wait_s, unit="s")

        # ---- pressure: degrade instead of failing when the queue is hot
        degrade = request.degrade
        if degrade is None:
            pressured = self._queued >= max(
                1, int(self.config.pressure_highwater * self.config.max_queue)
            )
            degrade = pressured and request.op in ("trace", "debug")
            if degrade:
                self.stats.pressure_degrades += 1
                obs.add("serve.pressure_degrades")

        breaker = self.admission.breaker(request.tenant)
        attempt = 0
        try:
            while True:
                remaining = (
                    deadline_at - self.clock() if deadline_at is not None else None
                )
                if remaining is not None and remaining <= 0:
                    return self._terminal(
                        request, arrival, "timed_out", reason="deadline",
                        wait_s=wait_s, retries=attempt,
                        error="deadline expired during retries"
                        if attempt else "deadline expired",
                    )
                payload = {
                    "id": request.id,
                    "op": request.op,
                    "source": request.source,
                    "inputs": request.inputs,
                    "reference": request.reference,
                    "strategy": request.strategy,
                    "degrade": degrade,
                    "use_testdb": request.use_testdb,
                    "queries": request.queries,
                    "deadline_s": remaining,
                    "step_limit": self.config.step_limit,
                }
                try:
                    result = await self._run_on_slot(
                        slot, payload, attempt, remaining
                    )
                    break
                except _StuckWorker:
                    return self._terminal(
                        request, arrival, "timed_out", reason="stuck_worker",
                        wait_s=wait_s, retries=attempt,
                        error="worker exceeded the deadline and its grace "
                        "period; slot rebuilt",
                    )
                except asyncio.CancelledError:
                    raise
                except _InfraFailure as failure:
                    if failure.crash and breaker.record_crash():
                        self.stats.breaker_opens += 1
                        obs.add("serve.breaker_opens")
                        obs.emit(
                            "serve-breaker", tenant=request.tenant,
                            state="open",
                        )
                    attempt += 1
                    if attempt > self.config.retries:
                        return self._terminal(
                            request, arrival, "failed", reason="infra_error",
                            wait_s=wait_s, retries=attempt - 1,
                            error=str(failure),
                        )
                    self.stats.retries += 1
                    obs.add("serve.retries")
                    delay = self.backoff.delay(attempt - 1)
                    if deadline_at is not None:
                        delay = min(delay, max(0.0, deadline_at - self.clock()))
                    await asyncio.sleep(delay)
                except Exception as error:  # a service bug: terminal, no retry
                    return self._terminal(
                        request, arrival, "failed", reason="internal_error",
                        wait_s=wait_s, retries=attempt,
                        error=f"{type(error).__name__}: {error}",
                    )
            breaker.record_ok()
        finally:
            self._slots.put_nowait(slot)
            breaker.release_probe()  # no-op unless a probe went verdict-less

        # ---- map the worker's tagged result onto a terminal response
        if "timed_out" in result:
            return self._terminal(
                request, arrival, "timed_out", reason="budget",
                wait_s=wait_s, retries=attempt, error=result["timed_out"],
            )
        if "program_error" in result:
            return self._terminal(
                request, arrival, "failed", reason="program_error",
                wait_s=wait_s, retries=attempt, error=result["program_error"],
            )
        if "invalid" in result:
            # The request itself is unservable (e.g. a strategy this
            # build does not know): permanently failed, never retried,
            # and the breaker stays untouched — nothing crashed.
            return self._terminal(
                request, arrival, "failed", reason="invalid_request",
                wait_s=wait_s, retries=attempt, error=result["invalid"],
            )
        degraded = bool(result.get("degraded"))
        body = dict(result["ok"])
        if degraded:
            body["degraded_reason"] = result.get("degraded_reason")
        return self._terminal(
            request, arrival,
            "degraded" if degraded else "completed",
            reason="pressure" if degraded and request.degrade is None else None,
            result=body, wait_s=wait_s, retries=attempt,
        )

    async def _run_on_slot(
        self,
        slot: _Slot,
        payload: dict,
        attempt: int,
        remaining: float | None,
    ) -> dict:
        """One execution attempt on the job's slot. Raises
        :class:`_InfraFailure` for retryable failures, :class:`_StuckWorker`
        when the worker outlives deadline + grace (slot is rebuilt)."""
        loop = asyncio.get_running_loop()
        backstop = (
            None if remaining is None else remaining + self.config.stuck_grace_s
        )
        try:
            future = loop.run_in_executor(
                slot.executor, worker_mod.execute_job, payload, attempt
            )
            return await asyncio.wait_for(future, timeout=backstop)
        except BrokenProcessPool as error:
            self._rebuild_slot(slot)
            raise _InfraFailure(
                f"worker process died: {error or 'BrokenProcessPool'}",
                crash=True,
            ) from error
        except asyncio.TimeoutError:
            self._rebuild_slot(slot, kill=True)
            raise _StuckWorker() from None
        except (FaultInjected, OSError) as error:
            raise _InfraFailure(
                f"{type(error).__name__}: {error}", crash=False
            ) from error

    # ------------------------------------------------------------------
    # terminal accounting

    def _shed(
        self, request: JobRequest, arrival: float, reason: str
    ) -> JobResponse:
        assert reason in SHED_REASONS, reason
        self.stats.shed_reasons[reason] = (
            self.stats.shed_reasons.get(reason, 0) + 1
        )
        obs.add(f"serve.shed.{reason}")
        return self._terminal(request, arrival, "shed", reason=reason)

    def _terminal(
        self,
        request: JobRequest,
        arrival: float,
        status: str,
        reason: str | None = None,
        result: dict | None = None,
        error: str | None = None,
        wait_s: float | None = None,
        retries: int = 0,
    ) -> JobResponse:
        now = self.clock()
        wait = wait_s if wait_s is not None else now - arrival
        serve_s = max(0.0, (now - arrival) - wait)
        setattr(self.stats, status, getattr(self.stats, status) + 1)
        obs.add(f"serve.{status}")
        if status in ("completed", "degraded"):
            obs.observe("serve.serve_s", serve_s, unit="s")
        if obs.enabled():
            obs.emit(
                "serve-job",
                id=request.id,
                op=request.op,
                tenant=request.tenant,
                status=status,
                reason=reason,
                wait_s=round(wait, 6),
                serve_s=round(serve_s, 6),
                retries=retries,
            )
        return JobResponse(
            id=request.id,
            status=status,
            reason=reason,
            result=result,
            error=error,
            tenant=request.tenant,
            wait_s=wait,
            serve_s=serve_s,
            retries=retries,
        )


class _StuckWorker(Exception):
    """The worker outlived deadline + grace; its slot was rebuilt."""
