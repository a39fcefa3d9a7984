"""Fault-isolated parallel task execution on worker slots.

``multiprocessing.Pool.map`` has exactly the failure mode a mutation
sweep cannot afford: one pathological task hangs or kills a worker and
the whole sweep blocks or dies with no per-task attribution. This
module replaces it with :class:`Slot`\\ s: a slot is one worker process
of its own (a single-process ``ProcessPoolExecutor`` running the
caller's initializer), which :meth:`Slot.replace` swaps for a fresh one
when it breaks or hangs. :func:`run_isolated` keeps at most two tasks
on each slot, one running and one queued behind it, so whatever
happens to a slot's process happens to exactly one started task:

* **per-task timeouts** — a task running longer than ``timeout_s``,
  timed from its start in the worker, is marked ``timed_out``; its
  slot's process is killed and replaced, so the hang costs one slot,
  never the sweep, and tasks on the other slots run on untouched;
* **crash attribution** — a worker stamps each task's submission id
  and start time into shared lock-free arrays as the task starts, so
  when a worker death breaks a slot its one started task is charged
  the failure and the task queued behind it returns to the backlog
  free;
* **bounded retries with jittered exponential backoff** — a failed
  task (worker exception or death) is retried up to ``retries`` times,
  then marked ``infra_error``; each retry waits out a
  :class:`~repro.resilience.backoff.Backoff` delay first (attempt *n*
  sleeps ~``base * 2**n``, jittered, capped), so a sick pool is not
  hammered with immediate resubmissions while healthy tasks keep
  flowing around the waiting ones.

A worker whose initializer raises does not die: each task it is given
fails with the initializer's error instead, and is retried and then
marked ``infra_error`` like any failing task. A worker that dies before
starting any task (a killed or crashed initializer) breaks its slot
with no task to charge; after ``_MAX_IDLE_BREAKS`` such breaks in a row
every unfinished task is marked ``infra_error`` rather than requeued
onto yet another process that would die the same way. A worker that
has not started the task it was handed ``timeout_s`` after the handover
(an initializer that hangs) is killed and counts as such a break.

Results come back as :class:`TaskResult` records, one per payload, in
payload order — an ``ok`` result for every task whose function
returned, and a classified failure for every task that could not be
completed. The call itself never raises for task-level failures.

This is the one way the pipeline runs work in another process:
``repro serve`` runs each job on a :class:`Slot` too.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.resilience.backoff import Backoff, RetrySchedule

#: how long the result loop sleeps between completions (also bounds
#: timeout-detection latency)
_POLL_S = 0.05

#: slot breaks in a row with no task started before the call gives up
_MAX_IDLE_BREAKS = 3

#: tasks a slot holds at once: one running, one queued behind it so the
#: worker never waits on the parent between tasks
_SLOT_DEPTH = 2


@dataclass
class TaskResult:
    """Outcome of one isolated task."""

    index: int
    status: str  # "ok" | "timed_out" | "infra_error"
    value: Any = None
    error: str | None = None
    #: failed attempts that preceded this outcome
    retries: int = 0


# ----------------------------------------------------------------------
# slots


class Slot:
    """One worker process of its own: ``executor`` is a single-process
    ``ProcessPoolExecutor`` running ``initializer(*initargs)``, so a
    death or hang there is the death or hang of the one task it ran.

    ``start`` makes the executor instead, when given (``repro serve``
    passes its own factory, which builds it with :meth:`process`)."""

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        start: Callable[[], ProcessPoolExecutor] | None = None,
    ):
        self._start = start or (lambda: self.process(initializer, initargs))
        self.executor = self._start()

    @staticmethod
    def process(
        initializer: Callable[..., None] | None = None, initargs: tuple = ()
    ) -> ProcessPoolExecutor:
        """A fresh single-process executor (it forks on first submit)."""
        return ProcessPoolExecutor(
            max_workers=1, initializer=initializer, initargs=initargs
        )

    def replace(self, kill: bool = False) -> None:
        """Swap the slot's process for a fresh one. A stuck task cannot
        be cancelled, only killed: ``kill`` terminates the process
        first; without it the process is merely let go (it died)."""
        if kill:
            for process in list((self.executor._processes or {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
        self.close()
        self.executor = self._start()

    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# worker side

_STAMPS = None  # set per worker process by _pool_init
_STARTS = None
_INIT_ERROR: str | None = None  # the user initializer's failure, if any


def _pool_init(stamps, starts, user_initializer, user_initargs) -> None:
    global _STAMPS, _STARTS, _INIT_ERROR
    # Move the heap a forked worker inherits into the permanent
    # generation (an O(1) splice), so the worker's own collections walk
    # only what its tasks allocate, not the parent's whole heap.
    gc.freeze()
    _STAMPS, _STARTS = stamps, starts
    if user_initializer is not None:
        try:
            user_initializer(*user_initargs)
        except Exception as exc:
            # Raising here would only break the slot, before any task
            # could carry the error back: the tasks fail with it instead.
            _INIT_ERROR = f"{type(exc).__name__}: {exc}"


def _entry(fn, index: int, submit_id: int, attempt: int, payload):
    """Stamp the task's start time, then its submission id, then run it.
    The stamps are what let the parent time the task and charge a later
    slot break to it; the writes take no lock, so a worker killed at any
    point cannot wedge them."""
    _STARTS[index] = time.monotonic()
    _STAMPS[index] = submit_id
    if _INIT_ERROR is not None:
        raise RuntimeError(f"worker initializer failed: {_INIT_ERROR}")
    return fn(payload, attempt)


# ----------------------------------------------------------------------
# parent side


def run_isolated(
    fn: Callable[[Any, int], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
    timeout_s: float | None = None,
    retries: int = 1,
    backoff: Backoff | None = None,
    clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] | None = None,
) -> list[TaskResult]:
    """Run ``fn(payload, attempt)`` for every payload on ``workers``
    slots with crash isolation, timeouts, and bounded retries.

    ``fn``, ``initializer``, and the payloads must be picklable.
    ``attempt`` is 0 on the first try and counts prior failures — fault
    plans key on it to inject "fail once, then succeed" scenarios.

    Retries are paced by ``backoff`` (default: a jittered exponential
    :class:`~repro.resilience.backoff.Backoff`); a retryable task only
    re-enters a slot once its delay has elapsed. ``clock`` and
    ``sleep`` are injectable for fake-clock tests.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not payloads:
        return []

    import multiprocessing

    _clock = clock if clock is not None else time.monotonic
    _sleep = sleep if sleep is not None else time.sleep
    schedule = RetrySchedule(backoff=backoff, clock=_clock)

    # stamps[index] is the submit id of the index's last started
    # attempt (submit ids start at 1, so 0 means "never started"), and
    # starts[index] that attempt's start on the worker's monotonic clock
    stamps = multiprocessing.RawArray("q", len(payloads))
    starts = multiprocessing.RawArray("d", len(payloads))

    results: dict[int, TaskResult] = {}
    failures = {index: 0 for index in range(len(payloads))}
    submit_ids = {index: 0 for index in range(len(payloads))}

    def started(index: int) -> bool:
        return stamps[index] == submit_ids[index]

    def record_failure(index: int, error: str) -> None:
        """Charge one failed attempt: the task is retried from the
        backlog once its backoff delay has elapsed, or, out of retries,
        marked ``infra_error``."""
        failures[index] += 1
        if failures[index] > retries:
            results[index] = TaskResult(
                index=index,
                status="infra_error",
                error=error,
                retries=failures[index] - 1,
            )
        else:
            schedule.note_failure(index, failures[index] - 1)
            backlog.append(index)

    def settle(index: int, future: Future) -> None:
        try:
            value = future.result()
        except Exception as exc:  # the worker raised
            record_failure(index, f"{type(exc).__name__}: {exc}")
        else:
            results[index] = TaskResult(
                index=index, status="ok", value=value, retries=failures[index]
            )

    slots = [
        Slot(_pool_init, (stamps, starts, initializer, initargs))
        for _ in range(min(workers, len(payloads)))
    ]
    #: per slot, its (future, index) tasks in submission order: the
    #: process runs them in that order, one at a time
    queues: list[list[tuple[Future, int]]] = [[] for _ in slots]
    #: per slot, when its first task became the one to run next
    handed = [0.0] * len(slots)

    #: indices awaiting (re)submission
    backlog: list[int] = list(range(len(payloads)))

    #: slot breaks in a row with no attempt settled between them
    idle_breaks = 0
    settled_at_break = 0

    def break_slot(slot: int, kill: bool = False) -> None:
        """The slot's process died, or is stuck and is to be killed
        (``kill``): charge its started task, return the rest to the
        backlog free, and give the slot a fresh process."""
        nonlocal idle_breaks, settled_at_break
        queue = queues[slot]
        lost = []
        for future, index in queue:
            if future.done() and not isinstance(future.exception(), BrokenProcessPool):
                settle(index, future)  # finished before the break
            else:
                lost.append(index)
        culprit = next((index for index in reversed(lost) if started(index)), None)
        for index in lost:
            if index == culprit:
                record_failure(index, "worker process died")
            else:
                backlog.append(index)
        queue.clear()
        settled = len(results) + sum(failures.values())
        idle_breaks = 0 if settled > settled_at_break else idle_breaks + 1
        settled_at_break = settled
        slots[slot].replace(kill=kill)

    try:
        while backlog or any(queues):
            if idle_breaks >= _MAX_IDLE_BREAKS:
                # Workers die before starting anything: a new process
                # would too. Nothing ran, so nothing is retried.
                for index in range(len(payloads)):
                    if index not in results:
                        results[index] = TaskResult(
                            index=index,
                            status="infra_error",
                            error=(
                                f"worker processes died {idle_breaks} times "
                                "before any task started"
                            ),
                            retries=failures[index],
                        )
                break
            # Feed idle slots first, then queue one task behind each
            # running one.
            ready = schedule.ready(backlog)
            for depth in range(1, _SLOT_DEPTH + 1):
                for slot, queue in enumerate(queues):
                    if not ready or len(queue) >= depth:
                        continue
                    index = ready.pop(0)
                    try:
                        future = slots[slot].executor.submit(
                            _entry, fn, index, submit_ids[index] + 1,
                            failures[index], payloads[index],
                        )
                    except BrokenProcessPool:
                        break_slot(slot)  # index stays in the backlog
                        continue
                    backlog.remove(index)
                    submit_ids[index] += 1
                    if not queue:
                        handed[slot] = time.monotonic()
                    queue.append((future, index))

            running = [future for queue in queues for future, _ in queue]
            if not running:
                # Everything left is waiting out a backoff delay.
                _sleep(min(_POLL_S, max(schedule.next_ready_in(backlog), 0.001)))
                continue
            wait(running, timeout=_POLL_S, return_when=FIRST_COMPLETED)

            now = time.monotonic()
            for slot, queue in enumerate(queues):
                while queue and queue[0][0].done():
                    future, index = queue[0]
                    if isinstance(future.exception(), BrokenProcessPool):
                        break_slot(slot)
                        break
                    queue.pop(0)
                    settle(index, future)
                    handed[slot] = now
                if timeout_s is None or not queue:
                    continue
                index = queue[0][1]
                if not started(index):
                    if now - handed[slot] > timeout_s:
                        # The worker never took its task up: stuck
                        # before running anything, as in an initializer
                        # that hangs. Killed, it counts as a break.
                        break_slot(slot, kill=True)
                elif now - starts[index] > timeout_s:
                    # A stuck worker cannot be cancelled, only killed:
                    # the slot gets a fresh process, and the task queued
                    # behind the hang goes back to the backlog free.
                    queue.pop(0)
                    results[index] = TaskResult(
                        index=index,
                        status="timed_out",
                        error=f"exceeded {timeout_s}s",
                        retries=failures[index],
                    )
                    backlog.extend(index for _, index in queue)
                    queue.clear()
                    slots[slot].replace(kill=True)
    finally:
        for slot in slots:
            slot.close()

    return [results[index] for index in range(len(payloads))]
