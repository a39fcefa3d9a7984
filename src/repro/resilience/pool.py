"""Fault-isolated parallel task execution for sweeps.

``multiprocessing.Pool.map`` has exactly the failure mode a mutation
sweep cannot afford: one pathological task hangs or kills a worker and
the whole sweep blocks or dies with no per-task attribution. This
module replaces it with per-task submission on a
``ProcessPoolExecutor`` plus three recovery mechanisms:

* **per-task timeouts** — a task that exceeds ``timeout_s`` is marked
  ``timed_out``; its stuck worker is terminated and the pool rebuilt,
  so the hang costs one slot, never the sweep;
* **crash attribution** — a worker stamps each task's submission id
  into a shared lock-free array as the task starts, so when a worker
  death breaks the pool merely-queued tasks are resubmitted free; a
  lone running task is charged the failure, and when several tasks
  were running concurrently (the executor kills all workers on a
  break, so the culprit is ambiguous) they are charged nothing and
  quarantined to a solo phase where each re-runs on its own
  single-worker executor and any death is unambiguous;
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
starting any task (a killed or crashed initializer) breaks the pool
with no task to charge; after ``_MAX_IDLE_BREAKS`` such breaks in a row
every unfinished task is marked ``infra_error`` rather than requeued
into yet another pool that would break the same way.

Results come back as :class:`TaskResult` records, one per payload, in
payload order — an ``ok`` result for every task whose function
returned, and a classified failure for every task that could not be
completed. The call itself never raises for task-level failures.

This is the one way the pipeline runs work in another process:
``repro serve`` builds its single-process slots on
:class:`~concurrent.futures.ProcessPoolExecutor` too, and kills a stuck
one with :func:`kill_executor`.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.resilience.backoff import Backoff, RetrySchedule

#: how long the result loop sleeps between completions (also bounds
#: timeout-detection latency)
_POLL_S = 0.05

#: pool breaks in a row with no task started before the call gives up
_MAX_IDLE_BREAKS = 3


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
# worker side

_STAMPS = None  # set per worker process by _pool_init
_INIT_ERROR: str | None = None  # the user initializer's failure, if any


def _pool_init(stamps, user_initializer, user_initargs) -> None:
    global _STAMPS, _INIT_ERROR
    # Move the heap a forked worker inherits into the permanent
    # generation (an O(1) splice), so the worker's own collections walk
    # only what its tasks allocate, not the parent's whole heap.
    gc.freeze()
    _STAMPS = stamps
    if user_initializer is not None:
        try:
            user_initializer(*user_initargs)
        except Exception as exc:
            # Raising here would only break the pool, before any task
            # could carry the error back: the tasks fail with it instead.
            _INIT_ERROR = f"{type(exc).__name__}: {exc}"


def _entry(fn, index: int, submit_id: int, attempt: int, payload):
    """Stamp the task start, then run it. The stamp is what lets the
    parent attribute a later pool break to this task; the write takes
    no lock, so a worker killed at any point cannot wedge it."""
    _STAMPS[index] = submit_id
    if _INIT_ERROR is not None:
        raise RuntimeError(f"worker initializer failed: {_INIT_ERROR}")
    return fn(payload, attempt)


# ----------------------------------------------------------------------
# parent side


def kill_executor(executor: ProcessPoolExecutor) -> None:
    """Terminate an executor's worker processes and shut it down without
    waiting: a stuck task cannot be cancelled, only killed."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    executor.shutdown(wait=False, cancel_futures=True)


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
    processes with crash isolation, timeouts, and bounded retries.

    ``fn``, ``initializer``, and the payloads must be picklable.
    ``attempt`` is 0 on the first try and counts prior failures — fault
    plans key on it to inject "fail once, then succeed" scenarios.

    Retries are paced by ``backoff`` (default: a jittered exponential
    :class:`~repro.resilience.backoff.Backoff`); a retryable task only
    re-enters the pool once its delay has elapsed. ``clock`` and
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
    # attempt; submit ids start at 1, so 0 means "never started"
    stamps = multiprocessing.RawArray("q", len(payloads))

    results: dict[int, TaskResult] = {}
    failures = {index: 0 for index in range(len(payloads))}
    submit_ids = {index: 0 for index in range(len(payloads))}

    pool_size = min(workers, len(payloads))

    def make_executor(max_workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_pool_init,
            initargs=(stamps, initializer, initargs),
        )

    executor = make_executor(pool_size)
    pending: dict[Future, int] = {}
    submitted_at: dict[int, float] = {}

    def submit(index: int) -> bool:
        """Submit one task; False if the pool is already broken (the
        caller runs pool-break recovery and retries from the backlog)."""
        try:
            future = executor.submit(
                _entry, fn, index, submit_ids[index] + 1,
                failures[index], payloads[index],
            )
        except BrokenProcessPool:
            return False
        submit_ids[index] += 1
        pending[future] = index
        submitted_at[index] = time.monotonic()
        return True

    def record_failure(index: int, error: str) -> bool:
        """Charge one failed attempt; True if the task may be retried.

        A retryable task is stamped with its backoff-ready time: the
        submission loop leaves it in the backlog until the jittered
        exponential delay has elapsed."""
        failures[index] += 1
        if failures[index] > retries:
            results[index] = TaskResult(
                index=index,
                status="infra_error",
                error=error,
                retries=failures[index] - 1,
            )
            return False
        schedule.note_failure(index, failures[index] - 1)
        return True

    #: tasks quarantined after a pool break, re-run one-per-executor
    solo_queue: list[int] = []

    #: indices awaiting (re)submission — drained at the top of each cycle
    backlog: list[int] = list(range(len(payloads)))

    #: consecutive pool breaks with no task started or finished between
    idle_breaks = 0
    settled_at_break = 0

    try:
        while pending or backlog:
            pool_broken = False
            broken: list[int] = []  # indices whose futures died with the pool

            for index in schedule.ready(backlog):
                if submit(index):
                    backlog.remove(index)
                else:
                    pool_broken = True  # recover below, then retry the backlog
                    break

            if not pool_broken and not pending:
                # Everything left is waiting out a backoff delay.
                _sleep(min(_POLL_S, max(schedule.next_ready_in(backlog), 0.001)))
                continue

            if not pool_broken:
                done, _ = wait(
                    set(pending), timeout=_POLL_S, return_when=FIRST_COMPLETED
                )

                for future in done:
                    index = pending.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        broken.append(index)
                    except Exception as exc:  # the worker raised
                        if record_failure(index, f"{type(exc).__name__}: {exc}"):
                            backlog.append(index)
                    else:
                        results[index] = TaskResult(
                            index=index, status="ok", value=value,
                            retries=failures[index],
                        )

            if pool_broken:
                # Every remaining future of this executor is dead —
                # including the ones already reaped above, whose
                # ``result()`` raised the pool-break itself. Tasks that
                # never stamped a start were merely queued: resubmit
                # them free. Tasks that *were* running are suspects, but
                # when several ran concurrently only one of them killed
                # the worker — charging all of them lets a crasher's
                # retries bleed innocent tasks' retry budgets. So: a
                # lone suspect is charged directly; multiple suspects
                # are charged nothing and quarantined to the solo phase,
                # where each runs alone and any death is unambiguous.
                for future in [f for f in pending if f.done()]:
                    # completed before the break — keep the result
                    index = pending.pop(future)
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken.append(index)
                    except Exception as exc:
                        if record_failure(index, f"{type(exc).__name__}: {exc}"):
                            backlog.append(index)
                    else:
                        results[index] = TaskResult(
                            index=index, status="ok", value=value,
                            retries=failures[index],
                        )
                suspects = []
                requeue = []
                for index in (*broken, *pending.values()):
                    if stamps[index] == submit_ids[index]:
                        suspects.append(index)
                    else:
                        requeue.append(index)
                pending.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                if suspects or len(results) > settled_at_break:
                    idle_breaks = 0
                else:
                    idle_breaks += 1
                settled_at_break = len(results)
                if idle_breaks >= _MAX_IDLE_BREAKS:
                    # Workers die before starting anything: a new pool
                    # would too. Nothing ran, so nothing is retried.
                    for index in (*requeue, *backlog):
                        results[index] = TaskResult(
                            index=index,
                            status="infra_error",
                            error=(
                                f"worker pool broke {idle_breaks} times "
                                "before any task started"
                            ),
                            retries=failures[index],
                        )
                    backlog.clear()
                    break
                executor = make_executor(pool_size)
                if len(suspects) == 1:
                    if record_failure(suspects[0], "worker process died"):
                        solo_queue.append(suspects[0])
                else:
                    solo_queue.extend(suspects)
                backlog.extend(requeue)
                continue

            if timeout_s is not None:
                now = time.monotonic()
                expired = [
                    index
                    for future, index in pending.items()
                    if now - submitted_at[index] > timeout_s
                ]
                if expired:
                    # The stuck workers cannot be cancelled, only killed:
                    # terminate the pool and resubmit the innocent rest.
                    for index in expired:
                        results[index] = TaskResult(
                            index=index,
                            status="timed_out",
                            error=f"exceeded {timeout_s}s",
                            retries=failures[index],
                        )
                    backlog.extend(
                        index for index in pending.values() if index not in expired
                    )
                    pending.clear()
                    kill_executor(executor)
                    executor = make_executor(pool_size)

        # Solo phase: each quarantined task gets a fresh single-worker
        # executor per attempt, so a repeat death is attributed beyond
        # doubt and cannot take anyone else down with it.
        for index in solo_queue:
            while index not in results:
                remaining = schedule.next_ready_in([index])
                if remaining > 0:  # wait out this attempt's backoff
                    _sleep(remaining)
                submit_ids[index] += 1
                solo = make_executor(1)
                future = solo.submit(
                    _entry, fn, index, submit_ids[index],
                    failures[index], payloads[index],
                )
                try:
                    value = future.result(timeout=timeout_s)
                except BrokenProcessPool:
                    record_failure(index, "worker process died")
                except FuturesTimeoutError:
                    results[index] = TaskResult(
                        index=index,
                        status="timed_out",
                        error=f"exceeded {timeout_s}s",
                        retries=failures[index],
                    )
                    kill_executor(solo)
                except Exception as exc:
                    record_failure(index, f"{type(exc).__name__}: {exc}")
                else:
                    results[index] = TaskResult(
                        index=index, status="ok", value=value,
                        retries=failures[index],
                    )
                finally:
                    solo.shutdown(wait=False, cancel_futures=True)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    return [results[index] for index in range(len(payloads))]
