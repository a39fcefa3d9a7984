"""Fault-isolated parallel task execution for sweeps.

``multiprocessing.Pool.map`` has exactly the failure mode a mutation
sweep cannot afford: one pathological task hangs or kills a worker and
the whole sweep blocks or dies with no per-task attribution. This
module replaces it with per-task submission on a
``ProcessPoolExecutor`` plus three recovery mechanisms:

* **per-task timeouts** — a task that exceeds ``timeout_s`` is marked
  ``timed_out``; its stuck worker is terminated and the pool rebuilt,
  so the hang costs one slot, never the sweep;
* **crash attribution** — workers announce each task start on a shared
  queue, so when a worker death breaks the pool merely-queued tasks are
  resubmitted free; a lone running task is charged the failure, and
  when several tasks were running concurrently (the executor kills all
  workers on a break, so the culprit is ambiguous) they are charged
  nothing and quarantined to a solo phase where each re-runs on its own
  single-worker executor and any death is unambiguous;
* **bounded retries with jittered exponential backoff** — a failed
  task (worker exception or death) is retried up to ``retries`` times,
  then marked ``infra_error``; each retry waits out a
  :class:`~repro.resilience.backoff.Backoff` delay first (attempt *n*
  sleeps ~``base * 2**n``, jittered, capped), so a sick pool is not
  hammered with immediate resubmissions while healthy tasks keep
  flowing around the waiting ones.

Results come back as :class:`TaskResult` records, one per payload, in
payload order — an ``ok`` result for every task whose function
returned, and a classified failure for every task that could not be
completed. The call itself never raises for task-level failures.
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

_START_QUEUE = None  # set per worker process by _pool_init


def _pool_init(start_queue, user_initializer, user_initargs) -> None:
    global _START_QUEUE
    # Move the heap a forked worker inherits into the permanent
    # generation (an O(1) splice), so the worker's own collections walk
    # only what its tasks allocate, not the parent's whole heap.
    gc.freeze()
    _START_QUEUE = start_queue
    if user_initializer is not None:
        user_initializer(*user_initargs)


def _entry(fn, index: int, submit_id: int, attempt: int, payload):
    """Announce the task start, then run it. The announcement is what
    lets the parent attribute a later pool break to this task."""
    if _START_QUEUE is not None:
        try:
            _START_QUEUE.put((index, submit_id))
        except Exception:
            pass  # attribution is best-effort; the task still runs
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

    manager = multiprocessing.Manager()
    start_queue = manager.Queue()

    results: dict[int, TaskResult] = {}
    failures = {index: 0 for index in range(len(payloads))}
    submit_ids = {index: 0 for index in range(len(payloads))}
    started: set[tuple[int, int]] = set()  # (index, submit_id) seen running

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)),
            initializer=_pool_init,
            initargs=(start_queue, initializer, initargs),
        )

    def drain_started() -> None:
        while True:
            try:
                started.add(start_queue.get_nowait())
            except Exception:
                return

    def kill_executor(executor: ProcessPoolExecutor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    executor = make_executor()
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
                drain_started()

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
                # never announced a start were merely queued: resubmit
                # them free. Tasks that *were* running are suspects, but
                # when several ran concurrently only one of them killed
                # the worker — charging all of them lets a crasher's
                # retries bleed innocent tasks' retry budgets. So: a
                # lone suspect is charged directly; multiple suspects
                # are charged nothing and quarantined to the solo phase,
                # where each runs alone and any death is unambiguous.
                drain_started()
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
                    if (index, submit_ids[index]) in started:
                        suspects.append(index)
                    else:
                        requeue.append(index)
                pending.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                executor = make_executor()
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
                    executor = make_executor()

        # Solo phase: each quarantined task gets a fresh single-worker
        # executor per attempt, so a repeat death is attributed beyond
        # doubt and cannot take anyone else down with it.
        for index in solo_queue:
            while index not in results:
                remaining = schedule.next_ready_in([index])
                if remaining > 0:  # wait out this attempt's backoff
                    _sleep(remaining)
                submit_ids[index] += 1
                solo = ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_pool_init,
                    initargs=(start_queue, initializer, initargs),
                )
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
        manager.shutdown()

    return [results[index] for index in range(len(payloads))]
