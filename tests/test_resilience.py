"""Tests for the resilience subsystem (repro.resilience): resource
budgets, fault injection, degraded tracing, crash-isolated pools, and
crash-safe persistence. See docs/ROBUSTNESS.md."""

import contextlib
import os
import pickle
import signal
import time

import pytest

from repro import cache, obs
from repro.core import AlgorithmicDebugger, GadtSystem, ReferenceOracle
from repro.pascal import run_source
from repro.pascal.errors import PascalError, PascalRuntimeError, StepLimitExceeded
from repro.resilience import (
    Budget,
    BudgetExceeded,
    FaultInjected,
    ResilienceError,
    TraceAborted,
    faults,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.pool import run_isolated
from repro.tracing import trace_source

SPIN = """\
program t;
var x : integer;
procedure spin;
begin
  while 1 = 1 do
    x := x + 1
end;
begin
  x := 0;
  spin;
  writeln(x)
end.
"""

DEEP = """\
program deep;
var r : integer;
function bump(n : integer) : integer;
begin
  if n = 0 then
    bump := 0
  else
    bump := bump(n - 1) + 1
end;
begin
  r := bump(100);
  writeln(r)
end.
"""


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.clear()


# ----------------------------------------------------------------------
# budgets


class TestBudget:
    def test_expired_deadline_raises_budget_exceeded(self):
        budget = Budget.started(deadline_s=0.0)
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as err:
            budget.check()
        assert err.value.resource == "deadline"

    def test_budget_exceeded_is_both_taxonomies(self):
        # Existing `except PascalError` handlers must keep working while
        # new code catches the resilience taxonomy precisely.
        assert issubclass(BudgetExceeded, PascalRuntimeError)
        assert issubclass(BudgetExceeded, ResilienceError)
        assert issubclass(TraceAborted, PascalRuntimeError)
        assert issubclass(TraceAborted, ResilienceError)

    def test_unarmed_budget_never_expires(self):
        budget = Budget(deadline_s=0.0)  # constructed, never started
        assert not budget.expired()
        budget.check()  # does not raise
        assert budget.remaining_s() is None

    def test_limits_tighten_only(self):
        budget = Budget(step_limit=10, max_call_depth=5)
        assert budget.effective_step_limit(100) == 10
        assert budget.effective_call_depth(100) == 5
        loose = Budget(step_limit=10_000, max_call_depth=10_000)
        assert loose.effective_step_limit(100) == 100
        assert loose.effective_call_depth(100) == 100

    def test_infinite_loop_dies_at_the_deadline(self):
        started = time.monotonic()
        with pytest.raises(BudgetExceeded):
            run_source(
                SPIN,
                step_limit=500_000_000,
                budget=Budget.started(deadline_s=0.3),
            )
        assert time.monotonic() - started < 10.0

    def test_budget_step_limit_reaches_interpreter(self):
        with pytest.raises(StepLimitExceeded):
            run_source(DEEP, budget=Budget.started(step_limit=50))

    def test_budget_call_depth_reaches_interpreter(self):
        with pytest.raises(PascalRuntimeError, match="depth"):
            run_source(DEEP, budget=Budget.started(max_call_depth=10))

    def test_unlimited_budget_changes_nothing(self):
        plain = run_source(DEEP).output
        budgeted = run_source(DEEP, budget=Budget.started(deadline_s=60.0)).output
        assert budgeted == plain


# ----------------------------------------------------------------------
# fault injection


class TestFaultInjection:
    def test_unknown_point_and_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(point="nonsense")
        with pytest.raises(ValueError):
            FaultSpec(point="trace", mode="nonsense")

    def test_times_countdown(self):
        spec = FaultSpec(point="worker", times=2)
        plan = FaultPlan([spec])
        assert plan.fire("worker") is spec
        assert plan.fire("worker") is spec
        assert plan.fire("worker") is None

    def test_match_is_substring_on_key(self):
        plan = FaultPlan([FaultSpec(point="worker", match="mutant-7", times=-1)])
        assert plan.fire("worker", key="sweep/mutant-7@0") is not None
        assert plan.fire("worker", key="sweep/mutant-8@0") is None
        assert plan.fire("worker", key=None) is None

    def test_skip_lets_early_hits_pass(self):
        plan = FaultPlan([FaultSpec(point="trace", times=1, skip=1)])
        assert plan.fire("trace", key="a") is None  # skipped
        assert plan.fire("trace", key="b") is not None  # fires
        assert plan.fire("trace", key="c") is None  # exhausted

    def test_trip_modes(self):
        with faults.injected(FaultSpec(point="worker", mode="raise")):
            with pytest.raises(FaultInjected):
                faults.trip("worker")
        with faults.injected(FaultSpec(point="sink.write", mode="oserror")):
            with pytest.raises(OSError):
                faults.trip("sink.write")
        with faults.injected(FaultSpec(point="cache.read", mode="corrupt")):
            spec = faults.trip("cache.read")
            assert spec is not None and spec.mode == "corrupt"

    def test_injected_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec(point="worker")])
        faults.install(outer)
        with faults.injected(FaultSpec(point="trace")):
            assert faults.active() is not outer
        assert faults.active() is outer
        faults.clear()
        assert faults.active() is None

    def test_plans_are_picklable(self):
        # The parent ships its plan to pool workers via the initializer.
        plan = FaultPlan(
            [FaultSpec(point="worker", match="m@0", mode="exit", times=3)]
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.fire("worker", key="m@0") is not None

    def test_no_plan_is_a_noop(self):
        faults.clear()
        assert faults.fire("worker", key="anything") is None
        assert faults.trip("worker", key="anything") is None


# ----------------------------------------------------------------------
# degraded tracing


class TestDegradedTracing:
    def test_tree_node_cap_salvages_partial_tree(self):
        full = trace_source(DEEP)
        capped = trace_source(
            DEEP, budget=Budget.started(max_tree_nodes=20), degrade=True
        )
        assert capped.degraded
        assert capped.degraded_reason
        assert capped.tree.size() < full.tree.size()

    def test_tree_node_cap_without_degrade_raises(self):
        with pytest.raises(TraceAborted):
            trace_source(DEEP, budget=Budget.started(max_tree_nodes=20))

    def test_degraded_tree_indexes_stay_consistent(self):
        capped = trace_source(
            DEEP, budget=Budget.started(max_tree_nodes=20), degrade=True
        )
        alive = {node.node_id for node in capped.tree.walk()}
        owners = {
            node.node_id for node in capped.tree.occurrence_owner.values()
        }
        assert owners <= alive
        assert {key[0] for key in capped.tree.output_writers} <= alive

    def test_step_limit_blow_degrades_to_partial_debug_result(self):
        """Step-limit exhaustion mid-trace must yield a partial
        DebugResult, not an exception."""
        system = GadtSystem.from_source(DEEP, step_limit=100, degrade=True)
        assert system.trace.degraded
        oracle = ReferenceOracle.from_source(DEEP)
        result = AlgorithmicDebugger(system.trace, oracle).debug()
        assert result.partial
        assert result.degraded_reason
        assert result.report()["partial"] is True

    def test_step_limit_blow_without_degrade_still_raises(self):
        with pytest.raises(StepLimitExceeded):
            GadtSystem.from_source(DEEP, step_limit=100)

    def test_full_trace_is_not_marked_degraded(self):
        trace = trace_source(DEEP, budget=Budget.started(deadline_s=60.0))
        assert not trace.degraded
        assert trace.truncated_nodes == 0

    def test_trace_fault_point_raises_pascal_error(self):
        with faults.injected(FaultSpec(point="trace", mode="raise")):
            with pytest.raises(PascalError):
                trace_source(DEEP)


# ----------------------------------------------------------------------
# the crash-isolated pool

# Task functions must be module-level (pickled into workers).


def _ok_task(payload, attempt):
    return payload * 2


def _fail_first_attempt(payload, attempt):
    if attempt == 0:
        raise RuntimeError(f"boom on {payload}")
    return payload * 2


def _always_fail(payload, attempt):
    raise RuntimeError("always")


def _exit_on_three(payload, attempt):
    if payload == 3:
        os._exit(23)
    return payload * 2


def _exit_on_three_else_linger(payload, attempt):
    if payload == 3:
        os._exit(23)
    time.sleep(0.2)  # still running when the crasher's worker dies
    return payload * 2


def _hang_on_three(payload, attempt):
    if payload == 3:
        time.sleep(120)
    return payload * 2


def _sleep_payload(payload, attempt):
    time.sleep(payload)
    return payload


def _sleep_hang_or_count(payload, attempt):
    """``("sleep", s)`` sleeps ``s`` seconds, ``("hang", _)`` hangs, and
    ``("count", path)`` appends a line to ``path`` as it starts, then
    sleeps 1.5 s."""
    kind, arg = payload
    if kind == "sleep":
        time.sleep(arg)
    elif kind == "hang":
        time.sleep(120)
    else:
        with open(arg, "a") as runs:
            runs.write("run\n")
        time.sleep(1.5)
    return kind


def _raising_initializer():
    raise ValueError("no host state")


def _dying_initializer():
    os._exit(7)


def _hanging_initializer():
    time.sleep(120)


@contextlib.contextmanager
def hard_timeout(seconds: float):
    """Fail the enclosed block once ``seconds`` of wall time pass, even
    if it never returns on its own (SIGALRM, main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestRunIsolated:
    def test_rejects_zero_and_negative_workers(self):
        with pytest.raises(ValueError):
            run_isolated(_ok_task, [1], workers=0)
        with pytest.raises(ValueError):
            run_isolated(_ok_task, [1], workers=-2)

    def test_results_in_payload_order(self):
        results = run_isolated(_ok_task, [5, 6, 7], workers=2)
        assert [task.status for task in results] == ["ok"] * 3
        assert [task.value for task in results] == [10, 12, 14]
        assert [task.index for task in results] == [0, 1, 2]

    def test_worker_exception_retried_once(self):
        results = run_isolated(_fail_first_attempt, [1, 2], workers=2, retries=1)
        assert all(task.status == "ok" for task in results)
        assert all(task.retries == 1 for task in results)

    def test_retries_exhausted_becomes_infra_error(self):
        results = run_isolated(_always_fail, [1], workers=1, retries=1)
        assert results[0].status == "infra_error"
        assert results[0].retries == 1
        assert "always" in results[0].error

    def test_worker_death_costs_one_slot(self):
        results = run_isolated(_exit_on_three, [1, 2, 3, 4], workers=2, retries=1)
        by_payload = dict(zip([1, 2, 3, 4], results))
        assert by_payload[3].status == "infra_error"
        for payload in (1, 2, 4):
            assert by_payload[payload].status == "ok"
            assert by_payload[payload].value == payload * 2

    @pytest.mark.parametrize("workers", [2, 4])
    def test_crash_charges_only_the_crasher(self, workers):
        # no retries to spare: an innocent charged for the crash would
        # end infra_error instead of ok
        results = run_isolated(
            _exit_on_three_else_linger, [1, 2, 3, 4, 5],
            workers=workers, retries=0,
        )
        by_payload = dict(zip([1, 2, 3, 4, 5], results))
        assert by_payload[3].status == "infra_error"
        for payload in (1, 2, 4, 5):
            assert by_payload[payload].status == "ok"
            assert by_payload[payload].value == payload * 2
            assert by_payload[payload].retries == 0

    def test_hanging_task_times_out_others_complete(self):
        results = run_isolated(
            _hang_on_three, [1, 2, 3, 4], workers=2, timeout_s=3.0
        )
        by_payload = dict(zip([1, 2, 3, 4], results))
        assert by_payload[3].status == "timed_out"
        for payload in (1, 2, 4):
            assert by_payload[payload].status == "ok"

    def test_empty_payloads(self):
        assert run_isolated(_ok_task, [], workers=2) == []

    def test_raising_initializer_fails_every_task_with_its_error(self):
        with hard_timeout(60):
            results = run_isolated(
                _ok_task, [1, 2, 3], workers=2,
                initializer=_raising_initializer, retries=1,
            )
        for task in results:
            assert task.status == "infra_error"
            assert task.error == (
                "RuntimeError: worker initializer failed: ValueError: no host state"
            )

    def test_initializer_that_kills_its_worker_ends_the_call(self):
        with hard_timeout(60):
            results = run_isolated(
                _ok_task, [1, 2, 3], workers=2, initializer=_dying_initializer
            )
        for task in results:
            assert task.status == "infra_error"
            assert task.retries == 0
            assert "before any task started" in task.error

    def test_timeout_counts_from_the_task_start_not_its_submission(self):
        # One slot runs the three 1 s tasks back to back: the third
        # starts 2 s after the call, past a clock started at submission.
        with hard_timeout(60):
            results = run_isolated(
                _sleep_payload, [1, 1, 1], workers=1, timeout_s=1.5, retries=0
            )
        assert [task.status for task in results] == ["ok"] * 3

    def test_hang_on_one_slot_leaves_another_slots_task_running(self, tmp_path):
        # Slot 1 hangs from 0 s and is killed at 2 s; slot 0 runs the
        # counting task from 1 s to 2.5 s, across the kill.
        runs = tmp_path / "runs"
        with hard_timeout(60):
            results = run_isolated(
                _sleep_hang_or_count,
                [("sleep", 1.0), ("hang", None), ("count", str(runs))],
                workers=2, timeout_s=2.0, retries=0,
            )
        assert [task.status for task in results] == ["ok", "timed_out", "ok"]
        assert runs.read_text().splitlines() == ["run"]

    def test_initializer_that_hangs_ends_the_call(self):
        # No task ever starts: each stuck worker is killed after the
        # timeout and counts as a break before any task started.
        with hard_timeout(60):
            results = run_isolated(
                _ok_task, [1, 2], workers=1,
                initializer=_hanging_initializer, timeout_s=0.5,
            )
        for task in results:
            assert task.status == "infra_error"
            assert task.retries == 0
            assert "before any task started" in task.error


# ----------------------------------------------------------------------
# corrupted cache reads


class TestCachePersistence:
    def test_injected_corruption_counts_once_and_rebuilds(self):
        store = cache.ContentCache("inj")
        key = cache.source_key("program p")
        store.get_or_build(key, lambda: "value")
        with faults.injected(
            FaultSpec(point="cache.read", match="inj", mode="corrupt")
        ):
            rebuilt = store.get_or_build(key, lambda: "rebuilt")
        assert rebuilt == "rebuilt"
        assert store.corrupt_entries == 1
        assert store.get_or_build(key, lambda: "again") == "rebuilt"

    def test_stats_include_corrupt(self):
        store = cache.ContentCache("s")
        assert store.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "corrupt": 0,
        }


# ----------------------------------------------------------------------
# event-sink fault tolerance


class TestSinkFaultTolerance:
    def test_write_failures_are_counted_not_raised(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = obs.JsonlFileSink(path)
        with faults.injected(
            FaultSpec(point="sink.write", match="events.jsonl", times=2)
        ):
            # oserror is the natural mode here, but any fired spec makes
            # the sink raise OSError internally; both writes must vanish
            # into the error counter.
            sink.write({"kind": "a"})
            sink.write({"kind": "b"})
        sink.write({"kind": "c"})
        sink.close()
        assert sink.errors == 2
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert not sink.degraded  # under max_errors: still live at close

    def test_sink_degrades_after_max_errors(self, tmp_path):
        path = str(tmp_path / "dead.jsonl")
        sink = obs.JsonlFileSink(path, max_errors=3)
        with faults.injected(
            FaultSpec(point="sink.write", match="dead.jsonl", times=-1)
        ):
            for index in range(5):
                sink.write({"kind": index})
        assert sink.degraded
        assert sink.errors == 3  # stopped trying after the cap
        sink.close()

    def test_atomic_sink_publishes_on_close(self, tmp_path):
        path = str(tmp_path / "atomic.jsonl")
        sink = obs.JsonlFileSink(path, atomic=True)
        sink.write({"kind": "a"})
        assert not os.path.exists(path)  # still streaming to .part
        sink.close()
        assert os.path.exists(path)
        assert not os.path.exists(path + ".part")
        assert len(open(path).read().splitlines()) == 1
