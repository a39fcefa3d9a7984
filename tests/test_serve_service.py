"""The multi-session debug service engine (repro.serve.service).

Every test runs real slot-owned worker processes; the crash-isolation
tests kill them with ``exit``-mode ``serve.worker`` faults or a job body
that outlives its deadline.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro import obs
from repro.compile import resolve_backend
from repro.obs import spans
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import DebugService, ServeConfig, TERMINAL_STATUSES
from repro.serve import worker as worker_mod
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE

#: ~0.3s of execution work — long enough to hold a worker slot. The
#: compiled backend traces ~10x faster, so scale the loop to the engine
#: serve jobs trace on to keep the queue-timing windows open.
_SLOW_ITERATIONS = 1_000_000 if resolve_backend(None) == "compiled" else 100_000
SLOW_SOURCE = f"""\
program slow;
var i : integer;
begin
  i := 0;
  while i < {_SLOW_ITERATIONS} do
    i := i + 1;
  writeln(i)
end.
"""

#: many short activations per trace: concurrent trace jobs interleave
#: their spans (``trace.execute``, ``compile.routine``) if they share a
#: process
CHURN_SOURCE = """\
program churn;
var i, acc : integer;
function sq(x : integer) : integer;
begin
  sq := x * x
end;
procedure bump(var a : integer; x : integer);
begin
  a := a + sq(x)
end;
begin
  acc := 0;
  for i := 1 to 400 do
    bump(acc, i);
  writeln(acc)
end.
"""

#: never terminates on its own; only a budget or step limit stops it
SPIN_SOURCE = """\
program spin;
var x : integer;
begin
  x := 0;
  while 1 = 1 do
    x := x + 1
end.
"""


@pytest.fixture(autouse=True)
def _clean():
    yield
    faults.clear()
    obs.disable()
    obs.reset()


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides) -> DebugService:
    config = ServeConfig(
        workers=overrides.pop("workers", 2),
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        **overrides,
    )
    return DebugService(config)


async def serve_one(service: DebugService, request: dict):
    await service.start()
    try:
        return await service.submit(request)
    finally:
        await service.close()


class TestHappyPath:
    def test_run_job_completes(self):
        service = make_service()
        response = run(serve_one(
            service, {"id": "r", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "completed"
        assert response.result == {"output": "false\n", "steps": 39}
        assert service.stats.submitted == 1
        assert service.stats.completed == 1
        assert service.stats.terminal() == 1

    def test_trace_job_reports_tree_shape(self):
        response = run(serve_one(
            make_service(),
            {"id": "t", "op": "trace", "source": FIGURE4_SOURCE},
        ))
        assert response.status == "completed"
        assert response.result["nodes"] > 0
        assert response.result["occurrences"] > 0

    def test_debug_job_localizes_the_paper_bug(self):
        response = run(serve_one(
            make_service(),
            {
                "id": "d", "op": "debug", "source": FIGURE4_SOURCE,
                "reference": FIGURE4_FIXED_SOURCE,
            },
        ))
        assert response.status == "completed"
        assert response.result["localized"] is True
        assert response.result["bug_unit"] == "decrement"

    def test_ping_answers_inline(self):
        async def main():
            service = make_service()
            await service.start()
            response = await service.submit({"id": "p", "op": "ping"})
            await service.close()
            return response

        response = run(main())
        assert response.status == "completed"
        assert response.result == {"pong": True}

    def test_wait_and_serve_latency_are_reported(self):
        response = run(serve_one(
            make_service(),
            {"id": "r", "op": "run", "source": FIGURE4_SOURCE},
        ))
        assert response.wait_s >= 0.0
        assert response.serve_s > 0.0


class TestFailures:
    def test_malformed_line_gets_a_terminal_failed(self):
        service = make_service()
        response = run(serve_one(service, "this is not json"))
        assert response.status == "failed"
        assert response.reason == "bad_request"
        assert service.stats.failed == 1

    def test_unknown_op_gets_bad_request(self):
        response = run(serve_one(make_service(), {"id": "x", "op": "warp"}))
        assert response.status == "failed"
        assert response.reason == "bad_request"

    def test_server_side_control_op_is_refused_by_the_engine(self):
        response = run(serve_one(make_service(), {"id": "x", "op": "drain"}))
        assert response.status == "failed"
        assert response.reason == "bad_request"

    def test_program_error_is_terminal_and_never_retried(self):
        service = make_service()
        response = run(serve_one(
            service,
            {"id": "x", "op": "run",
             "source": "program x; begin boom end."},
        ))
        assert response.status == "failed"
        assert response.reason == "program_error"
        assert "boom" in response.error
        assert service.stats.retries == 0

    def test_accept_fault_is_a_terminal_response(self):
        faults.install(FaultPlan([FaultSpec(point="serve.accept")]))
        service = make_service()
        response = run(serve_one(
            service, {"id": "a", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "failed"
        assert response.reason == "accept_fault"
        assert service.stats.terminal() == service.stats.submitted


class TestInvalidStrategy:
    """An unknown search strategy is a fault of the request, never of
    the infrastructure: terminal ``failed``, zero retries, and the
    tenant's breaker stays closed."""

    def test_protocol_rejects_it_as_bad_request(self):
        service = make_service(retries=2)
        response = run(serve_one(
            service,
            {
                "id": "s", "op": "debug", "source": FIGURE4_SOURCE,
                "reference": FIGURE4_FIXED_SOURCE,
                "strategy": "quantum-bisect",
            },
        ))
        assert response.status == "failed"
        assert response.reason == "bad_request"
        assert "quantum-bisect" in response.error
        assert response.retries == 0
        assert service.stats.retries == 0
        assert service.stats.breaker_opens == 0

    def test_worker_reports_invalid_not_a_crash(self):
        from repro.serve.worker import execute_job

        result = execute_job(
            {
                "id": "w", "op": "debug", "source": FIGURE4_SOURCE,
                "reference": FIGURE4_FIXED_SOURCE,
                "strategy": "quantum-bisect",
            }
        )
        assert "invalid" in result
        assert "quantum-bisect" in result["invalid"]

    def test_skewed_client_gets_terminal_invalid_request(self, monkeypatch):
        """A client whose protocol knows a strategy this worker doesn't
        (version skew) still gets one permanent answer: the worker's
        'invalid' result maps to failed/invalid_request, is never
        retried, and charges no breaker credit."""
        from repro.serve import protocol

        original = protocol.JobRequest.validate

        def lax(self):
            try:
                original(self)
            except protocol.ProtocolError as error:
                if "strategy" not in str(error):
                    raise

        monkeypatch.setattr(protocol.JobRequest, "validate", lax)
        service = make_service(retries=2)
        response = run(serve_one(
            service,
            {
                "id": "s", "op": "debug", "source": FIGURE4_SOURCE,
                "reference": FIGURE4_FIXED_SOURCE,
                "strategy": "quantum-bisect",
            },
        ))
        assert response.status == "failed"
        assert response.reason == "invalid_request"
        assert "quantum-bisect" in response.error
        assert response.retries == 0
        assert service.stats.retries == 0
        assert service.stats.breaker_opens == 0

    def test_dq_optimal_debug_job_completes(self):
        response = run(serve_one(
            make_service(),
            {
                "id": "d", "op": "debug", "source": FIGURE4_SOURCE,
                "reference": FIGURE4_FIXED_SOURCE,
                "strategy": "dq-optimal",
            },
        ))
        assert response.status == "completed"
        assert response.result["localized"] is True
        assert response.result["bug_unit"] == "decrement"


class TestRetries:
    def test_transient_worker_fault_is_retried_to_success(self):
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="j@0"),
        ]))
        service = make_service(retries=2)
        response = run(serve_one(
            service, {"id": "j", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "completed"
        assert response.retries == 1
        assert service.stats.retries == 1

    def test_persistent_fault_exhausts_retries(self):
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="j@", times=-1),
        ]))
        service = make_service(retries=2)
        response = run(serve_one(
            service, {"id": "j", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "failed"
        assert response.reason == "infra_error"
        assert response.retries == 2
        assert service.stats.retries == 2

    def test_oserror_counts_as_infra_not_program(self):
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="j@", mode="oserror",
                      times=-1),
        ]))
        response = run(serve_one(
            make_service(retries=1),
            {"id": "j", "op": "run", "source": FIGURE4_SOURCE},
        ))
        assert response.status == "failed"
        assert response.reason == "infra_error"


class TestWorkerDeath:
    """A worker death or a stuck worker costs one slot rebuild, never
    the service."""

    def test_worker_death_is_retried_on_a_rebuilt_slot(self):
        # the plan ships to workers via the pool initializer; attempt 0 of
        # job "a" hard-exits its process, the retry runs clean
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="a@0", mode="exit"),
        ]))
        service = make_service(retries=2)
        response = run(serve_one(
            service, {"id": "a", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "completed"
        assert response.result["output"] == "false\n"
        assert response.retries == 1
        assert service.stats.retries == 1
        assert service.stats.terminal() == 1

    def test_persistent_crasher_is_circuit_broken(self):
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="kill", mode="exit",
                      times=-1),
        ]))

        async def main():
            service = make_service(
                workers=1, retries=0, breaker_threshold=1,
                breaker_cooldown_s=60.0,
            )
            await service.start()
            first = await service.submit(
                {"id": "kill-1", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "crashy"}
            )
            # the crash opened crashy's breaker: next job is shed unserved
            second = await service.submit(
                {"id": "kill-2", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "crashy"}
            )
            # an innocent tenant still gets a (rebuilt) worker
            third = await service.submit(
                {"id": "ok", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()
            return service, first, second, third

        service, first, second, third = run(main())
        assert first.status == "failed"
        assert first.reason == "infra_error"
        assert second.status == "shed"
        assert second.reason == "circuit_open"
        assert third.status == "completed"
        assert service.stats.breaker_opens == 1
        assert service.stats.terminal() == 3

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched job body reaches the worker by fork",
    )
    def test_stuck_worker_is_killed_and_its_slot_rebuilt(self, monkeypatch):
        def hang(payload):  # ignores the job's budget, unlike real jobs
            time.sleep(60)

        monkeypatch.setattr(worker_mod, "_run", hang)
        service = make_service(workers=1, stuck_grace_s=0.2)
        executors = []
        make_process = service._make_process

        def recording_make_process():
            executors.append(make_process())
            return executors[-1]

        service._make_process = recording_make_process

        async def main():
            await service.start()
            stuck = asyncio.ensure_future(service.submit(
                {"id": "stuck", "op": "run", "source": FIGURE4_SOURCE,
                 "deadline_s": 0.3}
            ))
            await asyncio.sleep(0.15)  # the worker is forked and hanging
            old_processes = list(executors[0]._processes.values())
            stuck_response = await stuck
            # the rebuilt slot forks its process on its next job, after
            # the patch is undone
            monkeypatch.undo()
            after = await service.submit(
                {"id": "after", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()
            return old_processes, stuck_response, after

        old_processes, stuck_response, after = run(main())
        assert stuck_response.status == "timed_out"
        assert stuck_response.reason == "stuck_worker"
        assert len(executors) == 2  # the slot got a fresh executor
        assert len(old_processes) == 1
        deadline = time.monotonic() + 5.0
        while old_processes[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not old_processes[0].is_alive()
        assert after.status == "completed"
        assert after.result["output"] == "false\n"
        assert service.stats.terminal() == 2


class TestDeadlines:
    def test_blown_budget_times_out_with_reason_budget(self):
        service = make_service(step_limit=50_000_000)
        response = run(serve_one(
            service,
            {"id": "s", "op": "run", "source": SPIN_SOURCE,
             "deadline_s": 0.2},
        ))
        assert response.status == "timed_out"
        assert response.reason == "budget"
        assert service.stats.timed_out == 1

    def test_degrade_true_salvages_a_partial_trace(self):
        response = run(serve_one(
            make_service(step_limit=50_000_000),
            {"id": "s", "op": "trace", "source": SPIN_SOURCE,
             "deadline_s": 0.2, "degrade": True},
        ))
        assert response.status == "degraded"
        assert response.result["nodes"] >= 1
        assert response.result["degraded_reason"]

    def test_queued_job_times_out_before_burning_a_worker(self):
        async def main():
            service = make_service(workers=1, step_limit=50_000_000)
            await service.start()
            slow = asyncio.ensure_future(service.submit(
                {"id": "slow", "op": "run", "source": SLOW_SOURCE}
            ))
            await asyncio.sleep(0.05)  # slow is on the only slot now
            queued = await service.submit(
                {"id": "q", "op": "run", "source": FIGURE4_SOURCE,
                 "deadline_s": 0.05}
            )
            slow_response = await slow
            await service.close()
            return service, slow_response, queued

        service, slow_response, queued = run(main())
        assert slow_response.status == "completed"
        assert queued.status == "timed_out"
        assert queued.reason == "queue"
        assert service.stats.timed_out == 1
        assert service.stats.terminal() == 2

    def test_queue_timeout_config_bounds_the_wait(self):
        async def main():
            service = make_service(
                workers=1, queue_timeout_s=0.05,
                default_deadline_s=None, step_limit=50_000_000,
            )
            await service.start()
            slow = asyncio.ensure_future(service.submit(
                {"id": "slow", "op": "run", "source": SLOW_SOURCE}
            ))
            await asyncio.sleep(0.05)
            queued = await service.submit(
                {"id": "q", "op": "run", "source": FIGURE4_SOURCE}
            )
            await slow
            await service.close()
            return queued

        assert run(main()).status == "timed_out"


class TestShedding:
    def test_zero_queue_sheds_everything_as_overloaded(self):
        service = make_service(max_queue=0)
        response = run(serve_one(
            service, {"id": "x", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert response.status == "shed"
        assert response.reason == "overloaded"
        assert service.stats.shed_reasons == {"overloaded": 1}

    def test_rate_limited_tenant_sheds(self):
        async def main():
            service = make_service(rate=0.001, burst=1.0)
            await service.start()
            first = await service.submit(
                {"id": "1", "op": "ping"}  # control op: no token taken
            )
            a = await service.submit(
                {"id": "2", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "greedy"}
            )
            b = await service.submit(
                {"id": "3", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "greedy"}
            )
            c = await service.submit(
                {"id": "4", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "modest"}
            )
            await service.close()
            return first, a, b, c

        first, a, b, c = run(main())
        assert first.status == "completed"
        assert a.status == "completed"
        assert b.status == "shed" and b.reason == "rate_limited"
        assert c.status == "completed"  # other tenants unaffected

    def test_open_breaker_sheds_circuit_open(self):
        async def main():
            service = make_service()
            await service.start()
            breaker = service.admission.breaker("crashy")
            for _ in range(service.config.breaker_threshold):
                breaker.record_crash()
            shed = await service.submit(
                {"id": "x", "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": "crashy"}
            )
            ok = await service.submit(
                {"id": "y", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()
            return shed, ok

        shed, ok = run(main())
        assert shed.status == "shed" and shed.reason == "circuit_open"
        assert ok.status == "completed"

    def test_draining_service_sheds_new_jobs(self):
        async def main():
            service = make_service()
            await service.start()
            await service.drain()
            response = await service.submit(
                {"id": "late", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()
            return response

        response = run(main())
        assert response.status == "shed"
        assert response.reason == "draining"


class TestDrain:
    def test_drain_waits_for_in_flight_jobs(self):
        async def main():
            service = make_service(workers=1, step_limit=50_000_000)
            await service.start()
            slow = asyncio.ensure_future(service.submit(
                {"id": "slow", "op": "run", "source": SLOW_SOURCE}
            ))
            await asyncio.sleep(0.05)
            summary = await service.drain()
            assert slow.done()  # drain resolved only after the job did
            response = await slow
            await service.close()
            return summary, response

        summary, response = run(main())
        assert response.status == "completed"
        assert summary["drained"] is True
        assert summary["stats"]["completed"] == 1

    def test_drain_on_idle_service_returns_immediately(self):
        async def main():
            service = make_service()
            await service.start()
            summary = await asyncio.wait_for(service.drain(), 1.0)
            await service.close()
            return summary

        assert run(main())["drained"] is True


class TestInvariant:
    """The tentpole promise: every job gets exactly one terminal
    response, even under concurrency and injected worker faults."""

    def test_zero_lost_jobs_under_faulty_concurrency(self):
        faults.install(FaultPlan([
            # every 0th attempt of jobs 0-9 fails; retries succeed
            FaultSpec(point="serve.worker", match="@0", times=10),
        ]))

        async def main():
            service = make_service(workers=4, retries=2, max_queue=64)
            await service.start()
            jobs = [
                {"id": str(n), "op": "run", "source": FIGURE4_SOURCE,
                 "tenant": f"t{n % 3}"}
                for n in range(32)
            ]
            responses = await asyncio.gather(
                *(service.submit(job) for job in jobs)
            )
            await service.close()
            return service, responses

        service, responses = run(main())
        assert len(responses) == 32
        assert all(r.status in TERMINAL_STATUSES for r in responses)
        assert {r.id for r in responses} == {str(n) for n in range(32)}
        assert service.stats.submitted == 32
        assert service.stats.terminal() == 32
        assert service.stats.retries > 0  # the faults really fired

    def test_concurrent_jobs_leave_no_open_span_in_the_parent(self):
        """Jobs run in slot processes, so the parent's process-global
        span stack is never touched by them: it is empty after close()
        and every result matches the same job run alone."""
        kinds = {
            "trace": {"op": "trace", "source": CHURN_SOURCE,
                      "degrade": False},
            "debug": {"op": "debug", "source": FIGURE4_SOURCE,
                      "reference": FIGURE4_FIXED_SOURCE, "degrade": False},
        }
        alone = {
            op: worker_mod.execute_job(job)["ok"] for op, job in kinds.items()
        }
        jobs = [
            {"id": str(n), **kinds["trace" if n % 2 else "debug"]}
            for n in range(16)
        ]
        obs.reset()
        obs.enable()

        async def main():
            service = make_service(workers=4)
            await service.start()
            responses = await asyncio.gather(
                *(service.submit(job) for job in jobs)
            )
            await service.close()
            return responses

        responses = run(main())
        assert spans.current_depth() == 0
        assert [r.status for r in responses] == ["completed"] * 16
        for job, response in zip(jobs, responses):
            assert response.result == alone[job["op"]]

    def test_cancelled_jobs_are_accounted_and_drain_still_resolves(self):
        async def main():
            service = make_service(workers=1, step_limit=50_000_000)
            await service.start()
            victim = asyncio.ensure_future(service.submit(
                {"id": "v", "op": "run", "source": SLOW_SOURCE}
            ))
            await asyncio.sleep(0.05)
            victim.cancel()
            try:
                await victim
            except asyncio.CancelledError:
                pass
            summary = await asyncio.wait_for(service.drain(), 5.0)
            await service.close()
            return service, summary

        service, summary = run(main())
        assert service.stats.cancelled == 1
        assert summary["drained"] is True
        # the cancelled job is the one submission without a terminal
        assert service.stats.submitted == (
            service.stats.terminal() + service.stats.cancelled
        )


class TestObservability:
    def test_serve_metrics_land_in_the_registry(self):
        obs.reset()
        obs.enable()
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="j@0"),
        ]))

        async def main():
            service = make_service(retries=2, max_queue=0)
            await service.start()
            # max_queue=0: this one sheds
            await service.submit(
                {"id": "s", "op": "run", "source": FIGURE4_SOURCE}
            )
            service.config.max_queue = 64
            await service.submit(
                {"id": "j", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()  # close() drains

        run(main())
        counters = obs.snapshot(include_cache=False)["counters"]
        assert counters["serve.submitted"] == 2
        assert counters["serve.completed"] == 1
        assert counters["serve.shed"] == 1
        assert counters["serve.shed.overloaded"] == 1
        assert counters["serve.retries"] == 1
        assert counters["serve.drains"] == 1
        histograms = obs.snapshot(include_cache=False)["histograms"]
        assert histograms["serve.wait_s"]["count"] == 1
        assert histograms["serve.serve_s"]["count"] == 1

    def test_every_terminal_emits_a_serve_job_event(self):
        obs.reset()
        obs.enable()

        async def main():
            service = make_service()
            await service.start()
            await service.submit(
                {"id": "e", "op": "run", "source": FIGURE4_SOURCE}
            )
            await service.close()

        run(main())
        events = [e for e in obs.events() if e["kind"] == "serve-job"]
        assert len(events) == 1
        assert events[0]["id"] == "e"
        assert events[0]["status"] == "completed"

    def test_stats_accounting_works_with_obs_disabled(self):
        service = make_service()
        response = run(serve_one(
            service, {"id": "q", "op": "run", "source": FIGURE4_SOURCE}
        ))
        assert not obs.enabled()
        assert response.status == "completed"
        assert service.stats.completed == 1
