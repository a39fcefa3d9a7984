"""Load-generator benchmark for the debug service: emits ``BENCH_serve.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_serve.py [--sessions 100]
        [--workers 4] [--duration 5]
        [--overload 2.0] [--fault serve.worker] [--output BENCH_serve.json]

Two phases against one in-process :class:`repro.serve.DebugService`
multiplexed over one shared sharded test-report store:

1. **calibration** — a low-concurrency warm pass measures the mean
   service time of the job mix, giving the sustainable rate
   (``workers / mean_serve_s``);
2. **overload** — ``--sessions`` concurrent sessions (default 100)
   offer jobs at ``--overload``× the sustainable rate (default 2×) for
   ``--duration`` seconds. The service is expected to shed the excess
   explicitly, keep latency bounded for the jobs it accepts, and lose
   nothing: the run **fails** (exit 1) if any submitted job fails to
   receive a terminal response — the zero-lost-jobs acceptance check.

``--fault serve.worker`` additionally injects a raise-mode fault into
every job's first execution attempt, so the overload run doubles as a
retry-path soak: throughput drops, but the invariant must hold. CI
(the ``serve-smoke`` job) runs both configurations.

The artifact (``bench_serve/1``) records throughput, wait/latency
percentiles (p50/p95/p99), per-status counts, and the shed rate, so
service capacity is tracked PR over PR alongside ``BENCH_perf.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import DebugService, ServeConfig
from repro.store import ShardedReportStore
from repro.tgen.reports import TestReport, Verdict
from repro.workloads import FIGURE4_SOURCE

#: a modest job: ~10k interpreter steps, long enough to queue behind
WORK_SOURCE = """\
program work;
var i, acc : integer;
begin
  i := 0;
  acc := 0;
  while i < 3000 do
  begin
    acc := acc + i;
    i := i + 1
  end;
  writeln(acc)
end.
"""

JOB_MIX = (
    {"op": "run", "source": WORK_SOURCE},
    {"op": "run", "source": FIGURE4_SOURCE},
    {"op": "answer",
     "queries": [{"unit": "arrsum", "inputs": {}}]},
)


def seed_store(root: Path) -> str:
    """A small shared test-report store for the ``answer`` jobs."""
    store = ShardedReportStore(root / "testdb", shards=4)
    for n in range(32):
        store.add(TestReport(
            unit="arrsum",
            frame_key=("more", "positive", "small"),
            verdict=Verdict.PASS,
        ))
    store.flush()
    return str(root / "testdb")


def percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


async def calibrate(service: DebugService, jobs: int = 24) -> dict:
    """Mean service time of the job mix at gentle concurrency."""
    started = time.monotonic()
    responses = await asyncio.gather(*(
        service.submit({
            "id": f"cal-{n}", **dict(JOB_MIX[n % len(JOB_MIX)]),
            "use_testdb": True,
        })
        for n in range(jobs)
    ))
    elapsed = time.monotonic() - started
    served = [r for r in responses if r.status in ("completed", "degraded")]
    mean_serve = (
        sum(r.serve_s for r in served) / len(served) if served else 0.01
    )
    return {
        "jobs": jobs,
        "elapsed_s": round(elapsed, 4),
        "mean_serve_s": round(mean_serve, 6),
        "sustainable_rate": round(
            service.config.workers / max(mean_serve, 1e-4), 2
        ),
    }


async def overload_run(
    service: DebugService,
    sessions: int,
    offered_rate: float,
    duration_s: float,
) -> dict:
    """``sessions`` concurrent clients offering ``offered_rate`` jobs/s
    total for ``duration_s``; every submission must come back terminal."""
    interarrival = sessions / max(offered_rate, 0.1)
    responses = []
    submitted = 0

    async def session(index: int) -> None:
        nonlocal submitted
        deadline = time.monotonic() + duration_s
        n = 0
        while time.monotonic() < deadline:
            job = dict(JOB_MIX[(index + n) % len(JOB_MIX)])
            job["id"] = f"s{index}-{n}"
            job["tenant"] = f"tenant-{index % 8}"
            job["use_testdb"] = True
            submitted += 1
            arrived = time.monotonic()
            response = await service.submit(job)
            responses.append((response, time.monotonic() - arrived))
            n += 1
            pause = interarrival - (time.monotonic() - arrived)
            if pause > 0:
                await asyncio.sleep(pause)

    started = time.monotonic()
    await asyncio.gather(*(session(index) for index in range(sessions)))
    elapsed = time.monotonic() - started

    statuses: dict[str, int] = {}
    for response, _ in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
    served = [
        latency for response, latency in responses
        if response.status in ("completed", "degraded")
    ]
    waits = [response.wait_s for response, _ in responses]
    lost = submitted - len(responses)
    return {
        "sessions": sessions,
        "offered_rate": round(offered_rate, 2),
        "duration_s": round(elapsed, 3),
        "submitted": submitted,
        "responded": len(responses),
        "lost_jobs": lost,
        "throughput": round(len(served) / max(elapsed, 1e-9), 2),
        "statuses": statuses,
        "shed_rate": round(
            statuses.get("shed", 0) / max(len(responses), 1), 4
        ),
        "latency_s": {
            "p50": round(percentile(served, 0.50), 5),
            "p95": round(percentile(served, 0.95), 5),
            "p99": round(percentile(served, 0.99), 5),
        },
        "wait_s": {
            "p50": round(percentile(waits, 0.50), 5),
            "p95": round(percentile(waits, 0.95), 5),
            "p99": round(percentile(waits, 0.99), 5),
        },
    }


async def collect(args: argparse.Namespace, testdb: str) -> dict:
    config = ServeConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        default_deadline_s=10.0,
        retries=2,
        backoff_base_s=0.005,
        backoff_max_s=0.05,
        testdb=testdb,
    )
    service = DebugService(config)
    await service.start()
    calibration = await calibrate(service)
    overload = await overload_run(
        service,
        sessions=args.sessions,
        offered_rate=args.overload * calibration["sustainable_rate"],
        duration_s=args.duration,
    )
    summary = await service.drain()
    await service.close()

    stats = summary["stats"]
    accounted = stats["submitted"] == (
        stats["completed"] + stats["degraded"] + stats["shed"]
        + stats["timed_out"] + stats["failed"]
    )
    return {
        "schema": "bench_serve/1",
        "config": {
            "workers": args.workers,
            "max_queue": args.max_queue,
            "sessions": args.sessions,
            "overload_factor": args.overload,
            "fault": args.fault,
        },
        "calibration": calibration,
        "overload": overload,
        "service_stats": stats,
        "zero_lost_jobs": overload["lost_jobs"] == 0 and accounted,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=100,
                        help="concurrent sessions (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-queue", type=int, default=32)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="overload-phase seconds (default: %(default)s)")
    parser.add_argument("--overload", type=float, default=2.0,
                        help="offered rate as a multiple of sustainable")
    parser.add_argument("--fault", choices=["serve.worker"], default=None,
                        help="inject a raise fault into every first attempt")
    parser.add_argument("--output", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    if args.fault == "serve.worker":
        faults.install(FaultPlan([
            FaultSpec(point="serve.worker", match="@0", times=-1),
        ]))

    with tempfile.TemporaryDirectory() as tmp:
        testdb = seed_store(Path(tmp))
        report = asyncio.run(collect(args, testdb))
    faults.clear()

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    overload = report["overload"]
    print(f"wrote {args.output}")
    print(
        f"  sessions {overload['sessions']}, offered "
        f"{overload['offered_rate']}/s for {overload['duration_s']}s"
    )
    print(
        f"  throughput {overload['throughput']}/s, shed rate "
        f"{overload['shed_rate']:.1%}, statuses {overload['statuses']}"
    )
    latency = overload["latency_s"]
    print(
        f"  latency p50 {latency['p50']}s p95 {latency['p95']}s "
        f"p99 {latency['p99']}s"
    )
    if not report["zero_lost_jobs"]:
        print("LOST JOBS: a submission got no terminal response",
              file=sys.stderr)
        return 1
    print("  zero lost jobs: every submission got one terminal response")
    return 0


if __name__ == "__main__":
    sys.exit(main())
