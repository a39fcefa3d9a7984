"""Run one workload of the GADT end-to-end benchmark.

    python3 perfbench/run.py --workload corpus-diff --seed 1 --seconds 25 --trace 0

The workloads are described in :mod:`perfbench.workloads`. A run sets
up (imports, inputs, reference oracles, one warm-up request on inputs
outside the measured set), then sends requests one at a time, in whole
cycles of the workload's fixed mix, until ``--seconds`` have passed,
and checks each result. Set-up is measured in this process and in two
fresh child processes; the median is reported.

Times are reported in reference-machine seconds: a fixed kernel timed
between requests tracks the machine's speed (:class:`SpeedGauge`), and
each request's times are scaled by it. The unscaled figures are printed
in the provenance line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles instead and prints the per-layer metrics
(:mod:`perfbench.layers`); per-layer times and counts are means per
traced request. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance. The exit code is 1 when any request
failed its check, and 2 when the repository sources are missing.

``REPRO_BACKEND`` is removed from the environment and observability
stays off, so the shell cannot change what is measured.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()


def _eval(node, env) -> int:
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "num":
        return node[1]
    left, right = _eval(node[1], env), _eval(node[2], env)
    return (left + right) % 9973 if kind == "+" else (left * right) % 9973


def _tree(depth: int, index: int = 0):
    if depth == 0:
        return ("var", "abc"[index % 3]) if index % 2 else ("num", index)
    return ("+" if depth % 2 else "*", _tree(depth - 1, 2 * index), _tree(depth - 1, 2 * index + 1))


_KERNEL_TREE = _tree(7)


def speed_kernel() -> float:
    """Seconds taken by a fixed, interpreter-like piece of work (a
    recursive walk of a small expression tree), independent of the
    code under test."""
    started = time.perf_counter()
    env = {"a": 3, "b": 5, "c": 7}
    for _ in range(120):
        _eval(_KERNEL_TREE, env)
    return time.perf_counter() - started


_SETUP_KERNEL = [speed_kernel() for _ in range(3)]

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import deque  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median
SETUP_SAMPLES = 3
#: the tail percentile: the highest with at least TAIL_BEYOND samples
#: beyond it in every workload's runs on the reference machine. Fixed,
#: so that a faster commit (more samples) reports the same percentile;
#: a run with too few samples falls back to the median.
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10
#: peak memory is the highest resident size after any request of the
#: first RSS_CYCLES cycles: the same work in every run, whereas the
#: caches keep growing with the number of requests a run gets through
RSS_CYCLES = 2
#: speed_kernel() seconds on the reference machine (2-core x86-64 VM,
#: Python 3.11); reported times are scaled to that speed
REFERENCE_KERNEL_S = 0.003
#: kernel samples behind each speed estimate
GAUGE_WINDOW = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[int, float]:
    """(percentile, value) of the latency tail."""
    if len(samples) * (100 - TAIL_PERCENTILE) / 100 >= TAIL_BEYOND:
        quantiles = statistics.quantiles(samples, n=100, method="inclusive")
        return TAIL_PERCENTILE, quantiles[TAIL_PERCENTILE - 1]
    return 50, statistics.median(samples)


def git_commit() -> str | None:
    """HEAD's commit id, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def rss_mb() -> float:
    """This process's resident set size now."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def children_peak_rss_mb() -> float:
    """The largest waited-for child's peak (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class SpeedGauge:
    """The machine's current speed, from speed_kernel() samples taken
    between requests. A shared machine drifts by tens of percent within
    a minute; each request's times are scaled by
    REFERENCE_KERNEL_S / (median recent kernel time), which reports them
    in reference-machine seconds and cancels the drift."""

    def __init__(self, samples=()):
        self._samples = deque(samples, maxlen=GAUGE_WINDOW)

    def sample(self) -> None:
        self._samples.append(speed_kernel())

    def factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self._samples)


class Run:
    """One benchmark run: set-up, the measured loop, and its figures."""

    def __init__(self, workload_name: str, seed: int, traced: bool):
        from repro import obs

        from perfbench.layers import LayerTracer
        from perfbench.workloads import WORKLOADS

        obs.disable()
        self.tracer = LayerTracer() if traced else None
        if self.tracer is None:
            self.workload = WORKLOADS[workload_name](seed)
        else:
            # Set-up's reference-oracle builds are timed too, and then
            # the counts start afresh for the measured requests.
            with self.tracer.installed():
                self.workload = WORKLOADS[workload_name](seed)
            self.oracle_build = dataclasses.replace(self.tracer.layer("core.oracle.build"))
            self.tracer.reset()
        warm = self.workload.run(self.workload.warm_up_input(), None)
        if warm.problems:
            raise RuntimeError(f"warm-up request failed: {warm.problems}")
        self.raw_setup_s = time.perf_counter() - _STARTED
        gauge = SpeedGauge(_SETUP_KERNEL + [speed_kernel() for _ in range(3)])
        self.setup_s = self.raw_setup_s * gauge.factor()
        self.gauge = SpeedGauge()
        self.raw_latencies: list[float] = []
        self.traced_wall_s = 0.0
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.outcomes = []
        self.traced_outcomes = []
        self.failures: list[str] = []
        self.unattributed_s = 0.0
        self.suspects = 0
        self.peak_rss_mb = 0.0

    def measure(self, seconds: float) -> None:
        from repro.cache import cache_stats

        self.cache_before = cache_stats()
        inputs = self.workload.inputs()
        deadline = time.perf_counter() + seconds
        # Whole cycles of the workload's fixed mix, so every run measures
        # the same composition (a run overshoots by less than one cycle).
        # A traced run alternates untraced and traced cycles, so both
        # halves see the same programs, and runs at least one of each.
        cycles = 0
        while time.perf_counter() < deadline or (self.tracer is not None and cycles < 2):
            traced = self.tracer is not None and cycles % 2 == 1
            for item in islice(inputs, self.workload.cycle):
                self._request(item, traced)
                if cycles < RSS_CYCLES:
                    self.peak_rss_mb = max(self.peak_rss_mb, rss_mb())
            cycles += 1
        self.cache_after = cache_stats()

    def _request(self, item, traced: bool) -> None:
        # Start every request from a collected heap, so that a full
        # collection owed by earlier requests does not land in this one.
        gc.collect()
        self.gauge.sample()
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.begin()
        started = time.perf_counter()
        try:
            outcome = self.workload.run(item, tracer)
        except Exception as exc:  # a request that raised is a failed request
            outcome = None
            self.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            wall = time.perf_counter() - started
            if tracer is not None:
                tracer.restore()
        self.gauge.sample()
        factor = self.gauge.factor()
        if traced:
            self.traced_latencies.append(wall * factor)
            self.traced_wall_s += wall
        else:
            self.latencies.append(wall * factor)
            self.raw_latencies.append(wall)
        if outcome is None:
            return
        outcome.first_questions = [f * factor for f in outcome.first_questions]
        self.failures.extend(outcome.problems)
        self.outcomes.append(outcome)
        if tracer is not None:
            self.traced_outcomes.append(outcome)
            tracer.settle()
            self.unattributed_s += wall - tracer.attributed_s
            self.suspects += sum(trace.tree.size() - 1 for trace in outcome.session_traces)
        outcome.session_traces.clear()

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.traced_latencies)

    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for o in self.outcomes if not o.problems)

    # ------------------------------------------------------------------

    def end_to_end(self, setup_s: float, rss_mb: float) -> dict:
        outcomes = self.outcomes
        questions = [q for o in outcomes for q in o.questions]
        first = [f for o in outcomes for f in o.first_questions]
        debuggable = sum(o.debuggable for o in outcomes)
        tail_p, tail_value = tail(self.latencies)
        self.tail_info = {"percentile": tail_p, "samples": len(self.latencies)}
        self.unscaled = {
            "setup_s": self.raw_setup_s,
            "latency_p50_s": statistics.median(self.raw_latencies),
            "requests_per_s": len(self.raw_latencies) / sum(self.raw_latencies),
            "speed_factor": self.gauge.factor(),
        }
        return {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (len(self.latencies) / sum(self.latencies), "1/s"),
            "latency_p50_s": (statistics.median(self.latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "first_question_p50_s": (statistics.median(first), "s"),
            "questions_per_bug": (statistics.mean(questions), "count"),
            "localized_frac": (sum(o.localized for o in outcomes) / debuggable, "frac"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def per_layer(self) -> dict:
        tracer = self.tracer
        n = len(self.traced_latencies)
        metrics: dict[str, tuple[float, str]] = {}
        stats = tracer.layer

        for layer in (
            "pascal.lex", "pascal.parse", "pascal.analyze", "pascal.pretty",
            "pascal.run", "analysis.side_effects", "transform.classify",
            "transform.structured_gotos", "transform.loop_gotos",
            "transform.global_gotos", "transform.globals_to_params",
            "transform.loop_units", "transform.instrument",
            "transform.pipeline", "compile", "tracing.trace", "core.present",
            "core.strategy", "core.debug", "slicing.prune", "mutants.generate",
        ):
            metrics[f"{layer}.self_s"] = (stats(layer).self_s / n, "s")
        for layer in ("pascal.analyze", "pascal.pretty", "compile",
                      "core.strategy", "slicing.prune"):
            metrics[f"{layer}.calls"] = (stats(layer).calls / n, "count")
        metrics["pascal.lex.tokens"] = (stats("pascal.lex").work / n, "count")
        metrics["pascal.run.steps"] = (stats("pascal.run").work / n, "count")
        trace = stats("tracing.trace")
        metrics["tracing.trace.nodes"] = (trace.work / n, "count")
        metrics["tracing.trace.us_per_node"] = (
            1e6 * trace.self_s / trace.work if trace.work else 0.0, "us"
        )
        oracle = stats("core.oracle.answer")
        metrics["core.oracle.answer_s"] = (oracle.self_s / n, "s")
        metrics["core.oracle.calls"] = (oracle.calls / n, "count")
        build = self.oracle_build
        metrics["core.oracle.build_s"] = (
            build.inclusive_s / build.calls if build.calls else 0.0, "s"
        )
        outcomes = self.traced_outcomes
        pruned = sum(o.slice_pruned for o in outcomes)
        metrics["slicing.pruned_ratio"] = (
            pruned / self.suspects if self.suspects else 0.0, "ratio"
        )
        generate = stats("mutants.generate")
        metrics["mutants.generate.count"] = (generate.work / n, "count")
        generated = sum(o.generated for o in outcomes)
        metrics["mutants.changing_ratio"] = (
            sum(o.changing for o in outcomes) / generated if generated else 0.0,
            "ratio",
        )
        metrics["mutants.evaluate.wall_s"] = (stats("mutants.evaluate").inclusive_s / n, "s")
        metrics["mutants.pool_idle_s"] = (
            sum(o.pool_idle_s for o in outcomes) / n, "s"
        )
        for name in ("analysis", "transform", "compile"):
            hits = self.cache_after[name]["hits"] - self.cache_before[name]["hits"]
            misses = self.cache_after[name]["misses"] - self.cache_before[name]["misses"]
            metrics[f"cache.{name}.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0, "ratio"
            )
        metrics["unattributed_s"] = (self.unattributed_s / n, "s")
        metrics["unattributed_frac"] = (
            self.unattributed_s / self.traced_wall_s, "frac"
        )
        metrics["tracing_overhead_frac"] = (
            statistics.median(self.traced_latencies)
            / statistics.median(self.latencies) - 1.0,
            "frac",
        )
        return metrics


def setup_in_child(args) -> float:
    """Set-up seconds of a fresh process (imports included)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_BACKEND", None)
    # Temporary files (the sweep pool manager's socket) stay in the checkout.
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, traced=bool(args.trace))
    if args.setup_only:
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    run.measure(args.seconds)
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for miss in (m for o in run.outcomes for m in o.misses):
        print(f"miss: {miss}")

    if args.trace:
        metrics = run.per_layer()
        run.tail_info = run.unscaled = None
    else:
        # Set-up children only after the measured loop, so their memory
        # stays out of the mutant sweep's pool-worker peak.
        rss = run.peak_rss_mb
        if args.workload == "mutant-sweep":
            rss += children_peak_rss_mb()
        samples = [run.setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = run.end_to_end(statistics.median(samples), rss)
        print(f"failed_frac: {run.failed / run.attempted:.4f} "
              f"({run.failed} of {run.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")

    from repro.compile import default_backend

    print(json.dumps({"provenance": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": default_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "latency_tail": run.tail_info,
        "unscaled": run.unscaled,
    }}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
