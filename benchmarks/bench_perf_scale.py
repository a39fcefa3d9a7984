"""PERF1 — wall-time scalability of the pipeline stages.

Not a paper figure (the paper reports no timings): this series records
how plain execution, tracing, dynamic slicing, and a full debugging
session scale with program size on this implementation, so regressions
are visible from PR to PR.

The measurement logic lives in :func:`measure_series` /
:func:`collect_perf_report` so the standalone runner
(``benchmarks/run_perf.py``) can emit ``BENCH_perf.json`` — the
repeatable per-stage record the performance trajectory is tracked
against — while the pytest-benchmark test below keeps exercising the
largest tree.

Stages, per call-tree depth (2**depth leaves):

* ``run_s``    — un-traced ``run_source`` (null-hook fast path);
* ``trace_s``  — tracing: execution tree + dynamic dependence graph;
* ``slice_s``  — dynamic backward slice from the program's output;
* ``debug_s``  — a full divide-and-query debugging session against a
  reference oracle;

plus one mutation sweep (``mutants``) over the paper's Figure 4 program,
the machine cost of the MUT1 accuracy experiment.

Since the ``bench_perf/3`` schema the stage series is recorded once per
execution backend (``interp``/``compiled``, see ``docs/COMPILER.md``);
each row carries its ``backend``, the report carries ``speedup_trace``
(interp ``trace_s`` over compiled ``trace_s`` per depth — the tentpole
number) and ``python``/``platform`` metadata, and tree/occurrence/edge
counts are asserted identical across backends before the report is
written.

``bench_perf/4`` adds a ``profile`` section: one hot-spot-profiled
trace per backend (``hotspots/1`` reports, see
:mod:`repro.obs.profiler`), so per-unit self-time and step attribution
travel with the timings.

``bench_perf/5`` adds ``questions_curve``: user questions per strategy
over call chains of depth 2–12 (:func:`measure_questions`). Question
counts are machine-independent, so ``benchmarks/check_regress.py``
gates them exactly — a strategy asking even one more question than the
committed baseline fails CI — alongside the normalized stage timings.
"""

import platform as platform_mod
import sys
import time

from benchmarks.helpers import debug_with
from repro.cache import cache_stats, clear_caches
from repro.slicing import DynamicCriterion, dynamic_slice
from repro.tracing import trace_source
from repro.pascal import run_source
from repro.workloads import (
    FIGURE4_FIXED_SOURCE,
    CallChainSpec,
    CallTreeSpec,
    generate_call_chain_program,
    generate_call_tree_program,
)

#: 4, 16, 64, 256 leaves — depth 8 is the "deep tree" tier added with
#: the fast-path engine; keep 6 as the cross-PR comparison point.
DEPTHS = [2, 4, 6, 8]

#: chain depths for the questions-vs-depth series: top-down pays one
#: question per level, so the chain family makes the strategy gap
#: visible at modest sizes.
QUESTION_DEPTHS = list(range(2, 13))


def _best_of(repeats, fn):
    """Best-of-N wall time plus the last return value (repeatable runs)."""
    best = None
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, value


def measure_series(depths=DEPTHS, repeats=1, backend="interp"):
    """Per-depth, per-stage wall times over the call-tree family.

    ``backend`` picks the execution engine for both the run and the
    trace stage, so each row measures one engine; slicing and debugging
    consume the trace and are backend-independent.
    """
    rows = []
    for depth in depths:
        generated = generate_call_tree_program(CallTreeSpec(depth=depth))

        # warm the content caches so stage timings measure the stage,
        # not one-off lex/parse/analyze/compile (run_perf reports cold
        # separately)
        run_source(generated.source, backend=backend)
        trace_source(generated.source, backend=backend)

        run_seconds, _ = _best_of(
            repeats, lambda: run_source(generated.source, backend=backend)
        )
        trace_seconds, trace = _best_of(
            repeats, lambda: trace_source(generated.source, backend=backend)
        )

        criterion = DynamicCriterion.output_position(trace.root, 1)
        slice_seconds, sliced = _best_of(
            repeats, lambda: dynamic_slice(trace, criterion)
        )

        debug_seconds, result = _best_of(
            repeats,
            lambda: debug_with(
                trace, generated.fixed_source, strategy="divide-and-query"
            ),
        )
        assert result.bug_unit == generated.buggy_unit

        rows.append(
            {
                "backend": backend,
                "depth": depth,
                "leaves": 2**depth,
                "tree_nodes": trace.tree.size(),
                "occurrences": len(trace.dependence_graph),
                "dep_edges": trace.dependence_graph.edge_count(),
                "slice_occurrences": len(sliced),
                "run_s": run_seconds,
                "trace_s": trace_seconds,
                "slice_s": slice_seconds,
                "debug_s": debug_seconds,
                "questions": result.user_questions,
            }
        )
    return rows


def measure_questions(depths=QUESTION_DEPTHS):
    """Questions-vs-depth, every strategy, leaf-bug call chains.

    The number of oracle questions is a *property of the strategy*, not
    of the machine, so the rows carry no timings and the asserts are
    exact: top-down pays one question per level (O(depth)) while
    dq-optimal keeps halving the suspect weight (~O(log n)) and must ask
    strictly fewer questions than top-down from depth 8 up.
    """
    from math import ceil, log2

    from repro.core.strategies import available_strategies

    rows = []
    for depth in depths:
        generated = generate_call_chain_program(CallChainSpec(depth=depth))
        trace = trace_source(generated.source)
        for strategy in available_strategies():
            result = debug_with(
                trace, generated.fixed_source, strategy=strategy
            )
            assert result.bug_unit == generated.buggy_unit, (
                f"{strategy} localized {result.bug_unit!r} at depth {depth}"
            )
            rows.append(
                {
                    "strategy": strategy,
                    "depth": depth,
                    "tree_nodes": trace.tree.size(),
                    "questions": result.user_questions,
                }
            )

    questions = {(row["strategy"], row["depth"]): row["questions"] for row in rows}
    for depth in depths:
        top_down = questions[("top-down", depth)]
        optimal = questions[("dq-optimal", depth)]
        assert top_down == depth, (
            f"top-down asked {top_down} questions on a depth-{depth} chain"
        )
        # dq-optimal never beyond ~2*log2(depth): the O(log n) claim
        assert optimal <= 2 * ceil(log2(depth)) + 1, (
            f"dq-optimal asked {optimal} questions at depth {depth}"
        )
        if depth >= 8:
            assert optimal < top_down, (
                f"dq-optimal must ask strictly fewer questions than "
                f"top-down at depth {depth}: {optimal} vs {top_down}"
            )
        assert questions[("dq-optimal", depth)] <= questions[
            ("divide-and-query", depth)
        ], f"dq-optimal asked more than divide-and-query at depth {depth}"
    return {"depths": list(depths), "series": rows}


def measure_mutants(workers=None, repeats=1):
    """Wall time of the Figure 4 mutation sweep (the MUT1 machine cost)."""
    from repro.workloads.mutants import (
        accuracy,
        evaluate_mutants,
        generate_mutants,
        summarize,
    )

    mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
    seconds, outcomes = _best_of(
        repeats,
        lambda: evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants, workers=workers),
    )
    correct, debuggable = accuracy(outcomes)
    return {
        "mutants": len(mutants),
        "workers": workers or 1,
        "seconds": seconds,
        "correct": correct,
        "debuggable": debuggable,
        "by_status": summarize(outcomes),
    }


def measure_fast_path(depth=6, repeats=3):
    """Cold vs warm un-traced execution: the null-hook fast path plus the
    analysis cache is what plain ``run_source`` pays for."""
    generated = generate_call_tree_program(CallTreeSpec(depth=depth))
    clear_caches()
    cold, _ = _best_of(1, lambda: run_source(generated.source))
    warm, _ = _best_of(repeats, lambda: run_source(generated.source))
    return {"depth": depth, "cold_s": cold, "warm_s": warm}


def measure_obs(depth=6):
    """One instrumented trace+debug: the obs metrics and the per-session
    answer-source accounting embedded into ``BENCH_perf.json``.

    Runs *after* the timed stages (observability stays off while wall
    times are measured) on the warm cross-PR comparison depth.
    """
    from repro import obs

    generated = generate_call_tree_program(CallTreeSpec(depth=depth))
    obs.reset()
    obs.enable()
    try:
        trace = trace_source(generated.source)
        result = debug_with(
            trace, generated.fixed_source, strategy="divide-and-query"
        )
        assert result.bug_unit == generated.buggy_unit
        return {
            "depth": depth,
            "metrics": obs.snapshot(),
            "session": result.report(),
        }
    finally:
        obs.disable()
        obs.reset()


def measure_profile(depth=6, top=5):
    """One hot-spot-profiled trace per backend (``hotspots/1``): where
    the generated call-tree program spends its steps and self-time."""
    from repro.obs.profiler import HotspotProfiler, hotspot_report
    from repro.core import GadtSystem

    generated = generate_call_tree_program(CallTreeSpec(depth=depth))
    reports = {}
    for backend in ("interp", "compiled"):
        profiler = HotspotProfiler()
        system = GadtSystem.from_source(
            generated.source, backend=backend, profiler=profiler
        )
        reports[backend] = hotspot_report(
            system.trace, profiler=profiler, top=top
        )
    return {"depth": depth, "reports": reports}


def _series_conformance(by_backend):
    """Assert backend-independent trace shape, then the speedup table."""
    counts = ("tree_nodes", "occurrences", "dep_edges", "questions")
    reference = by_backend[0]
    for series in by_backend[1:]:
        for expected, row in zip(reference, series):
            for key in counts:
                assert row[key] == expected[key], (
                    f"backend divergence at depth {row['depth']}: "
                    f"{key} {row[key]} != {expected[key]} "
                    f"({row['backend']} vs {expected['backend']})"
                )
    trace_by = {
        series[0]["backend"]: {row["depth"]: row["trace_s"] for row in series}
        for series in by_backend
    }
    if "interp" not in trace_by or "compiled" not in trace_by:
        return {}
    return {
        str(depth): round(trace_by["interp"][depth] / trace_by["compiled"][depth], 2)
        for depth in trace_by["interp"]
        if trace_by["compiled"].get(depth)
    }


def collect_perf_report(
    depths=DEPTHS, repeats=1, workers=None, backends=("interp", "compiled")
):
    """The full ``BENCH_perf.json`` payload (see benchmarks/run_perf.py)."""
    clear_caches()
    by_backend = [
        measure_series(depths=depths, repeats=repeats, backend=backend)
        for backend in backends
    ]
    speedup = _series_conformance(by_backend)
    series = [row for backend_rows in by_backend for row in backend_rows]
    report = {
        "schema": "bench_perf/5",
        "python": platform_mod.python_version(),
        "platform": platform_mod.platform(),
        "depths": list(depths),
        "repeats": repeats,
        "backends": list(backends),
        "series": series,
        "speedup_trace": speedup,
        "questions_curve": measure_questions(),
        "mutants": measure_mutants(workers=workers, repeats=repeats),
        "fast_path": measure_fast_path(),
        "obs": measure_obs(depth=min(6, max(depths))),
        "profile": measure_profile(depth=min(6, max(depths))),
        "cache": cache_stats(),
    }
    return report


def test_perf_scale(benchmark):
    rows = measure_series()

    print("\n[PERF1] wall-time scaling (divide-and-query debugging):")
    print(f"  {'leaves':>7} {'nodes':>6} {'occs':>6} "
          f"{'run(s)':>9} {'trace(s)':>9} {'slice(s)':>9} "
          f"{'debug(s)':>9} {'questions':>10}")
    for row in rows:
        print(
            f"  {row['leaves']:>7} {row['tree_nodes']:>6} "
            f"{row['occurrences']:>6} {row['run_s']:>9.4f} "
            f"{row['trace_s']:>9.4f} {row['slice_s']:>9.4f} "
            f"{row['debug_s']:>9.4f} {row['questions']:>10}"
        )
    print("[PERF1] tracing grows linearly with executed statements; "
          "divide-and-query questions grow ~logarithmically.")

    # questions sublinear in leaves
    assert rows[-1]["questions"] < rows[-1]["leaves"]

    generated = generate_call_tree_program(CallTreeSpec(depth=6))

    def run():
        trace = trace_source(generated.source)
        return debug_with(
            trace, generated.fixed_source, strategy="divide-and-query"
        )

    result = benchmark(run)
    assert result.bug_unit == generated.buggy_unit
    benchmark.extra_info["series"] = rows
