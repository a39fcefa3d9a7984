"""Differential sweep over the adversarial goto corpus.

For every seed the checker verifies, on the program emitted by
:func:`repro.tgen.corpus.generate_program`:

1. **transform equivalence** — the transformed program produces the
   same output and the same final global values as the original;
2. **backend conformance** — every registered execution backend agrees
   with the interpreter (output and step count) on the *transformed*
   program, whose surviving gotos are the irreducible taxonomy cases;
3. **debug invariance** — with a deterministic single-fault mutation
   injected, every search strategy localizes the same unit, and
   ``dq-optimal`` asks no more questions than classic divide-and-query
   (Insa & Silva's optimality claim). The mutant's run, on an analysis
   patched from its host's, must also match a run on a parse of its
   text;
4. **blame** — debugged as a mutant sweep debugs it (the transformed
   mutant against ``ReferenceOracle.from_source`` of the printed host),
   every strategy blames the mutated unit or one of its loop units.

Run it directly for the full parallel sweep (crash-isolated via
``repro.resilience.pool``)::

    PYTHONPATH=src python benchmarks/run_corpus.py --count 1000 --workers 8

On failure the offending program and seed are written to
``--fail-dir`` so the exact text can be replayed and minimized (see
docs/CORPUS.md). ``tests/test_corpus_differential.py`` imports
:func:`check_seed` for the in-suite smoke version of the same checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from random import Random

from repro.compile import BACKENDS
from repro.core import AlgorithmicDebugger, GadtSystem, ReferenceOracle
from repro.core.strategies import available_strategies
from repro.pascal import Interpreter, analyze_source, print_program, run_source
from repro.resilience.pool import run_isolated
from repro.tgen.corpus import CorpusConfig, generate_program
from repro.tracing import trace_source
from repro.transform import transform_source
from repro.workloads.mutants import generate_mutants

#: cap on interpreter steps for one corpus program (generated programs
#: finish in far fewer; the cap catches termination bugs diagnosably)
STEP_LIMIT = 500_000

#: how many candidate mutants to probe before giving up on a seed's
#: debug-invariance check (most probes hit on the first try)
MUTANT_PROBES = 10


class CorpusCheckFailure(AssertionError):
    """One seed failed; carries the program text for artifact dumps."""

    def __init__(self, seed: int, stage: str, detail: str, source: str):
        super().__init__(f"seed {seed} [{stage}]: {detail}")
        self.seed = seed
        self.stage = stage
        self.detail = detail
        self.source = source


def _final_globals(result, names):
    return {name: result.global_value(name) for name in names}


def check_seed(
    seed: int,
    config: CorpusConfig | None = None,
    with_strategies: bool = True,
) -> dict:
    """Run all differential checks for one seed; returns sweep stats."""
    source = generate_program(seed, config)
    stats: dict = {"seed": seed}

    # 1. transform equivalence --------------------------------------
    original = run_source(source, step_limit=STEP_LIMIT)
    transformed = transform_source(source, cached=False)
    transformed_text = print_program(transformed.program)
    after = run_source(transformed_text, step_limit=STEP_LIMIT)
    if original.output != after.output:
        raise CorpusCheckFailure(
            seed,
            "transform",
            f"output diverged:\n--- original\n{original.output}"
            f"--- transformed\n{after.output}",
            source,
        )
    global_names = [
        decl.name
        for decl in analyze_source(source).program.block.variables
    ]
    before_state = _final_globals(original, global_names)
    after_state = _final_globals(after, global_names)
    if before_state != after_state:
        raise CorpusCheckFailure(
            seed,
            "transform",
            f"final globals diverged: {before_state} != {after_state}",
            source,
        )
    stats["goto_cases"] = transformed.goto_cases
    stats["goto_eliminated"] = transformed.goto_eliminated
    stats["warnings"] = len(transformed.warnings)

    # 2. backend conformance on the transformed program -------------
    for backend in sorted(BACKENDS):
        if backend == "interp":
            continue
        run = run_source(transformed_text, step_limit=STEP_LIMIT, backend=backend)
        if run.output != after.output or run.steps != after.steps:
            raise CorpusCheckFailure(
                seed,
                f"backend:{backend}",
                f"output/steps diverged from interpreter "
                f"({run.steps} vs {after.steps} steps)",
                transformed_text,
            )

    # 3. debug-outcome invariance under an injected fault ------------
    if with_strategies:
        stats["strategy"] = _check_strategies(seed, source, original.output)
    return stats


def _pick_mutant(seed: int, source: str, baseline: str):
    """A deterministic single-fault mutant that visibly misbehaves, and
    its run."""
    mutants = generate_mutants(source, include_constants=True)
    Random(seed).shuffle(mutants)
    for mutant in mutants[:MUTANT_PROBES]:
        try:
            run = run_source(mutant.source, step_limit=STEP_LIMIT)
        except Exception:
            continue  # crashing mutants are out of scope here
        if run.output != baseline:
            return mutant, run
    return None, None


def _check_strategies(seed: int, source: str, baseline: str) -> dict:
    mutant, run = _pick_mutant(seed, source, baseline)
    if mutant is None:
        return {"checked": False}
    # The mutant ran on an analysis patched from its host's; a parse of
    # its text is the independent reference.
    reference = Interpreter(
        analyze_source(mutant.source, cached=False), step_limit=STEP_LIMIT
    ).run()
    if (run.output, run.steps) != (reference.output, reference.steps):
        raise CorpusCheckFailure(
            seed,
            "patch",
            f"{mutant.description!r} ran {run.steps} steps on its patched "
            f"analysis, {reference.steps} on a parse of its text",
            mutant.source,
        )
    trace = trace_source(mutant.source, step_limit=STEP_LIMIT)
    oracle = ReferenceOracle(analyze_source(source))
    blamed: dict[str, str | None] = {}
    questions: dict[str, int] = {}
    for strategy in available_strategies():
        result = AlgorithmicDebugger(
            trace, oracle, strategy=strategy
        ).debug()
        blamed[strategy] = result.bug_unit
        questions[strategy] = result.user_questions
    if len(set(blamed.values())) != 1:
        raise CorpusCheckFailure(
            seed,
            "strategy",
            f"strategies disagree on {mutant.description!r}: {blamed}",
            mutant.source,
        )
    if questions["dq-optimal"] > questions["divide-and-query"]:
        raise CorpusCheckFailure(
            seed,
            "strategy",
            f"dq-optimal asked {questions['dq-optimal']} > "
            f"divide-and-query {questions['divide-and-query']} "
            f"on {mutant.description!r}",
            mutant.source,
        )
    # The mutant debugged as a mutant sweep debugs it: transformed,
    # against a reference oracle built from the printed host, so
    # routines that escape by a global goto answer through their exit
    # parameters. Each strategy must blame the mutated unit or one of
    # its loop units.
    system = GadtSystem.from_source(mutant.source, step_limit=STEP_LIMIT)
    host_oracle = ReferenceOracle.from_source(
        print_program(analyze_source(source).program), step_limit=STEP_LIMIT
    )
    wrong = {}
    for strategy in available_strategies():
        unit = system.debugger(host_oracle, strategy=strategy).debug().bug_unit
        if unit is None or (unit != mutant.unit and not unit.startswith(mutant.unit + "$")):
            wrong[strategy] = unit
    if wrong:
        raise CorpusCheckFailure(
            seed,
            "blame",
            f"{mutant.description!r} is in {mutant.unit}, blamed on {wrong}",
            mutant.source,
        )
    return {
        "checked": True,
        "mutant": mutant.description,
        "unit": blamed["top-down"],
        "questions": questions,
    }


# ----------------------------------------------------------------------
# parallel sweep


def _check_payload(payload, attempt: int) -> dict:
    seed, strategy_every = payload
    try:
        return check_seed(seed, with_strategies=seed % strategy_every == 0)
    except CorpusCheckFailure as failure:
        # TaskResult values must survive pickling; carry the artifact
        # fields, not the exception object.
        return {
            "seed": failure.seed,
            "failed": failure.stage,
            "detail": failure.detail,
            "source": failure.source,
        }


def _merge_counts(total: dict[str, int], extra: dict[str, int]) -> None:
    for key, value in extra.items():
        total[key] = total.get(key, 0) + value


def sweep(
    count: int,
    start: int = 0,
    workers: int = 1,
    strategy_every: int = 1,
    fail_dir: Path | None = None,
) -> dict:
    payloads = [(seed, strategy_every) for seed in range(start, start + count)]
    started = time.perf_counter()
    if workers > 1:
        results = run_isolated(
            _check_payload, payloads, workers=workers, timeout_s=300.0
        )
        values = [r.value if r.status == "ok" else {"seed": payloads[r.index][0], "failed": r.status, "detail": r.error or "", "source": ""} for r in results]
    else:
        values = [_check_payload(payload, 0) for payload in payloads]
    elapsed = time.perf_counter() - started

    failures = [v for v in values if v.get("failed")]
    cases: dict[str, int] = {}
    eliminated: dict[str, int] = {}
    questions_ok = 0
    strategy_checked = 0
    for value in values:
        if value.get("failed"):
            continue
        _merge_counts(cases, value.get("goto_cases", {}))
        _merge_counts(eliminated, value.get("goto_eliminated", {}))
        strategy = value.get("strategy")
        if strategy and strategy.get("checked"):
            strategy_checked += 1
            questions_ok += 1
    if fail_dir is not None and failures:
        fail_dir.mkdir(parents=True, exist_ok=True)
        for failure in failures:
            stem = fail_dir / f"seed_{failure['seed']}"
            stem.with_suffix(".pas").write_text(failure.get("source", ""))
            stem.with_suffix(".txt").write_text(
                f"stage: {failure['failed']}\n{failure.get('detail', '')}\n"
            )
    return {
        "count": count,
        "start": start,
        "elapsed_s": round(elapsed, 2),
        "failures": [
            {k: v for k, v in f.items() if k != "source"} for f in failures
        ],
        "goto_cases": cases,
        "goto_eliminated": eliminated,
        "strategy_checked": strategy_checked,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--strategy-every",
        type=int,
        default=1,
        metavar="N",
        help="run the 4-strategy debug check on every Nth seed (default all)",
    )
    parser.add_argument("--output", type=Path, default=Path("BENCH_corpus.json"))
    parser.add_argument(
        "--fail-dir",
        type=Path,
        default=Path("corpus_failures"),
        help="where offending programs are written on failure",
    )
    args = parser.parse_args(argv)

    report = sweep(
        count=args.count,
        start=args.start,
        workers=args.workers,
        strategy_every=args.strategy_every,
        fail_dir=args.fail_dir,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"corpus sweep: {report['count']} seeds in {report['elapsed_s']}s, "
        f"{len(report['failures'])} failure(s), "
        f"{report['strategy_checked']} strategy check(s)"
    )
    print(f"goto cases seen: {report['goto_cases']}")
    print(f"goto eliminated: {report['goto_eliminated']}")
    if report["failures"]:
        for failure in report["failures"]:
            print(f"  FAILED seed {failure['seed']}: {failure['failed']}")
        print(f"artifacts in {args.fail_dir}/")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
