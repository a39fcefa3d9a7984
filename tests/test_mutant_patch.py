"""Differential tests for mutant analyses built as patches.

:func:`~repro.workloads.mutants.generate_mutants` registers, for every
mutant, an :class:`~repro.pascal.semantics.AnalysisPatch` that builds
the mutant's analysis from its printed host's, with no lex, parse or
analysis. A patched analysis must equal a parse of the mutant's text
(``analyze_source(text, cached=False)``) once node ids are renumbered
in pre-order: the tree, every node's location, every side table and
every ``RoutineInfo`` field. Runs and traces of the two must agree on
both backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import cache
from repro.compile import run_compiled
from repro.pascal import PascalError, run_source
from repro.pascal.interpreter import Interpreter
from repro.pascal.pretty import print_program
from repro.pascal.semantics import _PATCHES, analyze_source, registered_patch
from repro.tgen.corpus import generate_program
from repro.tracing.tracer import trace_program
from repro.workloads import paper_programs
from repro.workloads.ledger import ledger_program
from repro.workloads.mutants import generate_mutants
from tests.canonical_forms import canonical, trace_form

CORPUS_DIR = Path(__file__).parent / "corpus"

#: the paper's programs, the ledger (fixed and buggy) and the hand-made
#: corpus files: every mutant is run and traced as well
HOSTS = {
    **{
        name: getattr(paper_programs, name)
        for name in dir(paper_programs)
        if name.endswith("_SOURCE")
    },
    "ledger": ledger_program().fixed_source,
    "ledger_buggy": ledger_program().source,
    **{path.stem: path.read_text() for path in sorted(CORPUS_DIR.glob("*.pas"))},
}

CORPUS_SEEDS = range(200)

STEP_LIMIT = 20_000


# ----------------------------------------------------------------------


def patched(mutant):
    """The mutant's analysis built from its registered recipe."""
    recipe = registered_patch(mutant.source)
    assert recipe is not None, mutant.description
    return recipe.build()


def assert_patch_matches_parse(mutant) -> tuple:
    built = patched(mutant)
    fresh = analyze_source(mutant.source, cached=False)
    assert canonical(built) == canonical(fresh), mutant.description
    return built, fresh


# ----------------------------------------------------------------------
# runs and traces


def _run(analysis, backend):
    if backend == "compiled":
        return run_compiled(analysis, step_limit=STEP_LIMIT)
    return Interpreter(analysis, step_limit=STEP_LIMIT).run()


def _outcome(action):
    try:
        return action(), None
    except Exception as exc:  # the error itself must match too
        return None, (type(exc).__name__, str(exc))


def assert_runs_and_traces_match(built, fresh) -> None:
    for backend in ("interp", "compiled"):
        run_a, error_a = _outcome(lambda: _run(built, backend))
        run_b, error_b = _outcome(lambda: _run(fresh, backend))
        assert error_a == error_b
        if run_a is not None:
            assert (run_a.output, run_a.steps) == (run_b.output, run_b.steps)
        trace_a, error_a = _outcome(
            lambda: trace_program(built, step_limit=STEP_LIMIT, backend=backend)
        )
        trace_b, error_b = _outcome(
            lambda: trace_program(fresh, step_limit=STEP_LIMIT, backend=backend)
        )
        assert error_a == error_b
        if trace_a is not None:
            assert trace_form(trace_a, built) == trace_form(trace_b, fresh)


# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_every_mutant_of_the_fixed_hosts(name):
    for mutant in generate_mutants(HOSTS[name]):
        assert_runs_and_traces_match(*assert_patch_matches_parse(mutant))


#: Corpus seeds have about 58 mutants each, and the reference parse of
#: each costs about as much as the whole check of the fixed hosts. So
#: every seed checks the analyses of a slice of its mutants, rotated by
#: the seed, and every fourth seed runs and traces the slice's first.
CORPUS_STRIDE = 24


@pytest.mark.parametrize("first", range(0, len(CORPUS_SEEDS), 50))
def test_corpus_mutants(first):
    checked = 0
    for seed in CORPUS_SEEDS[first : first + 50]:
        mutants = generate_mutants(generate_program(seed), include_constants=True)
        sample = mutants[seed % CORPUS_STRIDE :: CORPUS_STRIDE]
        for index, mutant in enumerate(sample):
            built, fresh = assert_patch_matches_parse(mutant)
            if index == 0 and seed % 4 == 0:
                assert_runs_and_traces_match(built, fresh)
            checked += 1
    assert checked >= 80


class TestServedByAnalyzeSource:
    def test_mutant_text_is_served_by_its_patch(self):
        cache.clear_caches()  # no analysis of a mutant text parsed earlier
        source = paper_programs.FIGURE4_FIXED_SOURCE
        mutants = generate_mutants(source)
        base = analyze_source(print_program(analyze_source(source).program))
        for mutant in mutants:
            analysis = analyze_source(mutant.source)
            assert analysis is analyze_source(mutant.source)  # then cached
            # shared side tables: built from the base, not parsed
            assert analysis.expr_type is base.expr_type
            assert analysis.program is not base.program

    def test_uncached_analysis_always_parses(self):
        mutant = generate_mutants(paper_programs.FIGURE4_FIXED_SOURCE)[0]
        base = analyze_source(print_program(analyze_source(mutant.source).program))
        assert analyze_source(mutant.source, cached=False).expr_type is not base.expr_type

    def test_disabled_caches_parse(self):
        mutant = generate_mutants(paper_programs.SECTION3_FIXED_SOURCE)[0]
        shared = analyze_source(mutant.source).expr_type
        cache.set_enabled(False)
        try:
            assert analyze_source(mutant.source).expr_type is not shared
        finally:
            cache.set_enabled(True)

    def test_a_lost_recipe_costs_a_parse(self):
        source = generate_program(3)
        mutant = generate_mutants(source)[5]
        expected = canonical(analyze_source(mutant.source, cached=False))
        cache.clear_caches()  # drops the analyses and the recipes
        assert canonical(analyze_source(mutant.source)) == expected

    def test_patches_are_counted(self):
        cache.clear_caches()
        mutants = generate_mutants(paper_programs.FIGURE4_FIXED_SOURCE)
        hits = _PATCHES.hits
        for mutant in mutants:
            analyze_source(mutant.source)
        assert _PATCHES.hits - hits == len(mutants)
        assert cache.cache_stats()["patch"]["entries"] >= len(mutants)


class TestConcurrency:
    def test_threads_generating_and_running_mutants_match_serial(self):
        hosts = [generate_program(seed) for seed in range(20, 28)]

        def sweep(source):
            results = []
            for mutant in generate_mutants(source)[:8]:
                try:
                    run = run_source(mutant.source, step_limit=STEP_LIMIT)
                    results.append((mutant.source, run.output, run.steps))
                except PascalError as exc:
                    results.append((mutant.source, str(exc)))
            return results

        serial = [sweep(source) for source in hosts]
        cache.clear_caches()  # so the threads build every patch again
        hits = _PATCHES.hits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=len(hosts)) as pool:
                concurrent = list(pool.map(sweep, hosts))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert _PATCHES.hits > hits

    SPAWN_SCRIPT = textwrap.dedent(
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor


        def patched_analyses(text):
            from repro.cache import cache_stats
            from repro.pascal import analyze_source

            hits = cache_stats()["patch"]["hits"]
            analyze_source(text)
            return cache_stats()["patch"]["hits"] - hits


        def worker_backend():
            from repro.workloads.mutants import _WORKER_STATE

            return _WORKER_STATE[-1]


        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            from repro.workloads import FIGURE4_FIXED_SOURCE as source
            from repro.workloads.mutants import (
                _init_mutant_worker, evaluate_mutants, generate_mutants,
            )

            mutants = generate_mutants(source)
            assert evaluate_mutants(source, mutants, workers=2) == evaluate_mutants(
                source, mutants
            )
            with ProcessPoolExecutor(
                1, initializer=_init_mutant_worker,
                initargs=(source, "top-down", True, 500_000),
            ) as pool:
                print(pool.submit(patched_analyses, mutants[0].source).result())
            # The backend reaches spawned workers as an initializer argument.
            assert evaluate_mutants(
                source, mutants, workers=2, backend="interp"
            ) == evaluate_mutants(source, mutants, backend="interp")
            with ProcessPoolExecutor(
                1, initializer=_init_mutant_worker,
                initargs=(source, "top-down", True, 500_000, None, False, None, "interp"),
            ) as pool:
                print(pool.submit(worker_backend).result())
        """
    )

    def test_spawned_workers_register_their_own_recipes(self, tmp_path):
        script = tmp_path / "spawned_sweep.py"
        script.write_text(self.SPAWN_SCRIPT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        env.pop("REPRO_BACKEND", None)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "interp"]
