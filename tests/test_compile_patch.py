"""A mutant's compiled program is a patch of its host's.

An analysis patched from another (a mutant's) compiles by copying its
base's main closure and body table and compiling again only the
routines whose body node differs; call closures reach bodies through
the running program's table. These tests hold the patch to a fresh
compile of the same analysis on every mutant of the fixed hosts, in
both forms, and check that running mutants never writes to the host's
program, even when threads race on a stub the host lends them.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import cache
from repro.compile import compile_program
from repro.compile.compiler import compile_analysis
from repro.compile.emit import TraceSession
from repro.compile.runtime import Runtime
from repro.pascal import analyze_source
from repro.pascal.errors import PascalError
from repro.pascal.interpreter import Interpreter, PascalIO
from repro.pascal.pretty import print_program
from repro.transform.pipeline import transform_source
from repro.workloads import CallTreeSpec, generate_call_tree_program
from repro.workloads.mutants import generate_mutants
from tests.canonical_forms import trace_form
from tests.test_mutant_patch import HOSTS, STEP_LIMIT


def _outcome(action):
    try:
        return action(), None
    except PascalError as exc:  # the error itself must match too
        return None, (type(exc).__name__, str(exc))


def _trace(program):
    def run():
        session = TraceSession(program, io=PascalIO(), step_limit=STEP_LIMIT)
        return session.result(session.run())

    return _outcome(run)


def _run(program):
    def run():
        result = Runtime(program, step_limit=STEP_LIMIT).run()
        return result.output, result.steps

    return _outcome(run)


def _traced(transformed):
    return compile_program(transformed.analysis, traced=True)


def _snapshot(program) -> tuple:
    return (program.main, list(program.bodies))


def _assert_shares_unchanged_bodies(program, base) -> None:
    assert program.main is base.main
    routines = [info for info in program.analysis.routines.values() if not info.is_main]
    bases = [info for info in base.analysis.routines.values() if not info.is_main]
    for index, (info, base_info) in enumerate(zip(routines, bases)):
        shared = program.bodies[index] is base.bodies[index]
        assert shared == (info.block.body is base_info.block.body), info.name


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_every_mutant_compiles_as_a_patch_of_its_host(name):
    source = HOSTS[name]
    cache.clear_caches()
    mutants = generate_mutants(source)
    printed = print_program(analyze_source(source).program)
    host_transform = transform_source(printed)
    host_traced = _traced(host_transform)
    host_plain = compile_program(analyze_source(printed), traced=False)
    # The hosts run first, as in a sweep: their tables are then warm.
    _trace(host_traced)
    _run(host_plain)
    before = (_snapshot(host_traced), _snapshot(host_plain))
    patched = 0
    for mutant in mutants:
        transformed = transform_source(mutant.source)
        analysis = transformed.analysis
        program = _traced(transformed)
        if analysis.patched_from is not None:
            patched += 1
            assert analysis.patched_from is host_transform.analysis
            _assert_shares_unchanged_bodies(program, host_traced)
        fresh = compile_analysis(analysis, traced=True)
        trace_a, error_a = _trace(program)
        trace_b, error_b = _trace(fresh)
        assert error_a == error_b, mutant.description
        if trace_a is not None:
            assert trace_form(trace_a, analysis) == trace_form(trace_b, analysis), (
                mutant.description
            )

        original = analyze_source(mutant.source)
        assert original.patched_from is host_plain.analysis
        plain = compile_program(original, traced=False)
        _assert_shares_unchanged_bodies(plain, host_plain)
        interpreted = _outcome(
            lambda: (lambda r: (r.output, r.steps))(
                Interpreter(original, step_limit=STEP_LIMIT).run()
            )
        )
        assert _run(plain) == interpreted, mutant.description
    assert patched == 0 or patched > len(mutants) // 2
    assert (_snapshot(host_traced), _snapshot(host_plain)) == before


def test_patched_compiles_are_counted():
    from repro import obs

    cache.clear_caches()
    mutant = generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"])[0]
    obs.enable()
    try:
        compile_program(analyze_source(mutant.source), traced=False)
        counters = obs.snapshot(include_cache=False)["counters"]
    finally:
        obs.disable()
        obs.reset()
    # The host compiles whole, the mutant as its patch.
    assert counters["compile.programs"] == 2
    assert counters["compile.patched"] == 1


class TestRacingOnTheHostsStubs:
    THREADS = 8

    def test_threads_running_patches_of_one_fresh_host_trace_like_serial_runs(self):
        source = generate_call_tree_program(CallTreeSpec(depth=3)).source
        cache.clear_caches()
        mutants = generate_mutants(source)
        leaf = [mutant for mutant in mutants if mutant.unit.startswith("t_3_")]
        chosen = [leaf[0], leaf[-1]]
        transforms = [transform_source(mutant.source) for mutant in chosen]
        serial = [
            _trace(compile_analysis(t.analysis, traced=True))[0]
            for t in transforms
        ]

        # A fresh host program: every body it lends is still a stub.
        cache.register("compile").clear()
        programs = [_traced(t) for t in transforms]
        host = compile_program(transforms[0].analysis.patched_from, traced=True)
        before = _snapshot(host)
        barrier = threading.Barrier(self.THREADS)
        traces = [None] * self.THREADS
        errors = []

        def work(index):
            try:
                barrier.wait()
                traces[index] = _trace(programs[index % 2])[0]
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(self.THREADS)
        ]
        # Switch threads often, so first calls overlap.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for index, trace in enumerate(traces):
            analysis = transforms[index % 2].analysis
            assert trace_form(trace, analysis) == trace_form(serial[index % 2], analysis)
        assert _snapshot(host) == before
