"""The default trace engine, the one-form lazy compiler, and its bounds.

Traces run on the compiled engine unless a caller or ``REPRO_BACKEND``
says otherwise, while ``run_source`` keeps the interpreter as its
default. The compiler builds only the form a caller runs and compiles
each routine body on its first call; these tests pin both, the size of
the compile cache, and that concurrent first calls on one shared
program produce the same traces as serial ones.
"""

from __future__ import annotations

import sys
import time
import threading

import pytest

from repro import cache, obs
from repro.compile import compile_program
from repro.compile import compiler as compiler_module
from repro.pascal import analyze_source, run_source
from repro.tracing import trace_program, trace_source
from repro.workloads import CallTreeSpec, generate_call_tree_program
from tests.test_backend_conformance import assert_traces_equal

SOURCE = """\
program lazy;
var total, i: integer;
procedure unused(var x: integer);
begin x := x * 100 end;
function double(x: integer): integer;
begin double := x * 2 end;
begin
  total := 0;
  for i := 1 to 3 do total := total + double(i);
  writeln(total)
end.
"""


@pytest.fixture(autouse=True)
def _clean():
    cache.clear_caches()
    yield
    obs.disable()
    obs.reset()
    cache.clear_caches()


class _SpyRunCompiled:
    def __init__(self, monkeypatch):
        import repro.compile

        self.calls = 0
        original = repro.compile.run_compiled

        def spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.compile, "run_compiled", spy)


class TestDefaults:
    def test_traces_compile_and_plain_runs_interpret(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        spy = _SpyRunCompiled(monkeypatch)
        assert trace_source(SOURCE).backend == "compiled"
        assert run_source(SOURCE).output == "12\n"
        assert spy.calls == 0

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_environment_overrides_both(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        spy = _SpyRunCompiled(monkeypatch)
        assert trace_source(SOURCE).backend == backend
        assert run_source(SOURCE).output == "12\n"
        assert spy.calls == (1 if backend == "compiled" else 0)

    def test_explicit_backend_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert trace_source(SOURCE, backend="interp").backend == "interp"


class TestOneFormLazily:
    @pytest.fixture()
    def compilers(self, monkeypatch):
        """The ``traced`` flag of every :class:`Compiler` built."""
        built = []
        original = compiler_module.Compiler.__init__

        def spy(self, analysis, traced):
            built.append(traced)
            original(self, analysis, traced)

        monkeypatch.setattr(compiler_module.Compiler, "__init__", spy)
        return built

    @pytest.mark.parametrize("traced", [True, False])
    def test_compile_program_builds_only_the_requested_form(self, compilers, traced):
        analysis = analyze_source(SOURCE, cached=False)
        compile_program(analysis, traced=traced)
        assert compilers == [traced]
        # Only the traced form needs the side-effect analysis, which the
        # analysis computes on its first read.
        assert ("side_effects" in vars(analysis)) is traced

    def test_forms_are_cached_apart(self, compilers):
        analysis = analyze_source(SOURCE)
        traced = compile_program(analysis, traced=True)
        plain = compile_program(analysis, traced=False)
        assert traced is not plain
        assert compile_program(analysis, traced=True) is traced
        assert compile_program(analysis, traced=False) is plain
        assert compilers == [True, False]

    def test_uncalled_routine_is_never_compiled(self):
        obs.enable()
        trace = trace_source(SOURCE, backend="compiled")
        run_source(SOURCE, backend="compiled")
        assert trace.execution.output == "12\n"
        compiled = [
            event["routine"]
            for event in obs.events()
            if event["kind"] == "span" and event["name"] == "compile.routine"
        ]
        # ``double`` once per form; ``unused`` in neither.
        assert compiled == ["double", "double"]
        assert obs.snapshot(include_cache=False)["counters"]["compile.routines"] == 2

    def test_compile_cache_stays_bounded(self):
        compile_cache = cache.register("compile")
        for index in range(100):
            source = SOURCE.replace("x * 2", f"x * 2 + {index}")
            trace_source(source, backend="compiled")
        assert len(compile_cache) <= 8


class TestConcurrentFirstCalls:
    THREADS = 8

    def test_threads_sharing_one_program_trace_like_serial_runs(self):
        generated = generate_call_tree_program(CallTreeSpec(depth=4))
        analysis = analyze_source(generated.source)
        serial = trace_program(analysis, backend="compiled")

        # A fresh cached program: every routine body is still a stub.
        cache.register("compile").clear()
        shared = compile_program(analysis, traced=True)
        obs.enable()
        barrier = threading.Barrier(self.THREADS)
        traces = [None] * self.THREADS
        errors = []

        def work(index):
            try:
                barrier.wait()
                traces[index] = trace_program(analysis, backend="compiled")
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(self.THREADS)
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
        assert compile_program(analysis, traced=True) is shared
        for trace in traces:
            assert_traces_equal(serial, trace)


def test_hotspot_self_time_leaves_out_first_call_compiles(monkeypatch):
    from repro.obs.profiler import HotspotProfiler

    original = compiler_module.Compiler.compile_stmt
    compiled_bodies = []

    def slow_compile(self, ctx, stmt):
        if ctx.owner is not None and ctx.info.block.body is stmt:
            compiled_bodies.append(ctx.info.name)
            time.sleep(0.2)
        return original(self, ctx, stmt)

    monkeypatch.setattr(compiler_module.Compiler, "compile_stmt", slow_compile)
    profiler = HotspotProfiler()
    trace_source(SOURCE, backend="compiled", profiler=profiler)
    assert compiled_bodies == ["double"]
    assert profiler.activations["double"] == 3
    assert profiler.self_s["double"] < 0.1
