"""``repro.compile`` — the compiled execution backend.

Compiles a mini-Pascal :class:`~repro.pascal.semantics.AnalyzedProgram`
into Python closures, then runs the closures with trace events emitted
inline (see :mod:`repro.compile.compiler` and :mod:`repro.compile.emit`).
It is the engine every trace runs on by default. Plain (untraced) runs
stay on the tree-walking interpreter by default: it is the reference
the conformance checks compare the compiled engine against, and a
one-shot run of a short program costs less to interpret than to
compile. Both engines sit behind ``run_source(..., backend=...)`` /
``trace_source(..., backend=...)`` and the CLI's ``--backend`` flag,
which the CLI passes on as that argument. The ``REPRO_BACKEND``
environment variable, when set, is the process default for plain runs
and traces alike; :func:`default_backend` is the one place that reads
it, and nothing in the program writes it.

A program is compiled in the one form its caller runs (plain or
traced), and each routine body only on its first call, so a trace pays
for the code it executes. Compiled programs are cached in
:mod:`repro.cache` (cache name ``"compile"``) by analysis identity and
form: a transformed analysis carries its own side effects and loop
units, so nothing else shapes the code. Re-tracing one program (serve,
replay) thus skips compilation. The cache is small: almost every sweep
trace is of new text.

An analysis patched from another (a mutant's, see
:func:`~repro.pascal.semantics.patched_analysis`) compiles as a patch
of its base's program in the same form: it shares the base's main and
every compiled routine body except those whose body node differs
(counted in ``compile.patched``). A sweep's mutants thus compile only
their faulty statement and its ancestors, against the host program
their sweep already ran.
"""

from __future__ import annotations

import os

from repro import cache, obs

BACKENDS = ("interp", "compiled")
ENV_VAR = "REPRO_BACKEND"

#: Enough to re-trace one program (serve, replay) without recompiling;
#: sweep traces are almost all of new text and would only pile up here.
_COMPILE_CACHE = cache.register("compile", max_entries=8)


def default_backend(traced: bool = True) -> str:
    """The default engine: ``REPRO_BACKEND`` if set, else ``compiled``
    for traces and ``interp`` for plain runs."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return "compiled" if traced else "interp"
    backend = raw.strip().lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"invalid {ENV_VAR}={raw!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend


def resolve_backend(backend: str | None, traced: bool = True) -> str:
    """Validate an explicit backend choice, or fall back to the default
    for a trace (``traced``) or a plain run."""
    if backend is None:
        return default_backend(traced)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend


def compile_program(analysis, *, traced: bool):
    """The :class:`~repro.compile.compiler.CompiledProgram` for an
    analyzed program in one form (``traced`` or plain), served from the
    compile cache while the same analysis and form are re-run. Routine
    bodies compile on their first call. A patched analysis compiles as
    a patch of its base's program (itself served from the cache),
    sharing every body it shares."""
    from repro.compile.compiler import compile_analysis

    key = (id(analysis), traced)
    hits_before = _COMPILE_CACHE.hits

    def build():
        origin = analysis.patched_from
        base = None if origin is None else compile_program(origin, traced=traced)
        with obs.span("compile.time", program=analysis.program.name):
            program = compile_analysis(analysis, traced=traced, base=base)
        obs.add("compile.programs")
        if base is not None:
            obs.add("compile.patched")
        return program

    program = _COMPILE_CACHE.get_or_build(key, build)
    if _COMPILE_CACHE.hits > hits_before:
        obs.add("compile.cache_hits")
    return program


def run_compiled(
    analysis, io=None, step_limit: int = 2_000_000, budget=None
):
    """Plain (untraced) compiled execution; the compiled counterpart of
    ``Interpreter(...).run()``."""
    from repro.compile.runtime import Runtime

    program = compile_program(analysis, traced=False)
    return Runtime(program, io=io, step_limit=step_limit, budget=budget).run()


def compiled_trace_session(
    analysis,
    inputs=None,
    step_limit: int = 2_000_000,
    budget=None,
    max_tree_nodes: int | None = None,
    profiler=None,
):
    """A ready-to-run :class:`~repro.compile.emit.TraceSession` — the
    compiled counterpart of a ``(Tracer, Interpreter)`` pair."""
    from repro.compile.emit import TraceSession
    from repro.pascal.interpreter import PascalIO

    program = compile_program(analysis, traced=True)
    return TraceSession(
        program,
        io=PascalIO(inputs),
        step_limit=step_limit,
        budget=budget,
        max_tree_nodes=max_tree_nodes,
        profiler=profiler,
    )
