"""Per-layer attribution for the benchmark's traced run.

The program under test is not modified. :class:`LayerTracer` times
calls into each layer's public functions from outside, by rebinding
the names every loaded ``repro`` (and ``perfbench``) module holds for
them, plus two methods on their classes. The oracle and the search
strategy are wrapped by proxy objects handed to the debugger.
:meth:`LayerTracer.restore` puts every original object back.

Self time is a wrapper's duration minus the duration of the wrappers
it encloses, so the self times of one request add up to the time spent
inside any layer. The rest of the request's wall time is reported as
``unattributed_s``. Wrappers pass straight through in forked pool
workers: only the parent side of a mutant sweep is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro.core import make_strategy

#: (module, function, layer, work count of one call's result)
FUNCTION_LAYERS = (
    ("repro.pascal.lexer", "tokenize", "pascal.lex", len),
    ("repro.pascal.parser", "parse_program", "pascal.parse", None),
    ("repro.pascal.semantics", "analyze", "pascal.analyze", None),
    ("repro.pascal.pretty", "print_program", "pascal.pretty", None),
    ("repro.pascal.interpreter", "run_source", "pascal.run", lambda r: r.steps),
    ("repro.analysis.sideeffects", "analyze_side_effects", "analysis.side_effects", None),
    ("repro.transform.goto_taxonomy", "classify_program", "transform.classify", None),
    ("repro.transform.goto_elimination", "reduce_structured_gotos", "transform.structured_gotos", None),
    ("repro.transform.goto_elimination", "eliminate_loop_gotos", "transform.loop_gotos", None),
    ("repro.transform.goto_elimination", "break_global_gotos", "transform.global_gotos", None),
    ("repro.transform.globals_to_params", "convert_globals_to_params", "transform.globals_to_params", None),
    ("repro.transform.loop_units", "compute_loop_units", "transform.loop_units", None),
    ("repro.transform.instrument", "instrument_program", "transform.instrument", None),
    ("repro.transform.pipeline", "transform_program", "transform.pipeline", None),
    ("repro.compile", "compile_program", "compile", None),
    ("repro.tracing.tracer", "trace_program", "tracing.trace", lambda r: r.tree.size()),
    ("repro.core.presentation", "present_tree", "core.present", None),
    ("repro.slicing.tree_pruning", "prune_tree", "slicing.prune", None),
    ("repro.workloads.mutants", "generate_mutants", "mutants.generate", len),
    ("repro.workloads.mutants", "evaluate_mutants", "mutants.evaluate", None),
)

#: (module, class, method, layer)
METHOD_LAYERS = (
    ("repro.core.algorithmic", "AlgorithmicDebugger", "debug", "core.debug"),
    ("repro.core.oracle", "ReferenceOracle", "from_source", "core.oracle.build"),
)

#: layers reached through the proxies below
ORACLE_LAYER = "core.oracle.answer"
STRATEGY_LAYER = "core.strategy"


def _scanned(module_name: str) -> bool:
    return module_name.split(".", 1)[0] in ("repro", "perfbench")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    #: summed work count (tokens, steps, nodes, mutants)
    work: int = 0


class LayerTracer:
    """Collects per-layer calls, self time and work counts."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.stats: dict[str, LayerStats] = {}
        #: inclusive time of outermost wrappers since :meth:`begin`
        self.attributed_s = 0.0
        self._stack: list[float] = []
        self._pending: list[tuple[LayerStats, object, object]] = []
        self._functions = []  # (original, wrapper)
        for module_name, attr, layer, work in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            self._functions.append((original, self.timed(layer, original, work)))
        self._methods = []  # (class, attribute, original, replacement)
        for module_name, class_name, attr, layer in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.timed(layer, original.__func__))
            else:
                replacement = self.timed(layer, original)
            self._methods.append((cls, attr, original, replacement))

    def layer(self, name: str) -> LayerStats:
        return self.stats.setdefault(name, LayerStats())

    def timed(self, layer: str, fn, work=None):
        """``fn`` wrapped to account its calls to ``layer``."""
        stats = self.layer(layer)
        stack = self._stack
        pending = self._pending
        pid = self.pid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stats.calls += 1
                stats.self_s += elapsed - stack.pop()
                stats.inclusive_s += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    self.attributed_s += elapsed
            if work is not None:
                # counted by settle(), outside the request's wall time
                pending.append((stats, work, result))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # per request

    def reset(self) -> None:
        """Zero every layer's figures (wrappers keep their references)."""
        for stats in self.stats.values():
            stats.calls = stats.work = 0
            stats.self_s = stats.inclusive_s = 0.0
        self._pending.clear()

    def begin(self) -> None:
        self.attributed_s = 0.0

    def settle(self) -> None:
        """Count the work of the calls made since the last settle."""
        for stats, work, result in self._pending:
            stats.work += work(result)
        self._pending.clear()

    # ------------------------------------------------------------------
    # installation

    @staticmethod
    def _rebind(swaps: dict[int, tuple[object, object]]) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not _scanned(name):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    namespace[key] = swap[1]

    def install(self) -> None:
        self._rebind({id(orig): (orig, wrap) for orig, wrap in self._functions})
        for cls, attr, _original, replacement in self._methods:
            setattr(cls, attr, replacement)

    def restore(self) -> None:
        self._rebind({id(wrap): (wrap, orig) for orig, wrap in self._functions})
        for cls, attr, original, _replacement in self._methods:
            setattr(cls, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


# ----------------------------------------------------------------------
# proxies handed to the debugger


class SessionOracle:
    """Oracle proxy: notes when the session first asked the user and,
    under a tracer, times every answer."""

    def __init__(self, oracle, tracer: LayerTracer | None = None):
        self._oracle = oracle
        self.first_call: float | None = None
        self._answer = (
            oracle.answer if tracer is None else tracer.timed(ORACLE_LAYER, oracle.answer)
        )

    def answer(self, query):
        if self.first_call is None:
            self.first_call = perf_counter()
        return self._answer(query)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class TimedStrategy:
    """Strategy proxy timing each ``next_query`` decision."""

    def __init__(self, strategy, tracer: LayerTracer):
        self._strategy = strategy
        self.next_query = tracer.timed(STRATEGY_LAYER, strategy.next_query)

    def __getattr__(self, name):
        return getattr(self._strategy, name)


def session_strategy(name: str, tracer: LayerTracer | None):
    """What to pass the debugger as ``strategy``: the plain name when
    untraced, a timing proxy otherwise."""
    return name if tracer is None else TimedStrategy(make_strategy(name), tracer)
