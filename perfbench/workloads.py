"""The benchmark's three closed-loop, single-client workloads.

Each workload turns ``--seed`` into a stream of request inputs whose
source texts are distinct within a run (so the content caches in
``repro.cache`` see new programs, as they do for a user), runs one
request at a time through the public pipeline, and checks every result
against a reference that does not come from the code under test.

* ``corpus-diff`` — one ``repro.tgen.corpus`` program through the
  differential checks of ``benchmarks/run_corpus.py``: transformed vs
  original output and final globals, interpreter vs compiled backend on
  the transformed text, then a behaviour-changing mutant debugged by all
  four strategies with a ``ReferenceOracle`` (they must agree, and
  ``dq-optimal`` may ask no more than classic divide-and-query). The
  program's first question comes after its checks and the mutant pick,
  so it is timed from the request's start.
* ``deep-debug`` — one GADT session (``GadtSystem.from_source`` plus a
  slicing debugger, alternating ``top-down`` and ``dq-optimal``) on a
  chain of at least 12 nested calls inside a loop of a few hundred
  iterations, with one planted fault at a seeded depth. The blamed unit
  must be the planted one, and the program's output must equal the value
  computed here in plain Python.
* ``mutant-sweep`` — one host program's full mutation sweep
  (``generate_mutants`` then ``evaluate_mutants`` on two pool workers):
  the paper's Figure 4 and Section 3 programs and the ledger, then
  corpus programs. No outcome may be ``timed_out`` or ``infra_error``;
  debuggable mutants blamed elsewhere are listed as misses. The parent
  then opens the first debuggable mutant in a top-down session, the
  user's first look at a sweep verdict (worker sessions are not visible
  to the parent).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import count
from random import Random
from time import perf_counter
from typing import Iterator

from repro.compile import BACKENDS
from repro.core import AlgorithmicDebugger, GadtSystem, ReferenceOracle
from repro.core.strategies import available_strategies
from repro.pascal import PascalError, analyze_source, print_program, run_source
from repro.tgen.corpus import generate_program
from repro.tracing import trace_source
from repro.transform import transform_source
from repro.workloads.ledger import ledger_program
from repro.workloads.mutants import evaluate_mutants, generate_mutants
from repro.workloads.paper_programs import FIGURE4_FIXED_SOURCE, SECTION3_FIXED_SOURCE

from perfbench.layers import LayerTracer, SessionOracle, session_strategy

#: interpreter step cap per program (as in benchmarks/run_corpus.py)
STEP_LIMIT = 500_000
#: candidate mutants probed for a behaviour-changing one (run_corpus.py)
MUTANT_PROBES = 10
#: mutant-sweep pool size, one worker per core of the reference machine
SWEEP_WORKERS = 2
#: per-mutant wall-clock budget in a sweep
MUTANT_DEADLINE_S = 30.0
#: per-mutant step cap in a sweep: far above any host's own run (at most
#: a few hundred steps), so only runaway mutants reach it, and they do
#: so in milliseconds rather than the second the default cap takes
SWEEP_STEP_LIMIT = 20_000
#: Every run measures whole cycles of a fixed mix of programs, each
#: cycle in a seed-shuffled order. Corpus programs drawn afresh per seed
#: differ in cost by half their median, which would swamp any change
#: smaller than that. The seed names every program (so its text is new
#: to the caches, also when a later cycle repeats its structure), orders
#: each cycle and places deep-debug's faults.
CORPUS_DIFF_POOL = tuple(range(1_000, 1_016))
MUTANT_SWEEP_POOL = tuple(range(1_016, 1_028))
#: corpus structure of the warm-up request, outside both pools
WARM_UP_STRUCTURE = 999


@dataclass
class Outcome:
    """What one request produced, for the checks and the metrics."""

    #: failed checks; a request with any is a failed request
    problems: list[str] = field(default_factory=list)
    #: user questions of every debug session
    questions: list[int] = field(default_factory=list)
    #: per session, seconds from source submitted to the first oracle call
    first_questions: list[float] = field(default_factory=list)
    debuggable: int = 0
    localized: int = 0
    #: debuggable bugs not blamed on their planted or mutated routine
    misses: list[str] = field(default_factory=list)
    #: activations removed by slices, and the traces the sessions searched
    slice_pruned: int = 0
    session_traces: list = field(default_factory=list)
    #: mutant sweep: generated / behaviour-changing mutants, pool figures
    generated: int = 0
    changing: int = 0
    pool_idle_s: float = 0.0


def _blames(blamed: str | None, unit: str) -> bool:
    """The blamed unit is ``unit`` or a loop unit inside it."""
    return blamed is not None and (blamed == unit or blamed.startswith(unit + "$"))


def renamed(source: str, tag: str) -> str:
    """``source`` with ``tag`` appended to its program name."""
    return re.sub(r"program (\w+);", lambda m: f"program {m.group(1)}{tag};", source, count=1)


def _tag(seed: int, cycle: int, position: int) -> str:
    return f"s{seed}c{cycle}p{position}".replace("-", "m")


# ----------------------------------------------------------------------
# corpus-diff


@dataclass(frozen=True)
class CorpusInput:
    #: the corpus seed the program was generated from
    structure: int
    source: str


class CorpusDiff:
    name = "corpus-diff"
    cycle = len(CORPUS_DIFF_POOL)

    def __init__(self, seed: int):
        self.seed = seed

    def _input(self, structure: int, tag: str) -> CorpusInput:
        return CorpusInput(structure, renamed(generate_program(structure), tag))

    def inputs(self) -> Iterator[CorpusInput]:
        for cycle in count():
            order = list(CORPUS_DIFF_POOL)
            Random(_tag(self.seed, cycle, 0)).shuffle(order)
            for position, structure in enumerate(order):
                yield self._input(structure, _tag(self.seed, cycle, position))

    def warm_up_input(self) -> CorpusInput:
        return self._input(WARM_UP_STRUCTURE, _tag(self.seed, -1, 0))

    def run(self, item: CorpusInput, tracer: LayerTracer | None) -> Outcome:
        submitted = perf_counter()
        outcome = Outcome()
        source = item.source
        original = run_source(source, step_limit=STEP_LIMIT)
        transformed = transform_source(source)
        transformed_text = print_program(transformed.program)
        after = run_source(transformed_text, step_limit=STEP_LIMIT)
        if original.output != after.output:
            outcome.problems.append("transform: output diverged")
        names = [decl.name for decl in analyze_source(source).program.block.variables]
        before_state = {name: original.global_value(name) for name in names}
        after_state = {name: after.global_value(name) for name in names}
        if before_state != after_state:
            outcome.problems.append(f"transform: final globals {before_state} != {after_state}")
        for backend in sorted(BACKENDS):
            if backend == "interp":
                continue
            run = run_source(transformed_text, step_limit=STEP_LIMIT, backend=backend)
            if run.output != after.output or run.steps != after.steps:
                outcome.problems.append(f"backend {backend}: output/steps diverged")

        mutant = self._pick_mutant(item, original.output)
        if mutant is not None:
            self._debug_mutant(source, mutant, tracer, outcome)
            outcome.first_questions = [first - submitted for first in outcome.first_questions]
        return outcome

    @staticmethod
    def _pick_mutant(item: CorpusInput, baseline: str):
        mutants = generate_mutants(item.source, include_constants=True)
        Random(item.structure).shuffle(mutants)
        for mutant in mutants[:MUTANT_PROBES]:
            try:
                output = run_source(mutant.source, step_limit=STEP_LIMIT).output
            except PascalError:
                continue  # crashing mutants are out of scope, as in run_corpus
            if output != baseline:
                return mutant
        return None

    @staticmethod
    def _debug_mutant(source, mutant, tracer, outcome: Outcome) -> None:
        """Debug ``mutant`` with every strategy; records the first
        question's clock time (the caller makes it relative to the
        program's submission)."""
        trace = trace_source(mutant.source, step_limit=STEP_LIMIT)
        reference = ReferenceOracle(analyze_source(source))
        blamed: dict[str, str | None] = {}
        questions: dict[str, int] = {}
        for strategy in available_strategies():
            oracle = SessionOracle(reference, tracer)
            result = AlgorithmicDebugger(
                trace, oracle, strategy=session_strategy(strategy, tracer)
            ).debug()
            if not outcome.first_questions and oracle.first_call is not None:
                outcome.first_questions.append(oracle.first_call)
            blamed[strategy] = result.bug_unit
            questions[strategy] = result.user_questions
            outcome.questions.append(result.user_questions)
            outcome.slice_pruned += result.slice_pruned
            outcome.session_traces.append(trace)
        if len(set(blamed.values())) != 1:
            outcome.problems.append(f"strategies disagree on {mutant.description!r}: {blamed}")
        if questions["dq-optimal"] > questions["divide-and-query"]:
            outcome.problems.append(
                f"dq-optimal asked {questions['dq-optimal']} > "
                f"divide-and-query {questions['divide-and-query']}"
            )
        outcome.debuggable = 1
        unit = blamed["top-down"]
        if _blames(unit, mutant.unit):
            outcome.localized = 1
        else:
            outcome.misses.append(f"{mutant.description}: blamed {unit}")


# ----------------------------------------------------------------------
# deep-debug


@dataclass(frozen=True)
class DeepShape:
    """A loop calling a chain ``f1 -> f2 -> ... -> f<depth>`` on every
    ``stride``-th of ``iterations`` iterations.

    Each ``f<k>(x; var r, s)`` calls ``f<k+1>(x + steps[k])`` and returns
    ``r`` = its ``r`` plus ``offsets[k]`` and ``s`` = its ``s`` plus
    ``h(x)``, all mod 9973; the deepest level computes ``r`` and ``s``
    from ``x`` alone. The ``h`` calls never reach ``r``, so a slice on a
    wrong ``r`` prunes them. A fault adds ``delta`` to one level's
    ``r`` offset.
    """

    name: str
    depth: int
    iterations: int
    stride: int
    scale: int
    steps: tuple[int, ...]
    offsets: tuple[int, ...]

    @classmethod
    def build(cls, index: int, depth: int, iterations: int, stride: int) -> "DeepShape":
        rng = Random(f"deep-shape-{index}")
        return cls(
            name=f"deep{index}",
            depth=depth,
            iterations=iterations,
            stride=stride,
            scale=rng.randint(2, 7),
            steps=tuple(rng.randint(1, 9) for _ in range(depth)),
            offsets=tuple(rng.randint(1, 99) for _ in range(depth)),
        )

    def _offset(self, level: int, fault: tuple[int, int] | None) -> int:
        offset = self.offsets[level - 1]
        if fault is not None and fault[0] == level:
            offset += fault[1]
        return offset

    def source(self, fault: tuple[int, int] | None = None) -> str:
        """Mini-Pascal text; ``fault`` is ``(level, delta)`` or None."""
        depth = self.depth
        decls = [
            "function h(x: integer): integer;\nbegin\n"
            f"  h := (x * {self.scale + 1} + 7) mod 9973\nend;\n",
            f"procedure f{depth}(x: integer; var r, s: integer);\nbegin\n"
            f"  r := (x * {self.scale} + {self._offset(depth, fault)}) mod 9973;\n"
            "  s := (x + 1) mod 9973\nend;\n",
        ]
        for level in range(depth - 1, 0, -1):
            decls.append(
                f"procedure f{level}(x: integer; var r, s: integer);\n"
                "var a, b: integer;\nbegin\n"
                f"  f{level + 1}(x + {self.steps[level - 1]}, a, b);\n"
                f"  r := (a + {self._offset(level, fault)}) mod 9973;\n"
                "  s := (b + h(x)) mod 9973\nend;\n"
            )
        return (
            f"program {self.name};\nvar i, total, noise, r, s: integer;\n\n"
            + "\n".join(decls)
            + "\nbegin\n  total := 0;\n  noise := 0;\n"
            f"  for i := 1 to {self.iterations} do\n"
            f"    if i mod {self.stride} = 0 then\n    begin\n"
            "      f1(i, r, s);\n"
            "      total := (total + r) mod 9973;\n"
            "      noise := (noise + s) mod 9973\n"
            "    end\n"
            "    else\n"
            "      total := (total + i) mod 9973;\n"
            "  writeln(total);\n  writeln(noise)\nend.\n"
        )

    def expected_output(self, fault: tuple[int, int] | None = None) -> str:
        """The program's output, computed in plain Python."""
        total = noise = 0
        for i in range(1, self.iterations + 1):
            if i % self.stride:
                total = (total + i) % 9973
                continue
            xs = [i]
            for level in range(1, self.depth):
                xs.append(xs[-1] + self.steps[level - 1])
            r = (xs[-1] * self.scale + self._offset(self.depth, fault)) % 9973
            s = (xs[-1] + 1) % 9973
            for level in range(self.depth - 1, 0, -1):
                x = xs[level - 1]
                r = (r + self._offset(level, fault)) % 9973
                s = (s + (x * (self.scale + 1) + 7) % 9973) % 9973
            total = (total + r) % 9973
            noise = (noise + s) % 9973
        return f"{total}\n{noise}\n"


#: the bug-free shapes: (depth, iterations, stride)
DEEP_SHAPES = ((12, 200, 8), (13, 240, 10), (14, 300, 12), (12, 280, 10))
#: planted faults add 1..MAX_DELTA to one level; warm-ups use larger deltas
MAX_DELTA = 40
#: the two strategies deep-debug requests alternate between
DEEP_STRATEGIES = ("top-down", "dq-optimal")


@dataclass(frozen=True)
class DeepInput:
    shape: int
    level: int
    delta: int
    strategy: str
    source: str
    expected_output: str

    @property
    def unit(self) -> str:
        return f"f{self.level}"


class DeepDebug:
    name = "deep-debug"
    cycle = len(DEEP_SHAPES) * 2 * len(DEEP_STRATEGIES)  # shapes x mirrored levels x strategies

    def __init__(self, seed: int):
        self.seed = seed
        self.shapes = [
            DeepShape.build(index, *spec) for index, spec in enumerate(DEEP_SHAPES)
        ]
        self.oracles = []
        for shape in self.shapes:
            output = run_source(shape.source()).output
            if output != shape.expected_output():
                raise AssertionError(
                    f"{shape.name}: bug-free output {output!r} != "
                    f"{shape.expected_output()!r} computed in Python"
                )
            self.oracles.append(ReferenceOracle.from_source(shape.source()))

    def _input(self, strategy: str, shape: int, level: int, delta: int) -> DeepInput:
        fault = (level, delta)
        return DeepInput(
            shape=shape,
            level=level,
            delta=delta,
            strategy=strategy,
            source=self.shapes[shape].source(fault),
            expected_output=self.shapes[shape].expected_output(fault),
        )

    def inputs(self) -> Iterator[DeepInput]:
        """Per cycle and shape, a fault at level ``a`` and one at its
        mirror ``depth + 1 - a``, each debugged once per strategy, so
        every cycle has the same mean fault depth; the seed orders the
        levels and draws each fault's delta."""
        rng = Random(self.seed)
        levels = []
        for shape in self.shapes:
            order = list(range(1, shape.depth // 2 + 1))
            rng.shuffle(order)
            levels.append(order)
        seen = set()
        for cycle in count():
            for shape, order in enumerate(levels):
                low = order[cycle % len(order)]
                for level in (low, self.shapes[shape].depth + 1 - low):
                    for strategy in DEEP_STRATEGIES:
                        fault = None
                        while fault is None or fault in seen:
                            fault = (shape, level, rng.randint(1, MAX_DELTA))
                        seen.add(fault)
                        yield self._input(strategy, *fault)

    def warm_up_input(self) -> DeepInput:
        return self._input(DEEP_STRATEGIES[0], 0, 1, MAX_DELTA + 1)

    def run(self, item: DeepInput, tracer: LayerTracer | None) -> Outcome:
        outcome = Outcome()
        submitted = perf_counter()
        system = GadtSystem.from_source(item.source)
        oracle = SessionOracle(self.oracles[item.shape], tracer)
        result = system.debugger(
            oracle, strategy=session_strategy(item.strategy, tracer)
        ).debug()
        if oracle.first_call is not None:
            outcome.first_questions.append(oracle.first_call - submitted)
        outcome.questions.append(result.user_questions)
        outcome.slice_pruned = result.slice_pruned
        outcome.session_traces.append(system.trace)
        output = system.trace.execution.output
        if output != item.expected_output:
            outcome.problems.append(
                f"output {output!r} != {item.expected_output!r} computed in Python"
            )
        outcome.debuggable = 1
        if result.bug_unit == item.unit:
            outcome.localized = 1
        else:
            miss = f"{self.shapes[item.shape].name} fault in {item.unit}: blamed {result.bug_unit}"
            outcome.misses.append(miss)
            outcome.problems.append(miss)
        return outcome


# ----------------------------------------------------------------------
# mutant-sweep


@dataclass(frozen=True)
class HostInput:
    name: str
    source: str


#: statuses a sweep must not produce
_SWEEP_FAILURES = ("timed_out", "infra_error")
_DEBUGGABLE = ("localized", "mislocalized", "not_localized")


class MutantSweep:
    name = "mutant-sweep"
    cycle = 3 + len(MUTANT_SWEEP_POOL)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> Iterator[HostInput]:
        hosts = [
            ("figure4", FIGURE4_FIXED_SOURCE),
            ("section3", SECTION3_FIXED_SOURCE),
            ("ledger", ledger_program().fixed_source),
        ] + [(f"corpus{structure}", generate_program(structure)) for structure in MUTANT_SWEEP_POOL]
        for cycle in count():
            # the paper's programs open every cycle, the corpus hosts follow
            order = hosts[3:]
            Random(_tag(self.seed, cycle, 0)).shuffle(order)
            for position, (name, source) in enumerate(hosts[:3] + order):
                tag = _tag(self.seed, cycle, position)
                yield HostInput(name, renamed(source, tag))

    def warm_up_input(self) -> HostInput:
        tag = _tag(self.seed, -1, 0)
        return HostInput("warm-up", renamed(generate_program(WARM_UP_STRUCTURE), tag))

    def run(self, item: HostInput, tracer: LayerTracer | None) -> Outcome:
        outcome = Outcome()
        mutants = generate_mutants(item.source)
        started = perf_counter()
        results = evaluate_mutants(
            item.source, mutants, workers=SWEEP_WORKERS,
            step_limit=SWEEP_STEP_LIMIT, deadline_s=MUTANT_DEADLINE_S,
        )
        evaluate_s = perf_counter() - started
        workers = min(SWEEP_WORKERS, len(mutants)) if len(mutants) > 1 else 1
        outcome.pool_idle_s = workers * evaluate_s - sum(r.seconds for r in results)
        outcome.generated = len(mutants)
        outcome.changing = sum(1 for r in results if r.status != "equivalent")
        first_debuggable = None
        for result in results:
            if result.status in _SWEEP_FAILURES:
                outcome.problems.append(
                    f"{item.name}: {result.mutant.description} {result.status}: {result.error}"
                )
            if result.status not in _DEBUGGABLE:
                continue
            first_debuggable = first_debuggable or result.mutant
            outcome.debuggable += 1
            outcome.questions.append(result.user_questions)
            if result.status == "localized":
                outcome.localized += 1
            else:
                outcome.misses.append(
                    f"{item.name}: {result.mutant.description}: "
                    f"{result.status} ({result.localized_unit})"
                )
        if first_debuggable is not None:
            self._open_verdict(item.source, first_debuggable, tracer, outcome)
        return outcome

    @staticmethod
    def _open_verdict(source, mutant, tracer, outcome: Outcome) -> None:
        """The user's follow-up: debug one swept mutant in-process."""
        submitted = perf_counter()
        try:
            trace = trace_source(mutant.source, step_limit=SWEEP_STEP_LIMIT)
        except PascalError:
            return
        oracle = SessionOracle(ReferenceOracle(analyze_source(source)), tracer)
        AlgorithmicDebugger(
            trace, oracle, strategy=session_strategy("top-down", tracer)
        ).debug()
        if oracle.first_call is not None:
            outcome.first_questions.append(oracle.first_call - submitted)


WORKLOADS = {cls.name: cls for cls in (CorpusDiff, DeepDebug, MutantSweep)}
