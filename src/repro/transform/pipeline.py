"""The transformation pipeline (paper §5.1).

Order of passes:

1. reduce same-block gotos to structured conditionals and loops (the
   easy taxonomy cases, handled before anything synthesizes new gotos),
2. flag-guard gotos that jump out of loops (prerequisite for loop units),
3. break global gotos into exit parameters — repeated until no global
   goto remains (each round peels one nesting level),
4. convert global-variable accesses to ``in``/``out``/``var`` parameters,
5. on first read, analyze the final program and attach the parameters
   steps 3 and 4 added and its loop units to the analysis
   (:class:`~repro.tracing.tracer.ActivationView`): the analysis is all
   both engines need to trace each activation, loop units included, as
   the user sees it. Its side effects and each routine's loop units are
   in turn computed on first read, so a transform that is only printed
   builds none of them,
6. on demand, insert trace-generating actions: the *instrumented*
   program (:attr:`TransformedProgram.instrumented`) is a display
   artifact, built only when something reads it. The tracer attaches to
   interpreter hooks and traces the transformed program directly.

The goto passes are copy-on-write (:mod:`repro.transform.rewriter`):
each shares every statement, expression and routine it does not
rewrite with its input, and its source map holds only the nodes it
creates. The pipeline's accumulated map starts as the identity over
the user's program, and each rewriting pass's map is layered over it,
so a shared node keeps its entry; the pass's output is re-analyzed.
The pipeline result can so map any transformed construct back to the
exact original construct the user wrote (transparent debugging, paper
§6.1). A goto pass with nothing to rewrite returns its input program
uncopied, and the pipeline moves on with the analysis it has: no copy,
no map, no re-analysis. The globals-to-parameters pass copies its
output whole, so the transformed program never shares a node with the
user's.

A mutant does not go through the passes. Its text differs from its
printed host's in one operator or one literal, and
:func:`transform_source` builds its transform as a
:class:`TransformPatch` of the cached transform of its recipe's base:
the source map finds each *image* of the faulty node in the
transformed program, each image gets the fault's change, and
everything else is shared. One pass decision reads operators and
literals (whether ``if c then goto L; L:`` can be dropped, which needs
``c`` to be free of failing divisions); a fault that could flip it,
and a mutant whose analysis its recipe did not build, take the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import cache as _cache
from repro import obs
from repro.analysis.sideeffects import SideEffects
from repro.lazy import shared_cached_property
from repro.pascal import ast_nodes as ast
from repro.pascal.parser import parse_program
from repro.pascal.pretty import print_program, print_routine
from repro.pascal.semantics import (
    AnalysisPatch,
    AnalyzedProgram,
    analyze,
    analyze_source,
    patched_analysis,
    registered_patch,
)
from repro.tracing.tracer import ActivationView
from repro.transform.globals_to_params import convert_globals_to_params
from repro.transform.goto_elimination import (
    GotoEliminationResult,
    break_global_gotos,
    changes_purity,
    eliminate_loop_gotos,
    reduce_structured_gotos,
)
from repro.transform.goto_taxonomy import TaxonomyReport, classify_program
from repro.transform.instrument import InstrumentResult, instrument_program
from repro.transform.loop_units import LoopUnits
from repro.transform.mapping import SourceMap


@dataclass
class TransformedProgram:
    """Everything the tracing and debugging phases need: ``analysis``
    carries the side effects, the loop units and the user's view that
    tracing reads. It is built on first read; ``program`` and the pass
    reports need no analysis."""

    original_analysis: AnalyzedProgram
    program: ast.Program
    source_map: SourceMap
    added_params: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    #: routine name -> the parameter carrying its global gotos
    exit_params: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    #: taxonomy case name -> gotos classified in the *original* program
    goto_cases: dict[str, int] = field(default_factory=dict)
    #: taxonomy case name -> gotos the reduction passes eliminated
    goto_eliminated: dict[str, int] = field(default_factory=dict)

    @shared_cached_property
    def analysis(self) -> AnalyzedProgram:
        """The analysis of :attr:`program`, with the user's view of its
        activations attached (the same object for every reader)."""
        analysis = analyze(self.program)
        threaded = self.added_params.items()
        analysis.view = ActivationView(
            {unit: frozenset(name for name, _mode in params) for unit, params in threaded},
            self.exit_params,
            LoopUnits(analysis),
        )
        return analysis

    @property
    def side_effects(self) -> SideEffects:
        return self.analysis.side_effects

    @property
    def loop_units(self) -> LoopUnits:
        """Loop statement id -> its unit (paper §6)."""
        return self.analysis.view.loops

    def original_node_id(self, transformed_id: int) -> int | None:
        """Map a transformed construct back to the user's source construct."""
        return self.source_map.original_id(transformed_id)

    @shared_cached_property
    def images(self) -> dict[int, list[tuple]]:
        """Original node id -> the path of each transformed expression
        the source map traces back to it, ``(image, (parent, (...,
        (program, None))))``. Built on first use, by the first
        :class:`TransformPatch` of a variant of this program."""
        to_original = self.source_map.to_original
        index: dict[int, list[tuple]] = {}
        stack: list[tuple] = [(self.program, None)]
        while stack:
            path = stack.pop()
            node = path[0]
            if isinstance(node, ast.Expr) and node.node_id in to_original:
                index.setdefault(to_original[node.node_id], []).append(path)
            stack.extend((child, path) for child in node.children())
        return index

    @shared_cached_property
    def instrumented(self) -> InstrumentResult:
        """The program with trace-generating actions inserted (paper
        §6), its source map mapping to the user's source. Built on first
        read: nothing on the run, trace, debug or mutate path reads it."""
        with obs.span("transform.pass.instrument"):
            result = instrument_program(self.analysis, self.side_effects, self.loop_units)
        return InstrumentResult(result.program, result.source_map.compose(self.source_map))

    # ------------------------------------------------------------------
    # growth metrics (paper §9: "Small procedures usually grow less than
    # a factor of two after transformations.")

    def growth_factor(self) -> float:
        """Transformed-vs-original program size ratio in source lines."""
        original_lines = _line_count(print_program(self.original_analysis.program))
        transformed_lines = _line_count(print_program(self.program))
        return transformed_lines / max(original_lines, 1)

    def routine_growth_factors(self) -> dict[str, float]:
        """Per-routine transformed-vs-original line-growth ratios."""
        original = {
            info.qualified_name: _line_count(print_routine(info.decl))
            for info in self.original_analysis.user_routines()
            if isinstance(info.decl, ast.RoutineDecl)
        }
        factors: dict[str, float] = {}
        for info in self.analysis.user_routines():
            if not isinstance(info.decl, ast.RoutineDecl):
                continue
            before = original.get(info.qualified_name)
            if before:
                factors[info.qualified_name] = (
                    _line_count(print_routine(info.decl)) / before
                )
        return factors


def _line_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


#: rounds of the global-goto pass before the pipeline gives up (each
#: round peels one nesting level)
MAX_GOTO_ROUNDS = 10


def transform_program(analysis: AnalyzedProgram) -> TransformedProgram:
    """Run the full transformation pipeline on an analyzed program."""
    with obs.span("transform.pipeline", program=analysis.program.name):
        return _transform_program(analysis)


def _transform_program(analysis: AnalyzedProgram) -> TransformedProgram:
    original = analysis
    warnings: list[str] = []
    #: the passes' maps so far, layered over the identity over the
    #: user's program; None (the identity) until one rewrites something
    accumulated: SourceMap | None = None
    #: the classification of ``analysis``, while it is the original one
    report: TaxonomyReport | None = classify_program(analysis)
    goto_cases = report.counts()
    goto_eliminated: dict[str, int] = {}
    skipped = 0

    def _apply(result: GotoEliminationResult) -> None:
        """Move on to ``result``'s program, unless it is the input."""
        nonlocal analysis, accumulated, report, skipped
        warnings.extend(result.warnings)
        if result.program is analysis.program:
            skipped += 1
            return
        for case, count in result.eliminated.items():
            goto_eliminated[case] = goto_eliminated.get(case, 0) + count
        if accumulated is None:
            accumulated = SourceMap.identity(original.program)
        accumulated = accumulated.layered(result.source_map)
        analysis = analyze(result.program)
        report = None

    # 1. same-block gotos become structured control flow. Runs before the
    #    loop pass: a backward goto reduced to repeat..until may contain
    #    escaping gotos the loop pass then flag-guards.
    with obs.span("transform.pass.structured_gotos"):
        _apply(reduce_structured_gotos(analysis, report))

    # 2. gotos out of loops
    with obs.span("transform.pass.loop_gotos"):
        _apply(eliminate_loop_gotos(analysis, report))

    # 3. global gotos, to a fixpoint. Each round may synthesize dispatch
    #    gotos inside loop bodies (a call in a loop whose callee exits
    #    globally), so the loop-goto pass is interleaved.
    exit_params: dict[str, str] = {}
    with obs.span("transform.pass.global_gotos"):
        for _round in range(MAX_GOTO_ROUNDS):
            round_result = break_global_gotos(analysis, report)
            _apply(round_result)
            if not round_result.changed:
                break
            exit_params.update(round_result.exit_params)
            _apply(eliminate_loop_gotos(analysis))
        else:
            warnings.append(
                f"global gotos remained after {MAX_GOTO_ROUNDS} rounds"
            )

    # 4. globals to parameters; the final analysis, its side effects
    #    and its loop units (step 5) wait for their first reader
    with obs.span("transform.pass.globals_to_params"):
        globals_result = convert_globals_to_params(analysis)
        warnings.extend(globals_result.warnings)
        source_map = globals_result.source_map
        if accumulated is not None:
            source_map = source_map.compose(accumulated)

    if obs.enabled():
        obs.add("transform.programs")
        obs.add("transform.warnings", len(warnings))
        obs.add("transform.passes_skipped", skipped)
        for case, count in goto_cases.items():
            obs.add(f"transform.goto.case.{case}", count)
        for case, count in goto_eliminated.items():
            obs.add(f"transform.goto.eliminated.{case}", count)

    return TransformedProgram(
        original_analysis=original,
        program=globals_result.program,
        source_map=source_map,
        added_params=globals_result.added_params,
        exit_params=exit_params,
        warnings=warnings,
        goto_cases={case: count for case, count in goto_cases.items() if count},
        goto_eliminated=goto_eliminated,
    )


@dataclass(frozen=True, eq=False)
class TransformPatch:
    """The transform of a program that differs from its host in one
    expression, built by :meth:`build` from the host's transform
    (``base``) without running the pass pipeline.

    ``recipe`` is the :class:`~repro.pascal.semantics.AnalysisPatch`
    that builds the variant's analysis from the host's, and ``base`` is
    the transform of ``recipe.base`` (see :func:`cached_transform`).
    The variant's transform is ``base`` with the fault's one-field
    change (an operator or a literal) made to each *image* of the faulty
    node, a transformed expression the source map traces back to it.
    """

    base: TransformedProgram
    recipe: AnalysisPatch

    def full_path_reason(self, original: AnalyzedProgram) -> str | None:
        """Why ``original``, the variant's analysis, must go through the
        pass pipeline instead; None when :meth:`build` is exact."""
        recipe = self.recipe
        if original.expr_type is not recipe.base.expr_type:
            return "the variant's analysis was not built by the recipe"
        if changes_purity(recipe.path, recipe.fault):
            return "the fault can flip a pass decision"
        return None

    def build(self, original: AnalyzedProgram) -> TransformedProgram:
        """The variant's transform, equal to a run of the pass pipeline
        on ``original`` up to node ids (check :meth:`full_path_reason`
        first).

        Each image of the faulty node gets the fault's change and every
        image of an expression on the re-rendered line its new location;
        each keeps its node id. Only they and their ancestors are
        copied: every other node, the source map, the view (loop units
        included) and the pass reports are shared with ``base``, which
        is never written. The routine infos of copied routines are
        rebuilt (:func:`patched_analysis`); the side effects are
        ``base``'s, re-pointed when first read. The patch is built from
        ``base``'s analysis, so it builds that if nothing has read it.
        The instrumented program is not built: the variant's
        :attr:`TransformedProgram.instrumented` builds it from the
        patched analysis when read.
        """
        base, recipe = self.base, self.recipe
        node, fault = recipe.path[0], recipe.fault
        changes = {
            name: getattr(fault, name)
            for name in ast.child_fields(type(fault))
            if getattr(fault, name) is not getattr(node, name)
        }
        edits: list[tuple[tuple, dict]] = []
        for node_id, location in recipe.locations().items():
            for path in base.images.get(node_id, ()):
                edit = dict(changes) if node_id == node.node_id else {}
                if path[0].location != location:
                    edit["location"] = location
                if edit:
                    edits.append((path, edit))
        analysis = base.analysis
        if edits:  # else the fault sat in code a pass deleted
            analysis = patched_analysis(analysis, edits, {})
        transformed = replace(base, original_analysis=original, program=analysis.program)
        transformed.__dict__["analysis"] = analysis  # built: no first read to wait for
        return transformed


#: cache for :func:`cached_transform`, keyed by the identity of the
#: analysis transformed (see repro.cache). The whole pipeline (goto
#: rounds, globals→params, loop units, each with a re-analysis) is by
#: far the most expensive stage, so benchmarks and mutation sweeps that
#: rebuild systems from identical text hit this hard.
_TRANSFORM_CACHE = _cache.register("transform")


def transform_source(source: str, cached: bool = True) -> TransformedProgram:
    """Parse, analyze, and transform Mini-Pascal source text: the
    cached transform of ``analyze_source(source)``.

    Identical text returns the identical :class:`TransformedProgram`
    while its analysis is cached (safe: the pipeline output is never
    mutated — tracing and debugging state lives in per-run objects).
    ``cached=False`` forces a parse and a run of the pass pipeline: the
    reference the patched transforms are tested against.
    """
    if not cached:
        return transform_program(analyze(parse_program(source)))
    return cached_transform(analyze_source(source), source)


def cached_transform(analysis: AnalyzedProgram, source: str) -> TransformedProgram:
    """The transform of ``analysis``, the analysis of ``source``, cached
    while the entry lives (it holds ``analysis`` as its
    ``original_analysis``, so the id key cannot be reused). A text with
    a registered :class:`~repro.pascal.semantics.AnalysisPatch` (a
    mutant) is transformed as a :class:`TransformPatch` of the transform
    of the recipe's base, unless :meth:`TransformPatch.full_path_reason`
    says otherwise."""

    def build() -> TransformedProgram:
        recipe = registered_patch(source)
        if recipe is not None:
            host = cached_transform(recipe.base, recipe.printed.text)
            patch = TransformPatch(host, recipe)
            if patch.full_path_reason(analysis) is None:
                with obs.span("transform.patch"):
                    transformed = patch.build(analysis)
                obs.add("transform.patched")
                return transformed
        return transform_program(analysis)

    return _TRANSFORM_CACHE.get_or_build((id(analysis),), build)
