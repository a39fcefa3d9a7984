"""Systematic fault injection for localization-accuracy experiments.

The paper's evaluation plants one bug by hand (``y+1`` for ``y-1`` in
``decrement`` — an arithmetic-operator mutation). This module applies the
same class of single-token faults *systematically*: every arithmetic and
relational operator flip and every off-by-one constant change, one at a
time, each tagged with the routine whose body contains it. The
localization experiment then checks, for every behaviour-changing
mutant, that the debugger blames exactly that routine.

Generation never writes to the analyzed program, which the analysis
cache shares with every other caller: each mutant's faulty node is a
copy, and its source is the host program's text, printed once, with the
one line holding that node re-rendered.

The printed text is the *base* of the mutants, and its analysis (one
parse, none if the host is already in printed form) is the base of
their analyses. Each mutant registers a recipe for its own analysis
(:func:`~repro.pascal.semantics.register_patch`): the faulty node, its
path from the root and its statement. The first ``analyze_source`` of
the mutant text, by ``run_source``, ``trace_source``, a sweep worker
or anything else, builds the analysis from it without lexing, parsing
or analysing, and the analysis cache keeps it. The first
``transform_source`` of the text (``GadtSystem.from_source``) builds
its transform the same way, as a patch of the printed host's transform,
with no pass pipeline, and its compiled programs are patches of the
host's (:mod:`repro.compile.compiler`): only the faulty statement and
its ancestors compile. Nothing is built for mutants that are never run.

A sweep (:func:`evaluate_mutants`) reuses the host run three ways:

* the parent runs the printed host once with a statement hook
  (:func:`unreached_mutants`), and settles every mutant whose statement
  that run never executes as *equivalent*, with no probe and no worker;
  a sweep left with nothing to probe starts no pool and builds no
  oracle;
* the sweep state, built once per worker (or once in the parent when
  sequential), runs the printed host on the probes' engine and builds
  the reference oracle from the printed host, so the host's compiled
  programs and transform are the bases of every mutant's;
* a probe runs on the sweep's trace engine (compiled by default): one
  patched compile and a compiled run.

Sweep workers register the recipes themselves, since a spawned worker
does not inherit the parent's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.pascal import ast_nodes as ast
from repro.pascal.interpreter import ExecutionHooks, Interpreter
from repro.pascal.pretty import PrintedProgram, print_program
from repro.pascal.semantics import (
    AnalysisPatch,
    analyze_source,
    forget_patch,
    register_patch,
    registered_patch,
)

#: operator substitutions, one per mutant
_BINARY_FLIPS = {
    "+": "-",
    "-": "+",
    "*": "+",
    "div": "*",
    "<": "<=",
    "<=": "<",
    ">": ">=",
    ">=": ">",
    "=": "<>",
    "<>": "=",
}


@dataclass(frozen=True)
class Mutant:
    """One single-fault variant of a program."""

    source: str
    unit: str  # routine whose body contains the mutation
    description: str
    kind: str  # "operator" or "constant"


def _sites(program: ast.Program) -> list[tuple[ast.Node, str, ast.Stmt, tuple]]:
    """(node, owner, host, path) for every node of every routine body,
    in :meth:`~repro.pascal.ast_nodes.Node.walk` order: ``owner`` is the
    routine whose *body* holds the node, ``host`` the innermost statement
    around it, ``path`` the link ``(node, (parent, (..., (program,
    None))))`` to the root. Declarations and main-body code have none."""
    sites: list[tuple[ast.Node, str, ast.Stmt, tuple]] = []

    def visit(node, routine, owner, host, path) -> None:
        path = (node, path)
        if owner is not None:
            if isinstance(node, ast.Stmt):
                host = node
            sites.append((node, owner, host, path))
        if isinstance(node, ast.RoutineDecl):
            routine = node.name
        if isinstance(node, ast.Block):
            for child in node.children():
                visit(child, routine, routine if child is node.body else None, host, path)
        else:
            for child in node.children():
                visit(child, routine, owner, host, path)

    visit(program, None, None, None, None)
    return sites


def generate_mutants(
    source: str,
    include_constants: bool = True,
    units: set[str] | None = None,
) -> list[Mutant]:
    """All single-fault mutants of ``source`` located inside routine bodies.

    ``units`` restricts mutation to the named routines. Each mutant's
    analysis is registered as a patch of the printed program's
    (:func:`~repro.pascal.semantics.register_patch`), built when first
    asked for.
    """
    with obs.span("mutants.generate"):
        printed = PrintedProgram(analyze_source(source).program)
        # The base of every mutant is the printed text, which is what
        # the mutants are edits of: one cache entry if already canonical.
        base = analyze_source(printed.text)
        if base.program is not printed.program:
            printed = PrintedProgram(base.program)
        # A host's text is transformed on its own, never as a patch of
        # another host's: its recipe (say, as the fixed program's
        # mutant, for a buggy host) could lead back to one of its own
        # mutants and close a cycle.
        forget_patch(printed.text)
        mutants: list[Mutant] = []
        for node, owner, host, path in _sites(base.program):
            if units is not None and owner not in units:
                continue
            if isinstance(node, ast.BinaryOp) and node.op in _BINARY_FLIPS:
                fault = replace(node, op=_BINARY_FLIPS[node.op])
                change, kind = f"{node.op} -> {fault.op}", "operator"
            elif include_constants and isinstance(node, ast.IntLiteral):
                fault = replace(node, value=node.value + 1)
                change, kind = f"{node.value} -> {fault.value}", "constant"
            else:
                continue
            text = printed.substituted(host, node, fault)
            register_patch(text, AnalysisPatch(base, printed, path, host, fault))
            mutants.append(
                Mutant(
                    source=text,
                    unit=owner,
                    description=f"{change} in {owner}",
                    kind=kind,
                )
            )
        obs.add("mutants.generated", len(mutants))
    return mutants


#: every status an outcome can carry, in reporting order
OUTCOME_STATUSES = (
    "localized",
    "mislocalized",
    "not_localized",
    "equivalent",
    "crashed",
    "timed_out",
    "infra_error",
)


@dataclass
class LocalizationOutcome:
    """Result of debugging one mutant."""

    mutant: Mutant
    #: one of :data:`OUTCOME_STATUSES`
    status: str
    localized_unit: str | None = None
    user_questions: int = 0
    #: wall time of this mutant's run/trace/debug (always measured;
    #: excluded from equality so timings don't break outcome comparison)
    seconds: float = field(default=0.0, compare=False)
    #: the session ran over a degraded (budget-salvaged) partial trace
    partial: bool = False
    #: failure detail for ``timed_out`` / ``infra_error`` outcomes
    error: str | None = None
    #: failed attempts that preceded this outcome (parallel path only;
    #: excluded from equality so a crash-then-retry run still compares
    #: equal to a fault-free one)
    retries: int = field(default=0, compare=False)


def _debug_one_mutant(
    mutant: Mutant,
    baseline: str,
    reference,
    strategy: str,
    enable_slicing: bool,
    step_limit: int,
    deadline_s: float | None = None,
    degrade: bool = False,
    backend: str | None = None,
) -> LocalizationOutcome:
    """Run/trace/debug one mutant (shared by sequential and parallel paths)."""
    started = time.perf_counter()
    outcome = _debug_one_mutant_impl(
        mutant, baseline, reference, strategy, enable_slicing, step_limit,
        deadline_s, degrade, backend,
    )
    outcome.seconds = time.perf_counter() - started
    return outcome


def _debug_one_mutant_impl(
    mutant: Mutant,
    baseline: str,
    reference,
    strategy: str,
    enable_slicing: bool,
    step_limit: int,
    deadline_s: float | None = None,
    degrade: bool = False,
    backend: str | None = None,
) -> LocalizationOutcome:
    from repro.compile import resolve_backend
    from repro.core import AlgorithmicDebugger, GadtSystem
    from repro.pascal import run_source
    from repro.pascal.errors import PascalError
    from repro.resilience import Budget, BudgetExceeded

    # One budget per mutant, armed here so the deadline covers the whole
    # run/trace/debug pipeline, not each phase separately.
    budget = (
        Budget.started(deadline_s=deadline_s) if deadline_s is not None else None
    )
    try:
        # The probe runs on the sweep's trace engine: compiled, it is a
        # patch of the host program the sweep state already ran.
        output = run_source(
            mutant.source,
            step_limit=step_limit,
            budget=budget,
            backend=resolve_backend(backend, traced=True),
        ).output
    except BudgetExceeded as exc:
        return LocalizationOutcome(
            mutant=mutant, status="timed_out", error=str(exc)
        )
    except PascalError:
        return LocalizationOutcome(mutant=mutant, status="crashed")
    if output == baseline:
        return LocalizationOutcome(mutant=mutant, status="equivalent")
    # Tracing re-executes with instrumentation overhead and debugging
    # replays units through the reference oracle, so a mutant that ran
    # clean above can still blow the step limit or raise here (e.g. a
    # flipped loop bound that only diverges under the traced schedule).
    # Those failures must cost this mutant its slot, never the sweep.
    try:
        system = GadtSystem.from_source(
            mutant.source,
            step_limit=step_limit,
            budget=budget,
            degrade=degrade,
            backend=backend,
        )
        debugger = AlgorithmicDebugger(
            system.trace,
            reference,
            strategy=strategy,
            enable_slicing=enable_slicing,
        )
        result = debugger.debug()
    except BudgetExceeded as exc:
        return LocalizationOutcome(
            mutant=mutant, status="timed_out", error=str(exc)
        )
    except PascalError:
        return LocalizationOutcome(mutant=mutant, status="crashed")
    blamed = result.bug_unit
    if blamed is None:
        # The session terminated without blaming any unit: distinct from
        # blaming the *wrong* unit.
        return LocalizationOutcome(
            mutant=mutant,
            status="not_localized",
            localized_unit=None,
            user_questions=result.user_questions,
            partial=result.partial,
        )
    correct = blamed == mutant.unit or blamed.startswith(mutant.unit + "$")
    return LocalizationOutcome(
        mutant=mutant,
        status="localized" if correct else "mislocalized",
        localized_unit=blamed,
        user_questions=result.user_questions,
        partial=result.partial,
    )


def _printed_host(source: str) -> str:
    """``source`` as :func:`generate_mutants` prints it: the text the
    mutants are edits of. The reference oracle is built from it, so the
    host transform that serves the oracle is also the base of every
    mutant's transform."""
    return print_program(analyze_source(source).program)


class _Coverage(ExecutionHooks):
    """Collects the node id of every statement a run executes."""

    def __init__(self) -> None:
        self.executed: set[int] = set()

    def before_stmt(self, stmt, frame) -> None:
        self.executed.add(stmt.node_id)


def unreached_mutants(
    source: str, mutants: list[Mutant], step_limit: int = 500_000
) -> list[bool]:
    """Which of ``mutants`` sit in a statement the printed host's run
    never executes, by one hooked run of it.

    Such a mutant runs exactly as its host does: the run is
    deterministic, its input is the same, and the faulty expression is
    evaluated only when its statement runs. A mutant is judged only if
    its registered recipe (:class:`~repro.pascal.semantics.AnalysisPatch`)
    is a patch of the printed host's current analysis; one without
    (another source's, an evicted recipe) counts as reached. A host
    whose run fails raises its error at the position in ``source``.
    """
    from repro.pascal import run_source
    from repro.pascal.errors import PascalError

    printed = _printed_host(source)
    host = analyze_source(printed)
    coverage = _Coverage()
    try:
        Interpreter(host, hooks=coverage, step_limit=step_limit).run()
    except PascalError:
        if printed != source:
            run_source(source, step_limit=step_limit)  # raises at the user's position
        raise
    unreached = []
    for mutant in mutants:
        recipe = registered_patch(mutant.source)
        unreached.append(
            recipe is not None
            and recipe.base is host
            and recipe.host.node_id not in coverage.executed
        )
    return unreached


def _sweep_state(source: str, step_limit: int, backend: str | None) -> tuple:
    """(baseline output, reference oracle) of a sweep over the mutants
    of ``source``. The baseline is a run of the printed host on the
    probes' engine: compiled, it leaves the host program, with every
    routine the host calls compiled, as the base of each probe's."""
    from repro.compile import resolve_backend
    from repro.core import ReferenceOracle
    from repro.pascal import run_source

    printed = _printed_host(source)
    baseline = run_source(
        printed, step_limit=step_limit, backend=resolve_backend(backend, traced=True)
    ).output
    reference = ReferenceOracle.from_source(
        printed, step_limit=step_limit, backend=backend
    )
    return baseline, reference


#: per-worker-process state for the parallel path, built once by the pool
#: initializer: (baseline output, reference oracle, strategy, slicing,
#: step limit, deadline, degrade flag, backend). Each worker owns a
#: private oracle, so no state is shared across processes.
_WORKER_STATE = None


def _init_mutant_worker(
    source: str,
    strategy: str,
    enable_slicing: bool,
    step_limit: int,
    deadline_s: float | None = None,
    degrade: bool = False,
    fault_plan=None,
    backend: str | None = None,
) -> None:
    global _WORKER_STATE
    from repro.resilience import faults

    # The parent's fault plan is shipped to every worker so injection
    # points inside worker code (the "worker" point, cache reads) fire
    # there too; spec countdowns are per-process.
    faults.install(fault_plan)
    # A forked worker inherits the parent's patch recipes, a spawned one
    # does not: registering them here spares every mutant's front half.
    generate_mutants(source)
    _WORKER_STATE = (
        *_sweep_state(source, step_limit, backend), strategy, enable_slicing,
        step_limit, deadline_s, degrade, backend,
    )


def _evaluate_in_worker(mutant: Mutant, attempt: int = 0) -> LocalizationOutcome:
    from repro.resilience import faults

    # The "worker" fault point: keyed on description@attempt so a plan
    # can kill attempt 0 of one mutant and let its retry run clean.
    faults.trip("worker", key=f"{mutant.description}@{attempt}")
    return _debug_one_mutant(mutant, *_WORKER_STATE)


def evaluate_mutants(
    source: str,
    mutants: list[Mutant],
    strategy: str = "top-down",
    enable_slicing: bool = True,
    step_limit: int = 500_000,
    workers: int | None = None,
    deadline_s: float | None = None,
    retries: int = 1,
    degrade: bool = False,
    backend: str | None = None,
) -> list[LocalizationOutcome]:
    """Debug every behaviour-changing mutant against the original program.

    A mutant whose output equals the original's is *equivalent* (not
    debuggable); so is one in a statement the original's run never
    executes (:func:`unreached_mutants`), settled here without a run of
    its own. One that crashes is recorded as *crashed*; otherwise the
    debugger runs with a reference oracle backed by the original, and the
    outcome records whether the blamed unit is the mutated one. The
    blamed unit counts as correct if it is the mutated routine or a unit
    inside it (a loop unit such as ``arrsum$for1``); a session that ends
    without blaming any unit is *not_localized*.

    **Robustness** (see ``docs/ROBUSTNESS.md``): ``deadline_s`` arms a
    per-mutant wall-clock budget — a mutant that spins (an infinite loop
    the step limit would take too long to catch) is recorded as
    *timed_out*. With ``degrade``, a mutant whose *trace* blows the
    budget salvages a depth-capped partial tree and is still debugged
    (its outcome carries ``partial=True``) instead of crashing.

    ``workers`` > 1 fans the sweep out with crash isolation
    (:func:`repro.resilience.pool.run_isolated`): every mutant's
    run/trace/debug is an independently submitted task, a worker death
    or hang costs that mutant one slot (retried up to ``retries`` times,
    then *infra_error*), and each worker builds its own reference
    oracle, so the result list is identical (including order) to the
    sequential path. ``workers=0`` or negative is rejected.

    ``backend`` picks the execution engine for every run, trace and
    reference oracle of the sweep, in the workers too (see
    :func:`repro.compile.resolve_backend`).
    """
    if workers is not None and workers < 1:
        raise ValueError(
            f"workers must be >= 1 (or None for sequential), got {workers}"
        )
    parallel = workers is not None and workers > 1 and len(mutants) > 1
    with obs.span("mutants.evaluate", mutants=len(mutants)):
        outcomes: list[LocalizationOutcome | None] = [
            LocalizationOutcome(mutant=mutant, status="equivalent") if unreached else None
            for mutant, unreached in zip(
                mutants, unreached_mutants(source, mutants, step_limit)
            )
        ]
        obs.add("mutants.unreached", sum(outcome is not None for outcome in outcomes))
        todo = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if todo and parallel:
            from repro.resilience import faults
            from repro.resilience.pool import run_isolated

            # Pool-level timeout is a backstop for hangs the in-task
            # budget cannot see (stuck worker, pathological transform);
            # the budget converts ordinary runaways long before this.
            pool_timeout = None if deadline_s is None else deadline_s * 4 + 30
            task_results = run_isolated(
                _evaluate_in_worker,
                [mutants[index] for index in todo],
                workers=min(workers, len(todo)),
                initializer=_init_mutant_worker,
                initargs=(
                    source, strategy, enable_slicing, step_limit,
                    deadline_s, degrade, faults.active(), backend,
                ),
                timeout_s=pool_timeout,
                retries=retries,
            )
            for task, index in zip(task_results, todo):
                if task.status == "ok":
                    outcome = task.value
                    outcome.retries = task.retries
                else:
                    outcome = LocalizationOutcome(
                        mutant=mutants[index],
                        status=task.status,
                        error=task.error,
                        retries=task.retries,
                    )
                outcomes[index] = outcome
        elif todo:
            baseline, reference = _sweep_state(source, step_limit, backend)
            for index in todo:
                outcomes[index] = _debug_one_mutant(
                    mutants[index], baseline, reference, strategy, enable_slicing,
                    step_limit, deadline_s, degrade, backend,
                )
    if obs.enabled():
        # Aggregated in the parent so worker processes (where obs stays
        # at its default, off) still land in one registry.
        for outcome in outcomes:
            obs.add(f"mutants.outcome.{outcome.status}")
            obs.observe("mutants.debug_s", outcome.seconds, unit="s")
            if outcome.status == "timed_out":
                obs.add("resilience.timeouts")
            if outcome.retries:
                obs.add("resilience.retries", outcome.retries)
            if parallel and outcome.partial:
                # Sequential traces count themselves in-process; worker
                # processes run with obs off, so their degraded traces
                # are credited here.
                obs.add("resilience.degraded_traces")
            obs.emit(
                "mutant",
                status=outcome.status,
                unit=outcome.mutant.unit,
                description=outcome.mutant.description,
                localized_unit=outcome.localized_unit,
                user_questions=outcome.user_questions,
                seconds=outcome.seconds,
                partial=outcome.partial,
                retries=outcome.retries,
            )
    return outcomes


def summarize(outcomes: list[LocalizationOutcome]) -> dict[str, int]:
    """Outcome counts by status, every status present (zeros included).

    ``not_localized`` is reported as its own count — a session that ends
    without blaming any unit is neither localized nor mislocalized.
    """
    counts = {status: 0 for status in OUTCOME_STATUSES}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts


def accuracy(outcomes: list[LocalizationOutcome]) -> tuple[int, int]:
    """(correctly localized, debuggable) counts over the outcomes."""
    debuggable = [
        outcome
        for outcome in outcomes
        if outcome.status in ("localized", "mislocalized", "not_localized")
    ]
    correct = sum(1 for outcome in debuggable if outcome.status == "localized")
    return correct, len(debuggable)
