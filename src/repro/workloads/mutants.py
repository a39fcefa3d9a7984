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
or analysing, and the analysis cache keeps it. Nothing is built for
mutants that are never run. Sweep workers register the recipes
themselves, since a spawned worker does not inherit the parent's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.pascal import ast_nodes as ast
from repro.pascal.pretty import PrintedProgram
from repro.pascal.semantics import AnalysisPatch, analyze_source, register_patch

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
        output = run_source(
            mutant.source, step_limit=step_limit, budget=budget, backend=backend
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
    from repro.core import ReferenceOracle
    from repro.pascal import run_source
    from repro.resilience import faults

    # The parent's fault plan is shipped to every worker so injection
    # points inside worker code (the "worker" point, cache reads) fire
    # there too; spec countdowns are per-process.
    faults.install(fault_plan)
    # A forked worker inherits the parent's patch recipes, a spawned one
    # does not: registering them here spares every mutant's front half.
    generate_mutants(source)
    baseline = run_source(source, step_limit=step_limit, backend=backend).output
    reference = ReferenceOracle.from_source(
        source, step_limit=step_limit, backend=backend
    )
    _WORKER_STATE = (
        baseline, reference, strategy, enable_slicing, step_limit,
        deadline_s, degrade, backend,
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
    debuggable); one that crashes is recorded as *crashed*; otherwise the
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
        if parallel:
            from repro.resilience import faults
            from repro.resilience.pool import run_isolated

            # Pool-level timeout is a backstop for hangs the in-task
            # budget cannot see (stuck worker, pathological transform);
            # the budget converts ordinary runaways long before this.
            pool_timeout = None if deadline_s is None else deadline_s * 4 + 30
            task_results = run_isolated(
                _evaluate_in_worker,
                mutants,
                workers=min(workers, len(mutants)),
                initializer=_init_mutant_worker,
                initargs=(
                    source, strategy, enable_slicing, step_limit,
                    deadline_s, degrade, faults.active(), backend,
                ),
                timeout_s=pool_timeout,
                retries=retries,
            )
            outcomes = []
            for task, mutant in zip(task_results, mutants):
                if task.status == "ok":
                    outcome = task.value
                    outcome.retries = task.retries
                else:
                    outcome = LocalizationOutcome(
                        mutant=mutant,
                        status=task.status,
                        error=task.error,
                        retries=task.retries,
                    )
                outcomes.append(outcome)
        else:
            from repro.core import ReferenceOracle
            from repro.pascal import run_source

            baseline = run_source(
                source, step_limit=step_limit, backend=backend
            ).output
            reference = ReferenceOracle.from_source(
                source, step_limit=step_limit, backend=backend
            )
            outcomes = [
                _debug_one_mutant(
                    mutant, baseline, reference, strategy, enable_slicing,
                    step_limit, deadline_s, degrade, backend,
                )
                for mutant in mutants
            ]
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
