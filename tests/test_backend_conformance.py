"""Differential conformance: the compiled backend against the
interpreter oracle.

The compiled backend (``repro.compile``) must be observationally
identical to the tree-walking interpreter — same program output, same
step counts, same execution trees, same dependence graphs, same error
messages, same debug verdicts — because every downstream phase
(slicing, algorithmic debugging, the mutation benchmarks) treats the
trace as ground truth. These tests fuzz randomly generated programs
through both backends and compare everything observable, including
under budget exhaustion and injected faults (docs/COMPILER.md explains
the conformance strategy).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import BACKENDS, default_backend, resolve_backend
from repro.core import GadtSystem
from repro.pascal import run_source
from repro.pascal.errors import PascalError
from repro.resilience import Budget, faults
from repro.resilience.faults import FaultSpec
from repro.tracing import trace_source
from repro.workloads import (
    FIGURE4_FIXED_SOURCE,
    FIGURE4_SOURCE,
    CallTreeSpec,
    generate_call_tree_program,
)
from tests.program_gen import (
    programs_with_procedures,
    straightline_programs,
    structured_programs,
)
from tests.test_mutant_patch import HOSTS, STEP_LIMIT
from tests.test_transform_digests import TIER1_SEEDS, seed_programs

#: hypothesis budget: derandomized (CI-stable) and small enough to keep
#: the differential suite inside the tier-1 time budget
FUZZ = settings(max_examples=25, derandomize=True, deadline=None)


# ----------------------------------------------------------------------
# comparison helpers


def _node_pairs(tree_a, tree_b):
    nodes_a = list(tree_a.walk())
    nodes_b = list(tree_b.walk())
    assert len(nodes_a) == len(nodes_b), "tree sizes differ"
    return list(zip(nodes_a, nodes_b))


def _assert_bindings_equal(left, right, context):
    assert len(left) == len(right), f"{context}: binding counts differ"
    for a, b in zip(left, right):
        assert (a.name, a.mode, a.is_global) == (b.name, b.mode, b.is_global), context
        assert a.value == b.value, f"{context}: {a.name} {a.value!r} != {b.value!r}"


def assert_traces_equal(trace_a, trace_b):
    """Full structural equality of two traces, modulo the process-global
    execution-tree node-id counter."""
    assert trace_a.execution.output == trace_b.execution.output
    assert trace_a.execution.steps == trace_b.execution.steps

    pairs = _node_pairs(trace_a.tree, trace_b.tree)
    node_map = {a.node_id: b.node_id for a, b in pairs}
    for a, b in pairs:
        context = f"node {a.unit_name}#{a.node_id}"
        assert a.kind == b.kind, context
        assert a.unit_name == b.unit_name, context
        assert a.iteration == b.iteration, context
        assert a.via_goto == b.via_goto, context
        assert a.occurrence_ids == b.occurrence_ids, context
        _assert_bindings_equal(a.inputs, b.inputs, f"{context} inputs")
        _assert_bindings_equal(a.outputs, b.outputs, f"{context} outputs")

    ddg_a, ddg_b = trace_a.dependence_graph, trace_b.dependence_graph
    assert set(ddg_a.occurrences) == set(ddg_b.occurrences)
    for occ_id, occ_a in ddg_a.occurrences.items():
        occ_b = ddg_b.occurrences[occ_id]
        assert occ_a.stmt_id == occ_b.stmt_id, f"occ {occ_id}"
        assert occ_a.location_line == occ_b.location_line, f"occ {occ_id}"
        # On degraded traces an occurrence may belong to a node dropped
        # by the salvage depth cap; both backends must drop the same ones.
        alive_a = occ_a.exec_node_id in node_map
        alive_b = occ_b.exec_node_id in {b.node_id for _, b in pairs}
        assert alive_a == alive_b, f"occ {occ_id}"
        if alive_a:
            assert node_map[occ_a.exec_node_id] == occ_b.exec_node_id, f"occ {occ_id}"
        assert ddg_a.deps_of(occ_id) == ddg_b.deps_of(occ_id), (
            f"occ {occ_id} dependences"
        )
    assert ddg_a.edge_count() == ddg_b.edge_count()

    owners_a = {
        occ: node_map[node.node_id]
        for occ, node in trace_a.tree.occurrence_owner.items()
    }
    owners_b = {
        occ: node.node_id for occ, node in trace_b.tree.occurrence_owner.items()
    }
    assert owners_a == owners_b

    writers_a = {
        (node_map[node_id], name): writers
        for (node_id, name), writers in trace_a.tree.output_writers.items()
    }
    writers_b = dict(trace_b.tree.output_writers)
    assert writers_a == writers_b


def trace_both(source, **kwargs):
    trace_i = trace_source(source, backend="interp", **kwargs)
    trace_c = trace_source(source, backend="compiled", **kwargs)
    return trace_i, trace_c


# ----------------------------------------------------------------------
# fuzzed full-trace equality


@FUZZ
@given(source=straightline_programs())
def test_straightline_programs_conform(source):
    assert_traces_equal(*trace_both(source))


@FUZZ
@given(source=structured_programs())
def test_structured_programs_conform(source):
    assert_traces_equal(*trace_both(source))


@FUZZ
@given(source=programs_with_procedures())
def test_procedure_programs_conform(source):
    assert_traces_equal(*trace_both(source))


@FUZZ
@given(source=structured_programs(), data=st.data())
def test_plain_run_conforms(source, data):
    result_i = run_source(source, backend="interp")
    result_c = run_source(source, backend="compiled")
    assert result_i.output == result_c.output
    assert result_i.steps == result_c.steps


def assert_transformed_programs_conform(named: dict[str, str]) -> int:
    """Trace each named program as the debugger does (transformed, so
    with loop units and exit parameters) on both engines, and compare
    the full traces; returns the number of programs checked. Tier-1
    checks the fixed hosts and seeds 0-39; CI checks seeds 0-199."""
    for name, source in named.items():
        trace_i, trace_c = (
            GadtSystem.from_source(
                source, step_limit=STEP_LIMIT, tolerate_errors=True, backend=backend
            ).trace
            for backend in BACKENDS
        )
        try:
            assert str(trace_i.error) == str(trace_c.error)
            assert trace_i.crash_unit == trace_c.crash_unit
            assert_traces_equal(trace_i, trace_c)
        except AssertionError as error:
            raise AssertionError(f"{name}: {error}") from error
    return len(named)


def test_transformed_programs_conform():
    assert_transformed_programs_conform({**HOSTS, **seed_programs(TIER1_SEEDS)})


# ----------------------------------------------------------------------
# error paths: both backends fail the same way, word for word


@FUZZ
@given(source=structured_programs(), limit=st.integers(min_value=1, max_value=40))
def test_step_limit_errors_conform(source, limit):
    outcomes = []
    for backend in BACKENDS:
        try:
            run_source(source, step_limit=limit, backend=backend)
            outcomes.append(None)
        except PascalError as error:
            outcomes.append((type(error).__name__, str(error)))
    assert outcomes[0] == outcomes[1]


@FUZZ
@given(source=programs_with_procedures(), limit=st.integers(min_value=1, max_value=60))
def test_tolerated_crash_traces_conform(source, limit):
    """A partial trace of a crashing run is salvaged identically."""
    trace_i, trace_c = trace_both(source, step_limit=limit, tolerate_errors=True)
    assert (trace_i.error is None) == (trace_c.error is None)
    if trace_i.error is not None:
        assert str(trace_i.error) == str(trace_c.error)
        assert trace_i.crash_unit == trace_c.crash_unit
    assert_traces_equal(trace_i, trace_c)


def test_budget_exhaustion_degrades_identically():
    generated = generate_call_tree_program(CallTreeSpec(depth=6))
    for kwargs in (
        {"step_limit": None, "max_tree_nodes": 9},
        {"step_limit": 120, "max_tree_nodes": None},
    ):
        traces = [
            trace_source(
                generated.source,
                budget=Budget.started(salvage_depth=3, **kwargs),
                degrade=True,
                backend=backend,
            )
            for backend in BACKENDS
        ]
        trace_i, trace_c = traces
        assert trace_i.degraded and trace_c.degraded
        assert trace_i.degraded_reason == trace_c.degraded_reason
        assert trace_i.truncated_nodes == trace_c.truncated_nodes
        assert_traces_equal(trace_i, trace_c)


def test_injected_trace_fault_fires_identically():
    source = FIGURE4_FIXED_SOURCE
    for backend in BACKENDS:
        with faults.injected(
            FaultSpec(point="trace", mode="raise", times=-1, message="boom")
        ):
            with pytest.raises(PascalError, match=r"boom \[trace\]"):
                trace_source(source, backend=backend)
    faults.clear()


# ----------------------------------------------------------------------
# debug verdicts


def test_debug_verdicts_conform_on_figure4_mutants():
    from benchmarks.helpers import debug_with
    from repro.workloads.mutants import generate_mutants

    mutants = generate_mutants(FIGURE4_FIXED_SOURCE)[:8]
    for mutant in mutants:
        verdicts = []
        for backend in BACKENDS:
            trace = trace_source(mutant.source, backend=backend)
            result = debug_with(
                trace, FIGURE4_FIXED_SOURCE, strategy="divide-and-query"
            )
            verdicts.append(
                (result.bug_unit, result.user_questions, result.auto_answers)
            )
        assert verdicts[0] == verdicts[1], mutant.description


def test_debug_verdicts_conform_on_call_tree():
    from benchmarks.helpers import debug_with

    generated = generate_call_tree_program(CallTreeSpec(depth=5))
    verdicts = []
    for backend in BACKENDS:
        trace = trace_source(generated.source, backend=backend)
        result = debug_with(
            trace, generated.fixed_source, strategy="divide-and-query"
        )
        verdicts.append((result.bug_unit, result.user_questions))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == generated.buggy_unit


def test_figure4_buggy_session_conforms():
    from benchmarks.helpers import debug_with

    verdicts = []
    for backend in BACKENDS:
        trace = trace_source(FIGURE4_SOURCE, backend=backend)
        result = debug_with(trace, FIGURE4_FIXED_SOURCE, strategy="top-down")
        verdicts.append((result.bug_unit, result.user_questions, result.slices))
    assert verdicts[0] == verdicts[1]


# ----------------------------------------------------------------------
# backend selection plumbing


def test_backend_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend() == "compiled"
    assert default_backend(traced=False) == "interp"
    assert resolve_backend(None) == "compiled"
    assert resolve_backend(None, traced=False) == "interp"
    assert resolve_backend("compiled", traced=False) == "compiled"
    assert resolve_backend("interp") == "interp"
    monkeypatch.setenv("REPRO_BACKEND", "Compiled ")
    assert default_backend() == "compiled"
    assert default_backend(traced=False) == "compiled"
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert default_backend() == "interp"
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError, match="turbo"):
        default_backend()
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("turbo")


def test_trace_result_records_backend():
    source = "program t; var x: integer; begin x := 2; writeln(x) end."
    assert trace_source(source, backend="interp").backend == "interp"
    assert trace_source(source, backend="compiled").backend == "compiled"


def test_compile_cache_reused_across_traces():
    from repro.cache import register

    cache = register("compile")
    source = "program t; var x: integer; begin x := 3; writeln(x) end."
    trace_source(source, backend="compiled")
    hits_before = cache.hits
    trace_source(source, backend="compiled")
    assert cache.hits > hits_before
