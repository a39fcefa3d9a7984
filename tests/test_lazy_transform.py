"""A transform builds its final analysis, that analysis's side effects
and each routine's loop units on first read.

A transform that is only printed builds none of them. Whoever reads one
first, every reader gets the same object, also when threads race for it
(the transform cache hands every caller of one text the same transform),
and what they read equals an eager computation on a fresh pipeline run.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.analysis.sideeffects import analyze_side_effects
from repro.core import GadtSystem
from repro.pascal import semantics
from repro.pascal.pretty import print_program
from repro.tgen.corpus import generate_program
from repro.tracing.tracer import trace_program
from repro.transform import pipeline
from repro.transform.loop_units import LoopUnits, compute_loop_units
from repro.transform.pipeline import transform_source
from tests.canonical_forms import trace_form

SOURCE = generate_program(7)
STEP_LIMIT = 200_000


def _units_and_effects(analysis, units, effects) -> tuple:
    """``units`` and ``effects`` of ``analysis``, node ids replaced by
    pre-order positions and symbols by qualified names."""
    at = {node.node_id: index for index, node in enumerate(analysis.program.walk())}

    def names(symbols) -> list:
        return sorted(symbol.qualified_name for symbol in symbols)

    return (
        sorted(
            (at[stmt_id], unit.name, names(unit.inputs), names(unit.outputs))
            for stmt_id, unit in units.items()
        ),
        sorted(
            (
                routine.qualified_name,
                names(effect.mod_params),
                names(effect.ref_params),
                names(effect.gmod),
                names(effect.gref),
                names(effect.exit_labels),
            )
            for routine, effect in effects.effects.items()
        ),
    )


def _count_analyze_calls(monkeypatch) -> list[int]:
    """Count calls of :func:`~repro.pascal.semantics.analyze` made
    through either module that calls it."""
    calls = [0]
    original = semantics.analyze

    def counted(program):
        calls[0] += 1
        return original(program)

    monkeypatch.setattr(semantics, "analyze", counted)
    monkeypatch.setattr(pipeline, "analyze", counted)
    return calls


@pytest.fixture
def observed():
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


def _spans() -> set[str]:
    return {event["name"] for event in obs.events() if event["kind"] == "span"}


class TestFirstRead:
    def test_a_printed_transform_builds_no_analysis_of_its_output(
        self, monkeypatch, observed
    ):
        calls = _count_analyze_calls(monkeypatch)
        transformed = transform_source(SOURCE, cached=False)
        print_program(transformed.program)
        printed = calls[0]
        assert "analysis" not in vars(transformed)
        assert "transform.pass.loop_units" not in _spans()
        assert "transform.loop_units" not in obs.snapshot()["counters"]

        analysis = transformed.analysis  # the call a printed transform saves
        assert calls[0] == printed + 1
        assert analysis.program is transformed.program
        assert "transform.pass.loop_units" not in _spans()

    def test_debugging_the_text_computes_its_loop_units(self, observed):
        GadtSystem.from_source(SOURCE, step_limit=STEP_LIMIT)
        assert obs.snapshot()["counters"]["transform.loop_units"] > 0
        assert "transform.pass.loop_units" in _spans()

    def test_a_lookup_computes_the_units_of_its_routine_alone(self):
        analysis = transform_source(SOURCE, cached=False).analysis
        units = analysis.view.loops
        assert isinstance(units, LoopUnits)
        eager = compute_loop_units(analysis)
        stmt_id = next(iter(eager))
        routine = analysis.stmt_routine[stmt_id]
        assert units.get(stmt_id) == eager[stmt_id]
        assert list(units._by_routine) == [routine]
        assert dict(units) == eager
        assert list(units) == list(eager)

    def test_side_effects_are_built_once_for_any_analysis(self):
        analysis = semantics.analyze_source(SOURCE, cached=False)
        effects = analysis.side_effects
        assert effects is analysis.side_effects
        assert effects.analysis is analysis
        expected = analyze_side_effects(analysis)
        assert _units_and_effects(analysis, {}, effects) == _units_and_effects(
            analysis, {}, expected
        )


class TestRacingReaders:
    THREADS = 8

    def test_threads_share_one_analysis_and_trace_alike(self):
        transformed = transform_source(SOURCE, cached=False)
        assert "analysis" not in vars(transformed)
        start = threading.Barrier(self.THREADS)
        results: list = [None] * self.THREADS
        errors: list = []

        def read(index: int) -> None:
            try:
                start.wait(timeout=60)
                role = index % 3
                if role == 2:
                    analysis = transformed.analysis
                    analysis.side_effects
                    results[index] = (analysis, None)
                    return
                backend = "interp" if role == 0 else "compiled"
                analysis = transformed.analysis
                trace = trace_program(analysis, step_limit=STEP_LIMIT, backend=backend)
                results[index] = (analysis, (backend, trace))
            except Exception as exc:  # reported below, with its thread
                errors.append((index, exc))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-build included
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        analysis = transformed.analysis
        assert all(seen is analysis for seen, _trace in results)
        assert analysis.side_effects is analysis.side_effects

        fresh = transform_source(SOURCE, cached=False).analysis
        eager = _units_and_effects(
            fresh, compute_loop_units(fresh), analyze_side_effects(fresh)
        )
        assert _units_and_effects(analysis, analysis.view.loops, analysis.side_effects) == eager

        serial = {
            backend: trace_form(
                trace_program(fresh, step_limit=STEP_LIMIT, backend=backend), fresh
            )
            for backend in ("interp", "compiled")
        }
        traced = [trace for _analysis, trace in results if trace is not None]
        assert {backend for backend, _trace in traced} == {"interp", "compiled"}
        for backend, trace in traced:
            assert trace_form(trace, analysis) == serial[backend], backend
