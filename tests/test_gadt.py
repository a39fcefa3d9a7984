"""Integration tests for the full GADT debugger (paper §8)."""

import pytest

from repro.core import (
    AlgorithmicDebugger,
    Answer,
    AssertionStore,
    GadtSystem,
    ReferenceOracle,
    ScriptedOracle,
)
from repro.core.queries import AnswerSource
from repro.pascal.semantics import analyze_source
from repro.tgen import CaseRunner, TestCaseLookup, generate_frames, instantiate_cases
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE
from repro.workloads.arrsum_spec import (
    arrsum_frame_selector,
    arrsum_spec,
    make_arrsum_instantiator,
)


@pytest.fixture(scope="module")
def system():
    return GadtSystem.from_source(FIGURE4_SOURCE)


@pytest.fixture(scope="module")
def arrsum_lookup(system):
    spec = arrsum_spec()
    frames = generate_frames(spec)
    cases = instantiate_cases(spec, frames, make_arrsum_instantiator(2))
    database = CaseRunner(system.analysis).run_all(cases)
    lookup = TestCaseLookup(database=database)
    lookup.register(spec, arrsum_frame_selector)
    return lookup


def fresh_lookup(system):
    spec = arrsum_spec()
    frames = generate_frames(spec)
    cases = instantiate_cases(spec, frames, make_arrsum_instantiator(2))
    database = CaseRunner(system.analysis).run_all(cases)
    lookup = TestCaseLookup(database=database)
    lookup.register(spec, arrsum_frame_selector)
    return lookup


class TestSection8Session:
    """The paper's worked example, end to end."""

    def test_exact_user_dialogue(self, system):
        lookup = fresh_lookup(system)
        oracle = ScriptedOracle(
            script=[
                ("sqrtest", Answer.no()),
                ("computs", Answer.no_error_on(position=1)),
                ("comput1", Answer.no()),
                ("partialsums", Answer.no_error_on(position=2)),
                ("sum2", Answer.no()),
                ("decrement", Answer.no()),
            ]
        )
        debugger = system.debugger(oracle, test_lookup=lookup)
        result = debugger.debug()
        assert result.bug_unit == "decrement"
        assert oracle.exhausted  # exactly the paper's six user questions
        assert result.user_questions == 6
        assert result.slices == 2

    def test_arrsum_never_reaches_user(self, system):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle, test_lookup=lookup).debug()
        asked_by_user = {
            event.text.split("(")[0] for event in result.session.user_questions()
        }
        assert "arrsum" not in asked_by_user
        auto = result.session.auto_answers()
        assert any("arrsum" in event.text for event in auto)

    def test_gadt_beats_pure_ad(self, system):
        lookup = fresh_lookup(system)
        reference = analyze_source(FIGURE4_FIXED_SOURCE)
        gadt_result = system.debugger(
            ReferenceOracle(reference), test_lookup=lookup
        ).debug()
        pure_result = AlgorithmicDebugger(
            system.trace, ReferenceOracle(reference)
        ).debug()
        assert gadt_result.bug_unit == pure_result.bug_unit == "decrement"
        assert gadt_result.user_questions < pure_result.user_questions
        assert gadt_result.user_questions == 6
        assert pure_result.user_questions == 8

    def test_slicing_notes_in_session(self, system):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle, test_lookup=lookup).debug()
        slices = [e for e in result.session.events if "slicing" in e.render()]
        assert len(slices) == 2
        assert "r1" in slices[0].text
        assert "s2" in slices[1].text

    def test_sliced_tree_sizes_match_figures(self, system):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle, test_lookup=lookup).debug()
        slice_notes = [e.text for e in result.session.events if "slice on" in e.text]
        assert "8 of 10" in slice_notes[0]  # Figure 8
        assert "3 of 5" in slice_notes[1]  # Figure 9


class TestAnswerChainOrder:
    def test_assertion_beats_test_database(self, system):
        lookup = fresh_lookup(system)
        assertions = AssertionStore()
        assertions.assert_unit("arrsum", "b = 3")  # covers this activation
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(
            oracle, assertions=assertions, test_lookup=lookup
        )
        result = debugger.debug()
        arrsum_events = [
            event
            for event in result.session.events
            if event.text.startswith("arrsum")
        ]
        assert arrsum_events[0].source is AnswerSource.ASSERTION

    def test_test_db_consulted_when_no_assertion(self, system):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle, test_lookup=lookup).debug()
        arrsum_events = [
            event
            for event in result.session.events
            if event.text.startswith("arrsum")
        ]
        assert arrsum_events[0].source is AnswerSource.TEST_DATABASE
        assert result.used_test_answers


class TestAnswerCache:
    """A second session on one debugger is answered from its answer cache."""

    def test_repeated_queries_come_from_the_cache(self, system, monkeypatch):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, test_lookup=lookup)
        first = debugger.debug()
        assert first.used_test_answers

        def refuse(*args):
            raise AssertionError("the answer chain was consulted")

        monkeypatch.setattr(debugger.assertions, "try_answer", refuse)
        monkeypatch.setattr(lookup, "consult", refuse)
        monkeypatch.setattr(oracle, "answer", refuse)
        second = debugger.debug()
        assert second.bug_unit == first.bug_unit == "decrement"
        assert second.queries_by_source["cache"] == first.total_questions
        assert second.total_questions == 0
        queries = second.report()["queries"]
        assert sum(queries["by_source"].values()) == queries["total"]
        assert queries["total"] == (
            queries["by_source"]["cache"] + queries["by_source"]["slice-pruned"]
        )


class TestDistrustFallback:
    def test_retry_without_tests_when_rejected(self, system):
        """A wrong 'pass' report sends the debugger astray; the paper's
        fallback repeats the session without test results."""
        from repro.tgen.reports import TestReport, TestReportDatabase, Verdict

        # Poison the database: every arrsum frame 'passes', but so does a
        # fabricated report claiming computs-equivalent behaviour is fine.
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, test_lookup=lookup)
        result = debugger.debug_distrusting_tests(
            reject=lambda outcome: True  # the user rejects the localization
        )
        # The retry ran without tests and still localized the bug.
        assert result.bug_unit == "decrement"
        assert any(
            "distrusted" in event.text for event in result.session.events
        )

    def test_no_retry_when_accepted(self, system):
        lookup = fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, test_lookup=lookup)
        result = debugger.debug_distrusting_tests(reject=lambda outcome: False)
        assert result.bug_unit == "decrement"
        assert not any(
            "distrusted" in event.text for event in result.session.events
        )


class TestSlicingToggles:
    def test_slicing_disabled_still_localizes(self, system):
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, enable_slicing=False)
        result = debugger.debug()
        assert result.bug_unit == "decrement"
        assert result.slices == 0

    def test_slicing_reduces_questions_without_tests(self, system):
        reference = analyze_source(FIGURE4_FIXED_SOURCE)
        with_slicing = system.debugger(ReferenceOracle(reference)).debug()
        without = system.debugger(
            ReferenceOracle(reference), enable_slicing=False
        ).debug()
        assert with_slicing.user_questions <= without.user_questions
