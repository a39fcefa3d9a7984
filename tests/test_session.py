"""Unit tests for session transcripts."""

import pytest

from repro.core import GadtSystem, ReferenceOracle
from repro.core.algorithmic import DebugResult
from repro.core.queries import Answer, AnswerSource, Query
from repro.core.session import EventKind, Interaction, Session
from repro.pascal.semantics import analyze_source
from repro.tgen import CaseRunner, TestCaseLookup, generate_frames, instantiate_cases
from repro.tracing.execution_tree import Binding, BindingMode, ExecNode, NodeKind
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE
from repro.workloads.arrsum_spec import (
    arrsum_frame_selector,
    arrsum_spec,
    make_arrsum_instantiator,
)


def node():
    return ExecNode(
        kind=NodeKind.CALL,
        unit_name="p",
        inputs=[Binding("a", BindingMode.IN, 1)],
        outputs=[Binding("b", BindingMode.OUT, 2)],
    )


class TestSession:
    def test_user_question_rendering(self):
        session = Session()
        session.ask(Query(node()), Answer.no())
        text = session.render()
        assert "p(In a: 1, Out b: 2)?" in text
        assert ">no" in text

    def test_auto_answer_annotated(self):
        session = Session()
        session.ask(
            Query(node()),
            Answer.yes(source=AnswerSource.TEST_DATABASE, note="frame ok"),
        )
        text = session.render()
        assert "answered by test-database" in text

    def test_slice_event(self):
        session = Session()
        session.note_slice("slice on variable 'r1'")
        assert "-- slicing: slice on variable 'r1' --" in session.render()

    def test_localized_event(self):
        session = Session()
        session.localized("decrement")
        assert (
            "An error has been localized inside the body of decrement."
            in session.render()
        )

    def test_user_vs_auto_partition(self):
        session = Session()
        session.ask(Query(node()), Answer.no())
        session.ask(
            Query(node()), Answer.yes(source=AnswerSource.ASSERTION)
        )
        session.ask(
            Query(node()), Answer.yes(source=AnswerSource.CACHE)
        )
        assert len(session.user_questions()) == 1
        assert len(session.auto_answers()) == 2

    def test_len_counts_events(self):
        session = Session()
        session.note("hello")
        session.localized("p")
        assert len(session) == 2

    def test_interaction_kinds(self):
        event = Interaction(kind=EventKind.NOTE, text="x")
        assert event.render() == "-- x --"


class TestInteractionRender:
    def test_user_answer_rendered_as_prompt(self):
        event = Interaction(
            kind=EventKind.QUESTION,
            text="p(In a: 1)?",
            answer_text="no",
            source=AnswerSource.USER,
        )
        assert event.render() == "p(In a: 1)?\n>no"

    def test_cache_answer_annotated_with_origin(self):
        event = Interaction(
            kind=EventKind.QUESTION,
            text="p(In a: 1)?",
            answer_text="yes",
            source=AnswerSource.CACHE,
        )
        assert event.render() == "p(In a: 1)?\n  [yes — answered by cache]"

    def test_sourceless_answer_annotated_as_auto(self):
        event = Interaction(
            kind=EventKind.QUESTION, text="q?", answer_text="yes", source=None
        )
        assert event.render() == "q?\n  [yes — answered by auto]"

    def test_slice_and_localized_rendering(self):
        assert (
            Interaction(kind=EventKind.SLICE, text="slice on 'r1'").render()
            == "-- slicing: slice on 'r1' --"
        )
        assert (
            Interaction(kind=EventKind.LOCALIZED, text="sum2").render()
            == "An error has been localized inside the body of sum2."
        )


class TestPartitionFiltering:
    def make_session(self):
        session = Session()
        session.note("preamble")  # non-question events must be excluded
        session.ask(Query(node()), Answer.no())
        session.ask(Query(node()), Answer.yes(source=AnswerSource.ASSERTION))
        session.ask(Query(node()), Answer.yes(source=AnswerSource.TEST_DATABASE))
        session.ask(Query(node()), Answer.yes(source=AnswerSource.CACHE))
        session.note_slice("slice on 'x'")
        session.localized("p")
        return session

    def test_user_questions_only_user_sourced(self):
        session = self.make_session()
        user = session.user_questions()
        assert len(user) == 1
        assert all(event.kind is EventKind.QUESTION for event in user)
        assert all(event.source is AnswerSource.USER for event in user)

    def test_auto_answers_exclude_user_and_non_questions(self):
        session = self.make_session()
        auto = session.auto_answers()
        assert len(auto) == 3
        assert all(event.kind is EventKind.QUESTION for event in auto)
        assert {event.source for event in auto} == {
            AnswerSource.ASSERTION,
            AnswerSource.TEST_DATABASE,
            AnswerSource.CACHE,
        }

    def test_partitions_cover_all_questions(self):
        session = self.make_session()
        questions = [
            event for event in session.events if event.kind is EventKind.QUESTION
        ]
        assert len(session.user_questions()) + len(session.auto_answers()) == len(
            questions
        )


class TestDebugResultArithmetic:
    def test_total_questions_is_user_plus_auto(self):
        result = DebugResult(
            bug_node=None,
            session=Session(),
            queries_by_source={
                "user": 6, "assertion": 2, "test-db": 3,
                "cache": 4, "slice-pruned": 7,
            },
        )
        assert result.user_questions == 6
        assert result.auto_answers == 5
        assert result.used_test_answers
        assert result.slice_pruned == 7
        assert result.total_questions == 11

    def test_total_questions_matches_session_partition(self):
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle).debug()
        assert result.user_questions == len(result.session.user_questions())
        assert result.auto_answers == len(result.session.auto_answers())
        assert result.total_questions == (
            result.user_questions + result.auto_answers
        )
        # and the obs-facing report agrees with the explicit counts
        report = result.report()
        explicit = report["queries"]["total"] - report["queries"]["by_source"][
            "slice-pruned"
        ]
        assert explicit == result.total_questions


class TestDistrustRetryAnnotation:
    @pytest.fixture(scope="class")
    def system(self):
        return GadtSystem.from_source(FIGURE4_SOURCE)

    def fresh_lookup(self, system):
        spec = arrsum_spec()
        frames = generate_frames(spec)
        cases = instantiate_cases(spec, frames, make_arrsum_instantiator(2))
        database = CaseRunner(system.analysis).run_all(cases)
        lookup = TestCaseLookup(database=database)
        lookup.register(spec, arrsum_frame_selector)
        return lookup

    def test_retry_session_is_annotated(self, system):
        lookup = self.fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, test_lookup=lookup)
        result = debugger.debug_distrusting_tests(reject=lambda outcome: True)
        notes = [
            event
            for event in result.session.events
            if event.kind is EventKind.NOTE and "distrusted" in event.text
        ]
        assert len(notes) == 1
        assert notes[0].render() == (
            "-- test results distrusted; session repeated --"
        )
        # the retry ran without the test database
        assert not result.used_test_answers

    def test_accepted_result_is_not_annotated(self, system):
        lookup = self.fresh_lookup(system)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        debugger = system.debugger(oracle, test_lookup=lookup)
        result = debugger.debug_distrusting_tests(reject=lambda outcome: False)
        assert not any("distrusted" in event.text for event in result.session.events)
        assert result.used_test_answers
