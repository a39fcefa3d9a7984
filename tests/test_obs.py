"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import obs
from repro.core import GadtSystem, ReferenceOracle
from repro.pascal import analyze_source, run_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE


@pytest.fixture()
def observing():
    """Obs enabled with a clean registry; everything torn down after."""
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(autouse=True)
def _always_clean():
    """Never leak enabled-state into other test modules."""
    yield
    obs.disable()
    obs.reset()


class TestDisabledByDefault:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_span_is_shared_null_object(self):
        assert obs.span("x") is obs.span("y") is obs.NULL_SPAN

    def test_null_span_context_manager(self):
        with obs.span("anything") as span:
            assert span.elapsed_s == 0.0

    def test_no_metrics_recorded(self):
        obs.add("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 2.0)
        obs.emit("kind", x=1)
        snap = obs.snapshot(include_cache=False)
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert obs.events() == []

    def test_instrumented_pipeline_emits_nothing(self):
        run_source(FIGURE4_SOURCE)
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "decrement"
        assert obs.events() == []
        assert obs.snapshot(include_cache=False)["counters"] == {}
        # per-session accounting is always on, obs or not
        assert result.queries_by_source["user"] == result.user_questions
        assert result.elapsed_s > 0


class TestMetrics:
    def test_counter(self, observing):
        obs.add("debug.sessions")
        obs.add("debug.sessions", 2)
        assert obs.snapshot(include_cache=False)["counters"]["debug.sessions"] == 3

    def test_gauge_and_peak(self, observing):
        obs.set_gauge("g", 5.0)
        obs.set_max_gauge("g", 3.0)  # not a new peak
        assert obs.snapshot(include_cache=False)["gauges"]["g"] == 5.0
        obs.set_max_gauge("g", 9.0)
        assert obs.snapshot(include_cache=False)["gauges"]["g"] == 9.0

    def test_histogram_summary(self, observing):
        for value in (2.0, 8.0, 5.0):
            obs.observe("sizes", value)
        data = obs.snapshot(include_cache=False)["histograms"]["sizes"]
        assert data == {
            "unit": "",
            "count": 3,
            "total": 15.0,
            "min": 2.0,
            "max": 8.0,
            "p50": 5.0,
            "p95": 8.0,
            "p99": 8.0,
        }

    def test_snapshot_includes_cache_stats(self, observing):
        snap = obs.snapshot()
        assert "transform" in snap["cache"]
        assert set(snap["cache"]["transform"]) == {
            "entries", "hits", "misses", "corrupt",
        }

    def test_reset_clears_everything(self, observing):
        obs.add("c")
        obs.emit("kind")
        obs.reset()
        assert obs.snapshot(include_cache=False)["counters"] == {}
        assert obs.events() == []
        assert obs.enabled()  # reset keeps the enabled flag


class TestSpans:
    def test_span_records_duration_histogram(self, observing):
        with obs.span("phase.x"):
            pass
        data = obs.snapshot(include_cache=False)["histograms"]["phase.x"]
        assert data["count"] == 1
        assert data["unit"] == "s"
        assert data["total"] >= 0

    def test_nesting_depth_and_parent(self, observing):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.events()[0], obs.events()[1]
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert outer["name"] == "outer"
        assert outer["depth"] == 0
        assert outer["parent"] is None

    def test_span_attrs_and_error_flag(self, observing):
        with pytest.raises(ValueError):
            with obs.span("risky", program="p"):
                raise ValueError("boom")
        (event,) = obs.events()
        assert event["program"] == "p"
        assert event["error"] is True
        assert event["error_type"] == "ValueError"

    def test_span_elapsed_accessible(self, observing):
        with obs.span("timed") as span:
            pass
        assert span.elapsed_s >= 0


class TestEventSinks:
    def test_events_carry_seq_ts_kind(self, observing):
        obs.emit("query", unit="p")
        obs.emit("slice", unit="q")
        first, second = obs.events()
        assert first["kind"] == "query" and first["unit"] == "p"
        assert second["seq"] == first["seq"] + 1
        assert first["ts"] > 0

    def test_ring_buffer_capacity(self):
        obs.reset()
        obs.enable(ring_capacity=3)
        try:
            for index in range(5):
                obs.emit("tick", index=index)
            kept = [event["index"] for event in obs.events()]
            assert kept == [2, 3, 4]
        finally:
            obs.disable()
            obs.reset()

    def test_jsonl_sink_round_trip(self, observing, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = obs.add_sink(obs.JsonlFileSink(str(path)))
        obs.emit("query", unit="p", source="user")
        obs.emit("session", report={"queries": {"total": 1}})
        obs.remove_sink(sink)
        sink.close()
        obs.emit("query", unit="late")  # after removal: not written
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["query", "session"]
        assert lines[0] == {
            "seq": lines[0]["seq"],
            "ts": lines[0]["ts"],
            "kind": "query",
            "unit": "p",
            "source": "user",
        }
        assert lines[1]["report"]["queries"]["total"] == 1

    def test_closed_sink_write_is_noop(self, observing, tmp_path):
        sink = obs.JsonlFileSink(str(tmp_path / "e.jsonl"))
        sink.close()
        sink.write({"kind": "x"})  # must not raise
        sink.close()  # idempotent


class TestPipelineInstrumentation:
    """The full pipeline, observed end to end on the Figure 4 program."""

    @pytest.fixture()
    def session_run(self, observing):
        from repro import cache

        cache.clear_caches()  # so transform spans fire (no cache hit)
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle).debug()
        assert result.bug_unit == "decrement"
        return result

    def test_phase_spans_recorded(self, session_run):
        histograms = obs.snapshot(include_cache=False)["histograms"]
        for name in (
            "transform.pipeline",
            "transform.pass.globals_to_params",
            "trace.execute",
            "slice.dynamic",
            "debug.session",
        ):
            assert histograms[name]["count"] >= 1, name

    def test_trace_counters_and_peaks(self, session_run):
        snap = obs.snapshot(include_cache=False)
        assert snap["counters"]["trace.nodes"] > 0
        assert snap["counters"]["trace.occurrences"] > 0
        assert snap["counters"]["trace.dep_edges"] > 0
        assert (
            snap["gauges"]["trace.peak_occurrences"]
            <= snap["counters"]["trace.occurrences"]
        )

    def test_breakdown_sums_to_total(self, session_run):
        report = session_run.report()
        assert report["queries"]["total"] == sum(
            report["queries"]["by_source"].values()
        )
        assert report["queries"]["by_source"]["user"] == session_run.user_questions
        assert report["interactions_saved"] == (
            report["queries"]["total"] - session_run.user_questions
        )

    def test_slicing_saves_queries(self, session_run):
        report = session_run.report()
        assert session_run.slices == 2
        assert report["queries"]["by_source"]["slice-pruned"] > 0

    def test_query_events_match_result_accounting(self, session_run):
        events = [e for e in obs.events() if e["kind"] == "query"]
        by_source: dict[str, int] = {}
        for event in events:
            by_source[event["source"]] = by_source.get(event["source"], 0) + 1
        explicit = {
            key: value
            for key, value in session_run.queries_by_source.items()
            if key != "slice-pruned"
        }
        assert by_source == explicit

    def test_session_event_round_trips_report(self, session_run):
        (session_event,) = [e for e in obs.events() if e["kind"] == "session"]
        assert session_event["report"] == session_run.report()

    def test_jsonl_round_trip_of_full_session(self, observing, tmp_path):
        from repro import cache

        path = tmp_path / "session.jsonl"
        sink = obs.add_sink(obs.JsonlFileSink(str(path)))
        cache.clear_caches()
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle).debug()
        obs.remove_sink(sink)
        sink.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        (session_event,) = [e for e in events if e["kind"] == "session"]
        assert session_event["report"]["queries"] == result.report()["queries"]
        query_events = [e for e in events if e["kind"] == "query"]
        assert len(query_events) == sum(
            count
            for source, count in result.queries_by_source.items()
            if source != "slice-pruned"
        )

    def test_mutant_metrics(self, observing):
        from repro.workloads.mutants import evaluate_mutants, generate_mutants

        source = (
            "program t; var r: integer; "
            "function f(x: integer): integer; begin f := x * 2 end; "
            "begin r := f(3); writeln(r) end."
        )
        mutants = generate_mutants(source)
        outcomes = evaluate_mutants(source, mutants)
        snap = obs.snapshot(include_cache=False)
        recorded = sum(
            value
            for name, value in snap["counters"].items()
            if name.startswith("mutants.outcome.")
        )
        assert recorded == len(outcomes)
        assert snap["histograms"]["mutants.debug_s"]["count"] == len(outcomes)
        mutant_events = [e for e in obs.events() if e["kind"] == "mutant"]
        assert len(mutant_events) == len(outcomes)
        assert all(outcome.seconds > 0 for outcome in outcomes)

    def test_mutant_generation_span_and_counter(self, observing):
        from repro.workloads.mutants import generate_mutants

        first = generate_mutants(FIGURE4_FIXED_SOURCE)
        second = generate_mutants(FIGURE4_FIXED_SOURCE, include_constants=False)
        snap = obs.snapshot(include_cache=False)
        assert snap["counters"]["mutants.generated"] == len(first) + len(second)
        assert snap["histograms"]["mutants.generate"]["count"] == 2
        spans = [
            event
            for event in obs.events()
            if event["kind"] == "span" and event["name"] == "mutants.generate"
        ]
        assert len(spans) == 2
        assert all(span["duration_s"] > 0 for span in spans)


    def test_front_half_spans_and_token_counter(self, observing):
        from repro.pascal.lexer import tokenize
        from repro.pascal.parser import parse_program

        tokens = len(tokenize(FIGURE4_SOURCE))
        parse_program(FIGURE4_SOURCE)
        snap = obs.snapshot(include_cache=False)
        assert snap["counters"]["pascal.tokens"] == 2 * tokens
        assert snap["histograms"]["pascal.lex"]["count"] == 2
        assert snap["histograms"]["pascal.parse"]["count"] == 1
        spans = [event for event in obs.events() if event["kind"] == "span"]
        assert [span["name"] for span in spans] == [
            "pascal.lex",
            "pascal.lex",
            "pascal.parse",
        ]
        # parse_program lexes inside its own span
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == "pascal.parse"
        assert spans[1]["depth"] == 1

    def test_patched_mutant_analyses_span_and_counter(self, observing):
        from repro import cache
        from repro.workloads.mutants import generate_mutants

        cache.clear_caches()  # so every mutant's analysis is built here
        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        obs.reset()
        for mutant in mutants:
            analyze_source(mutant.source)
            analyze_source(mutant.source)  # a cache hit: no second build
        snap = obs.snapshot(include_cache=False)
        assert snap["counters"]["pascal.analyze.patched"] == len(mutants)
        assert snap["histograms"]["pascal.analyze.patch"]["count"] == len(mutants)
        # no front half at all: nothing lexed or parsed
        assert "pascal.tokens" not in snap["counters"]
        assert "pascal.parse" not in snap["histograms"]
        analyze_source(mutants[0].source, cached=False)  # the reference parses
        snap = obs.snapshot(include_cache=False)
        assert snap["counters"]["pascal.analyze.patched"] == len(mutants)
        assert snap["histograms"]["pascal.parse"]["count"] == 1

    def test_goto_passes_with_nothing_to_rewrite_are_counted(self, observing):
        from repro.transform.pipeline import transform_source

        # Figure 4 has no goto: the structured, loop-goto and global-goto
        # passes each return their input uncopied
        transform_source(FIGURE4_SOURCE, cached=False)
        counters = obs.snapshot(include_cache=False)["counters"]
        assert counters["transform.programs"] == 1
        assert counters["transform.passes_skipped"] == 3

    def test_front_half_spans_on_lex_error(self, observing):
        from repro.pascal.errors import LexError
        from repro.pascal.parser import parse_program

        with pytest.raises(LexError):
            parse_program("program p; begin @ end.")
        spans = [event for event in obs.events() if event["kind"] == "span"]
        assert [span["name"] for span in spans] == ["pascal.lex", "pascal.parse"]
        assert "pascal.tokens" not in obs.snapshot(include_cache=False)["counters"]

    def test_first_call_routine_compiles_are_spans_inside_the_trace(
        self, observing
    ):
        from repro.cache import clear_caches
        from repro.tracing import trace_source

        clear_caches()
        trace_source(FIGURE4_SOURCE, backend="compiled")
        routines = [
            event
            for event in obs.events()
            if event["kind"] == "span" and event["name"] == "compile.routine"
        ]
        snap = obs.snapshot(include_cache=False)
        assert routines
        assert snap["counters"]["compile.routines"] == len(routines)
        assert snap["histograms"]["compile.routine"]["count"] == len(routines)
        # Compiled on first call, so inside the run, not inside compile.time.
        assert {event["parent"] for event in routines} == {"trace.execute"}
        assert len({event["routine"] for event in routines}) == len(routines)
        # A second trace of the same program reuses the compiled bodies.
        trace_source(FIGURE4_SOURCE, backend="compiled")
        assert (
            obs.snapshot(include_cache=False)["counters"]["compile.routines"]
            == len(routines)
        )


class TestReportRendering:
    def test_answer_sources_line(self):
        from repro.obs.report import render_answer_sources

        line = render_answer_sources(
            {
                "queries": {
                    "total": 7,
                    "by_source": {
                        "user": 3,
                        "assertion": 1,
                        "test-db": 1,
                        "cache": 0,
                        "slice-pruned": 2,
                    },
                },
                "interactions_saved": 4,
            }
        )
        assert line == (
            "answer sources: assertion 1, test-db 1, slice-pruned 2, "
            "cache 0, user 3 (total 7, saved 4 interactions)"
        )

    def test_render_summary_sections(self, observing):
        with obs.span("trace.execute"):
            pass
        obs.add("trace.nodes", 5)
        obs.set_gauge("trace.peak_nodes", 5)
        obs.observe("slice.kept_nodes", 3)
        text = obs.report.render_summary(obs.snapshot())
        assert "phase timings:" in text
        assert "trace.execute" in text
        assert "counters:" in text
        assert "gauges:" in text
        assert "distributions:" in text
        assert "content caches:" in text
