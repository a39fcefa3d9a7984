"""Tests for the Perfetto/Chrome trace-event exporter (repro.obs.export)."""

import json

import pytest

from repro import obs
from repro.core import GadtSystem, ReferenceOracle
from repro.obs.export import (
    MAIN_TID,
    WORKER_TID_BASE,
    export_journal,
    to_chrome_trace,
)
from repro.obs.journal import JOURNAL_SCHEMA, Journal, read_journal, recording
from repro.pascal import analyze_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE


@pytest.fixture(autouse=True)
def _always_clean():
    yield
    obs.disable()
    obs.reset()


def synthetic_journal(records, meta=None):
    return Journal(schema=JOURNAL_SCHEMA, meta=meta or {}, records=records)


class TestToChromeTrace:
    def test_spans_become_complete_events(self):
        journal = synthetic_journal([
            {"kind": "span", "seq": 1, "ts": 10.5, "name": "trace.time",
             "duration_s": 0.5, "span_id": 1},
        ])
        document = to_chrome_trace(journal)
        (span,) = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert span["name"] == "trace.time"
        assert span["ts"] == 0.0  # rebased to the span's begin
        assert span["dur"] == 500_000.0  # 0.5 s in µs
        assert span["tid"] == MAIN_TID
        assert span["args"]["span_id"] == 1

    def test_queries_become_instants(self):
        journal = synthetic_journal([
            {"kind": "query", "seq": 1, "ts": 1.0, "unit": "decrement",
             "answer": "no", "node": 13, "source": "user"},
        ])
        document = to_chrome_trace(journal)
        (instant,) = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "query decrement? no"
        assert instant["args"]["node"] == 13
        assert instant["s"] == "t"

    def test_cache_records_become_running_counters(self):
        journal = synthetic_journal([
            {"kind": "cache", "seq": 1, "ts": 1.0, "cache": "analysis",
             "outcome": "miss"},
            {"kind": "cache", "seq": 2, "ts": 2.0, "cache": "analysis",
             "outcome": "hit"},
            {"kind": "cache", "seq": 3, "ts": 3.0, "cache": "analysis",
             "outcome": "disk-hit"},
        ])
        counters = [
            e for e in to_chrome_trace(journal)["traceEvents"]
            if e["ph"] == "C"
        ]
        assert [c["args"] for c in counters] == [
            {"hits": 0, "misses": 1},
            {"hits": 1, "misses": 1},
            {"hits": 2, "misses": 1},
        ]

    def test_mutants_sit_on_recorded_worker_lanes(self):
        # Two worker processes, each running two mutants back to back,
        # and one mutant settled in the parent (no start, no slice).
        records = [
            {"kind": "mutant", "seq": i, "ts": 110.0, "seconds": 1.0,
             "description": f"m{i}", "status": "localized",
             "pid": pid, "started": started}
            for i, (pid, started) in enumerate(
                [(4242, 100.0), (4343, 100.5), (4242, 101.0), (4343, 101.5)]
            )
        ] + [
            {"kind": "mutant", "seq": 4, "ts": 110.0, "seconds": 0.0,
             "description": "unreached", "status": "equivalent",
             "pid": None, "started": None},
        ]
        document = to_chrome_trace(synthetic_journal(records))
        slices = {
            e["name"]: e for e in document["traceEvents"]
            if e.get("cat") == "mutant"
        }
        assert set(slices) == {"m0", "m1", "m2", "m3"}
        lane = {name: event["tid"] for name, event in slices.items()}
        assert lane["m0"] == lane["m2"] == WORKER_TID_BASE
        assert lane["m1"] == lane["m3"] == WORKER_TID_BASE + 1
        # each slice starts where it was measured, rebased to m0's start
        assert [slices[f"m{i}"]["ts"] for i in range(4)] == [
            0.0, 500_000.0, 1_000_000.0, 1_500_000.0
        ]
        assert all(event["dur"] == 1_000_000.0 for event in slices.values())
        thread_names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "sweep worker 0 (pid 4242)" in thread_names
        assert "sweep worker 1 (pid 4343)" in thread_names

    def test_mutants_without_a_start_draw_no_lane(self):
        # journals written before mutants recorded their start
        records = [
            {"kind": "mutant", "seq": 1, "ts": 102.0, "seconds": 1.0,
             "description": "m1", "status": "localized"},
        ]
        events = to_chrome_trace(synthetic_journal(records))["traceEvents"]
        assert not [e for e in events if e.get("cat") == "mutant"]
        assert {e.get("tid") for e in events if e["ph"] == "M"} == {None, MAIN_TID}

    def test_metadata_names_process_and_main_track(self):
        document = to_chrome_trace(synthetic_journal([]))
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in metadata}
        assert names["process_name"] == "repro (GADT pipeline)"
        assert names["thread_name"] == "pipeline"

    def test_other_data_carries_journal_meta(self):
        journal = synthetic_journal(
            [], meta={"command": "debug", "program": "f.pas",
                      "backend": "compiled"}
        )
        other = to_chrome_trace(journal)["otherData"]
        assert other["schema"] == JOURNAL_SCHEMA
        assert other["command"] == "debug"
        assert other["backend"] == "compiled"

    def test_events_sorted_by_timestamp(self):
        journal = synthetic_journal([
            {"kind": "query", "seq": 1, "ts": 5.0, "unit": "b"},
            {"kind": "query", "seq": 2, "ts": 1.0, "unit": "a"},
        ])
        instants = [
            e for e in to_chrome_trace(journal)["traceEvents"]
            if e["ph"] == "i"
        ]
        assert [i["ts"] for i in instants] == sorted(i["ts"] for i in instants)


class TestExportJournal:
    def record(self, path):
        with recording(str(path), meta={"source": FIGURE4_SOURCE}):
            system = GadtSystem.from_source(FIGURE4_SOURCE)
            oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
            system.debugger(oracle).debug()

    def test_real_session_round_trip(self, tmp_path):
        journal_path = tmp_path / "session.jsonl"
        self.record(journal_path)
        output = export_journal(str(journal_path))
        assert output == f"{journal_path}.perfetto.json"
        document = json.loads(open(output).read())
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        assert document["displayTimeUnit"] == "ms"
        # spans and instants are all non-negative µs after rebasing
        for event in document["traceEvents"]:
            if "ts" in event:
                assert event["ts"] >= 0

    def test_explicit_output_and_chrome_alias(self, tmp_path):
        journal_path = tmp_path / "session.jsonl"
        self.record(journal_path)
        out = tmp_path / "trace.json"
        assert export_journal(str(journal_path), str(out), fmt="chrome") == str(out)
        assert json.loads(out.read_text())["traceEvents"]

    def test_headerless_events_capture_exports(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps(
            {"kind": "span", "seq": 1, "ts": 1.0, "name": "s",
             "duration_s": 0.1}
        ) + "\n")
        document = json.loads(
            open(export_journal(str(path), str(tmp_path / "o.json"))).read()
        )
        assert document["otherData"]["schema"] == "events-only"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export_journal(str(tmp_path / "j.jsonl"), fmt="svg")

    def test_cli_export(self, tmp_path, capsys):
        from repro.cli import main

        journal_path = tmp_path / "session.jsonl"
        self.record(journal_path)
        out = tmp_path / "trace.perfetto.json"
        assert main(["export", str(journal_path), "-o", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_cli_export_bad_input_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "torn.jsonl"
        path.write_text("{nope")
        assert main(["export", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
