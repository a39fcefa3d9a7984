"""The persistent sharded test-report store (repro.store)."""

import pytest

from repro.core import GadtSystem, ScriptedOracle
from repro.core.queries import Answer
from repro.pascal.values import UNDEFINED, ArrayValue
from repro.store import (
    OpaqueValue,
    SegmentCorrupt,
    ShardedReportStore,
    StoreError,
    report_from_dict,
    report_to_dict,
    shard_of,
)
from repro.store.segments import read_segment, segment_names, write_segment
from repro.tgen import CaseRunner, TestCaseLookup, generate_frames, instantiate_cases
from repro.tgen.lookup import LookupStatus, ReportBackend
from repro.tgen.reports import TestReport, TestReportDatabase, Verdict
from repro.workloads import FIGURE4_SOURCE
from repro.workloads.arrsum_spec import (
    arrsum_frame_selector,
    arrsum_spec,
    make_arrsum_instantiator,
)


def report(unit="u", key=("a",), verdict=Verdict.PASS, **kwargs):
    return TestReport(unit=unit, frame_key=tuple(key), verdict=verdict, **kwargs)


class TestCodec:
    def test_report_round_trip(self):
        original = report(
            unit="arrsum",
            key=("more", "mixed", "large"),
            verdict=Verdict.FAIL,
            case_args=(ArrayValue.from_values([1, -2, 3]), 3, True, UNDEFINED),
            outputs=(("s", -7), ("ok", False)),
            detail="s: expected 2, got -7",
            script="script_1",
        )
        rebuilt = report_from_dict(report_to_dict(original))
        assert rebuilt == original

    def test_unknown_values_degrade_to_repr(self):
        original = report(case_args=(object(),))
        rebuilt = report_from_dict(report_to_dict(original))
        (value,) = rebuilt.case_args
        assert isinstance(value, OpaqueValue)
        # and the opaque value itself round-trips stably
        assert report_from_dict(report_to_dict(rebuilt)) == rebuilt


class TestSegments:
    def test_write_read_round_trip(self, tmp_path):
        reports = [report(key=("a", str(i))) for i in range(5)]
        path = write_segment(tmp_path, reports)
        segment = read_segment(path)
        assert list(segment.reports) == reports

    def test_publish_leaves_no_tmp_files(self, tmp_path):
        write_segment(tmp_path, [report()])
        assert len(segment_names(tmp_path)) == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_damaged_segment_quarantined(self, tmp_path):
        path = write_segment(tmp_path, [report()])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SegmentCorrupt):
            read_segment(path)
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        assert segment_names(tmp_path) == []


class TestShardedStore:
    def test_is_a_report_backend(self, tmp_path):
        assert isinstance(ShardedReportStore(tmp_path), ReportBackend)

    def test_sharding_is_stable_and_spread(self, tmp_path):
        store = ShardedReportStore(tmp_path, shards=8)
        units = [f"unit{i}" for i in range(64)]
        assert {shard_of(unit, 8) for unit in units} != {0}
        for unit in units:
            assert store.shard_of(unit) == shard_of(unit, 8)

    def test_buffered_reports_served_before_flush(self, tmp_path):
        store = ShardedReportStore(tmp_path, flush_threshold=1000)
        store.add(report())
        assert store.verdict_for("u", ("a",)) is Verdict.PASS
        assert store.stats()["buffered"] == 1
        assert store.stats()["segments"] == 0

    def test_flush_threshold_publishes_a_segment(self, tmp_path):
        store = ShardedReportStore(tmp_path, shards=1, flush_threshold=3)
        for i in range(3):
            store.add(report(key=("a", str(i))))
        stats = store.stats()
        assert stats["segments"] == 1
        assert stats["buffered"] == 0

    def test_reopen_after_close_serves_reports(self, tmp_path):
        with ShardedReportStore(tmp_path, shards=4) as store:
            store.add(report(unit="alpha", verdict=Verdict.PASS))
            store.add(report(unit="beta", verdict=Verdict.FAIL))
        reopened = ShardedReportStore(tmp_path)
        assert reopened.shards == 4  # meta wins over the default arg
        assert reopened.verdict_for("alpha", ("a",)) is Verdict.PASS
        assert reopened.verdict_for("beta", ("a",)) is Verdict.FAIL
        assert reopened.verdict_for("gamma", ("a",)) is None
        assert len(reopened) == 2

    def test_closed_store_rejects_use(self, tmp_path):
        store = ShardedReportStore(tmp_path)
        store.close()
        with pytest.raises(StoreError):
            store.add(report())
        with pytest.raises(StoreError):
            store.lookup("u", ("a",))
        store.close()  # idempotent

    def test_conflicting_verdicts_are_inconclusive(self, tmp_path):
        store = ShardedReportStore(tmp_path)
        store.add(report(verdict=Verdict.PASS))
        store.flush()
        store.add(report(verdict=Verdict.FAIL))
        assert store.verdict_for("u", ("a",)) is Verdict.INCONCLUSIVE

    def test_matches_in_memory_database_api(self, tmp_path):
        memory = TestReportDatabase()
        store = ShardedReportStore(tmp_path, shards=3, flush_threshold=2)
        rows = [
            report(unit=unit, key=key, verdict=verdict)
            for unit in ("alpha", "beta")
            for key in (("x",), ("y",))
            for verdict in (Verdict.PASS, Verdict.PASS)
        ]
        for row in rows:
            memory.add(row)
            store.add(row)
        assert store.units() == memory.units()
        assert sorted(store.frames_of("alpha")) == sorted(memory.frames_of("alpha"))
        assert len(store) == len(memory)
        assert sorted(r.render() for r in store.all_reports()) == sorted(
            r.render() for r in memory.all_reports()
        )

    def test_lru_eviction_and_hit_rate(self, tmp_path):
        store = ShardedReportStore(
            tmp_path, shards=1, flush_threshold=1, cache_capacity=2
        )
        for key in ("p", "q", "r"):
            store.add(report(key=(key,)))
        store.lookup("u", ("p",))  # scan fills the LRU (capacity 2)
        store.lookup("u", ("p",))  # hit
        store.lookup("u", ("p",))  # hit
        stats = store.stats()
        assert stats["lru_hits"] == 2
        assert stats["scans"] == 1
        assert 0.0 < stats["hit_rate"] < 1.0
        # "q" was evicted by capacity, so it costs a fresh scan
        store.lookup("u", ("q",))
        assert store.stats()["scans"] == 2

    def test_lookup_sees_segments_from_other_writers(self, tmp_path):
        reader = ShardedReportStore(tmp_path, shards=1)
        assert reader.lookup("u", ("a",)) == []
        writer = ShardedReportStore(tmp_path)  # a second process, in effect
        writer.add(report())
        writer.flush()
        assert reader.verdict_for("u", ("a",)) is Verdict.PASS

    def test_compact_merges_segments_and_duplicates(self, tmp_path):
        store = ShardedReportStore(tmp_path, shards=2, flush_threshold=1)
        for _ in range(3):
            store.add(report())  # three identical rows, three segments
        store.add(report(unit="v", verdict=Verdict.FAIL))
        merged = store.compact()
        assert merged["segments_before"] == 4
        assert merged["segments_after"] == 2  # one per non-empty shard
        assert store.verdict_for("u", ("a",)) is Verdict.PASS
        assert store.verdict_for("v", ("a",)) is Verdict.FAIL
        assert len(store) == 2  # exact duplicates dropped

    def test_import_reports_round_trip(self, tmp_path):
        rows = [report(key=("k", str(i))) for i in range(10)]
        with ShardedReportStore(tmp_path / "db") as store:
            assert store.import_reports(rows) == 10
        assert len(ShardedReportStore(tmp_path / "db")) == 10

    def test_bad_meta_is_a_store_error(self, tmp_path):
        ShardedReportStore(tmp_path)
        (tmp_path / "meta.json").write_text("{\"format\": \"something-else\"}")
        with pytest.raises(StoreError):
            ShardedReportStore(tmp_path)

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ShardedReportStore(tmp_path / "a", shards=0)
        with pytest.raises(StoreError):
            ShardedReportStore(tmp_path / "b", flush_threshold=0)


class TestDebugFromReopenedStore:
    """The acceptance scenario: a session over a *reopened* on-disk
    store asks the user zero questions about units its imported test
    reports already cover."""

    def test_arrsum_queries_cost_no_user_interaction(self, tmp_path):
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        spec = arrsum_spec()
        cases = instantiate_cases(
            spec, generate_frames(spec), make_arrsum_instantiator(2)
        )
        # Testing phase, process one: run the cases straight into a store.
        with ShardedReportStore(tmp_path / "testdb") as store:
            CaseRunner(system.analysis).run_all(cases, database=store)

        # Debugging phase, "another process": reopen from disk.
        lookup = GadtSystem.store_lookup(
            tmp_path / "testdb",
            specs=[spec],
            selectors={"arrsum": arrsum_frame_selector},
        )
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
        result = system.debugger(oracle, test_lookup=lookup).debug()
        assert result.bug_unit == "decrement"
        asked = {e.text.split("(")[0] for e in result.session.user_questions()}
        assert "arrsum" not in asked  # zero user questions for covered units
        assert result.queries_by_source.get("test-db", 0) > 0
        # the per-source accounting still sums to the total
        rep = result.report()
        assert rep["queries"]["total"] == sum(rep["queries"]["by_source"].values())

    def test_store_backed_lookup_consults_like_memory(self, tmp_path):
        system = GadtSystem.from_source(FIGURE4_SOURCE)
        spec = arrsum_spec()
        cases = instantiate_cases(
            spec, generate_frames(spec), make_arrsum_instantiator(2)
        )
        memory = CaseRunner(system.analysis).run_all(cases)
        with ShardedReportStore(tmp_path / "db") as store:
            CaseRunner(system.analysis).run_all(cases, database=store)
        stored = TestCaseLookup(database=ShardedReportStore(tmp_path / "db"))
        stored.register(spec, arrsum_frame_selector)
        in_memory = TestCaseLookup(database=memory)
        in_memory.register(spec, arrsum_frame_selector)
        inputs = {"a": ArrayValue.from_values([1, 2]), "n": 2}
        assert (
            stored.consult("arrsum", inputs).status
            == in_memory.consult("arrsum", inputs).status
            == LookupStatus.VERIFIED
        )
