"""The ``repro testdb`` verbs and ``debug --testdb`` plumbing."""

import json

import pytest

from repro.cli import main
from repro.store import ShardedReportStore, report_to_dict
from repro.tgen.reports import TestReport, Verdict
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE
from repro.workloads.arrsum_spec import ARRSUM_SPEC_TEXT


def sample_reports():
    keys = [
        ("two", "positive", "small"),
        ("more", "mixed", "large"),
        ("more", "mixed", "average"),
        ("one", "positive", "small"),
    ]
    return [
        TestReport(unit="arrsum", frame_key=key, verdict=Verdict.PASS)
        for key in keys
    ]


@pytest.fixture()
def jsonl(tmp_path):
    path = tmp_path / "reports.jsonl"
    lines = [json.dumps(report_to_dict(report)) for report in sample_reports()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "testdb")


class TestImport:
    def test_import_round_trip(self, db, jsonl, capsys):
        assert main(["testdb", "import", db, jsonl, "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "imported 4 report(s) into 4 shard(s)" in out
        store = ShardedReportStore(db)
        assert store.shards == 4
        assert store.verdict_for("arrsum", ("two", "positive", "small")) is (
            Verdict.PASS
        )
        assert len(store) == 4

    def test_import_is_cumulative(self, db, jsonl, capsys):
        assert main(["testdb", "import", db, jsonl]) == 0
        assert main(["testdb", "import", db, jsonl]) == 0
        assert "8 total" in capsys.readouterr().out
        assert len(ShardedReportStore(db)) == 8

    def test_blank_lines_skipped(self, db, tmp_path, capsys):
        path = tmp_path / "gappy.jsonl"
        row = json.dumps(report_to_dict(sample_reports()[0]))
        path.write_text(f"\n{row}\n\n")
        assert main(["testdb", "import", db, str(path)]) == 0
        assert "imported 1 report(s)" in capsys.readouterr().out

    def test_bad_row_is_an_input_error(self, db, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"unit": "arrsum"}\n')  # missing required fields
        assert main(["testdb", "import", db, str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparsable_json_is_an_input_error(self, db, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert main(["testdb", "import", db, str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err

    def test_missing_reports_file(self, db, capsys):
        assert main(["testdb", "import", db, "/nonexistent.jsonl"]) == 2
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_stats_after_import(self, db, jsonl, capsys):
        main(["testdb", "import", db, jsonl])
        capsys.readouterr()
        assert main(["testdb", "stats", db]) == 0
        out = capsys.readouterr().out
        assert out.startswith("test-report store: format gadt-testdb/1")
        assert "shards      8" in out
        assert "reports     4" in out
        assert "quarantined 0 segment(s)" in out

    def test_per_shard_rows(self, db, jsonl, capsys):
        main(["testdb", "import", db, jsonl, "--shards", "2"])
        capsys.readouterr()
        assert main(["testdb", "stats", db, "--per-shard"]) == 0
        out = capsys.readouterr().out
        assert "shard 000:" in out
        assert "shard 001:" in out

    def test_stats_json(self, db, jsonl, capsys):
        import json

        main(["testdb", "import", db, jsonl])
        capsys.readouterr()
        assert main(["testdb", "stats", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "gadt-testdb/1"
        assert payload["shards"] == 8
        assert payload["reports"] == 4
        assert "per_shard" not in payload

    def test_stats_json_per_shard(self, db, jsonl, capsys):
        import json

        main(["testdb", "import", db, jsonl, "--shards", "2"])
        capsys.readouterr()
        assert main(["testdb", "stats", db, "--per-shard", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["shard"] for row in payload["per_shard"]] == [0, 1]
        assert all("reports" in row for row in payload["per_shard"])

    def test_stats_on_mismatched_format(self, tmp_path, capsys):
        store_dir = tmp_path / "notastore"
        store_dir.mkdir()
        (store_dir / "meta.json").write_text('{"format": "other/9"}')
        assert main(["testdb", "stats", str(store_dir)]) == 2
        assert "error" in capsys.readouterr().err


class TestCompact:
    def test_compact_merges_segments(self, db, jsonl, capsys):
        main(["testdb", "import", db, jsonl])
        main(["testdb", "import", db, jsonl])
        capsys.readouterr()
        assert main(["testdb", "compact", db]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        # two imports → duplicate rows collapse; reports survive
        store = ShardedReportStore(db)
        assert len(store) == 4
        assert store.verdict_for("arrsum", ("one", "positive", "small")) is (
            Verdict.PASS
        )


class TestMissingStore:
    @pytest.mark.parametrize("verb", ["stats", "compact"])
    def test_verb_on_missing_store_creates_nothing(self, tmp_path, verb, capsys):
        database = tmp_path / "typo"
        assert main(["testdb", verb, str(database)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: no test-report store at {database}\n"
        assert not database.exists()


class TestDebugWithTestdb:
    def test_debug_reference_session_with_store(self, db, jsonl, tmp_path, capsys):
        main(["testdb", "import", db, jsonl])
        capsys.readouterr()
        program = tmp_path / "fig4.pas"
        program.write_text(FIGURE4_SOURCE)
        fixed = tmp_path / "fixed.pas"
        fixed.write_text(FIGURE4_FIXED_SOURCE)
        spec = tmp_path / "arrsum.spec"
        spec.write_text(ARRSUM_SPEC_TEXT)
        code = main(
            [
                "debug",
                str(program),
                "--reference",
                str(fixed),
                "--testdb",
                db,
                "--spec",
                str(spec),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decrement" in out
        # arrsum is answered from the store (the built-in selector maps
        # its inputs to a frame), so the user pays the paper's six
        # questions and not one more.
        assert "questions: 6 user, 1 automatic" in out
