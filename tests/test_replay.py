"""Tests for deterministic session replay (repro.core.replay)."""

import json

import pytest

from repro import obs
from repro.core import GadtSystem, ReferenceOracle, replay_file, replay_journal
from repro.obs.journal import JournalError, read_journal, recording
from repro.pascal import analyze_source
from repro.workloads import FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE


@pytest.fixture(autouse=True)
def _always_clean():
    yield
    obs.disable()
    obs.reset()


def record_fig4_session(path, backend=None):
    """One recorded paper-arrsum (Figure 4) debug session."""
    meta = {
        "source": FIGURE4_SOURCE,
        "backend": backend,
        "strategy": "top-down",
        "enable_slicing": True,
    }
    with recording(str(path), meta=meta):
        system = GadtSystem.from_source(FIGURE4_SOURCE, backend=backend)
        oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
        result = system.debugger(oracle).debug()
    assert result.bug_unit == "decrement"
    return result


class TestReplayIdentical:
    def test_same_backend_reproduces_transcript(self, tmp_path):
        path = tmp_path / "session.jsonl"
        original = record_fig4_session(path)
        report = replay_file(str(path))
        assert report.ok, report.divergences
        assert report.bug_unit == "decrement"
        assert report.queries == original.queries_by_source["user"] + (
            original.auto_answers
        )
        assert report.divergences == []
        # the replayed accounting matches the recorded one field for field
        recorded = read_journal(str(path)).session()["report"]
        for key in ("queries", "user_questions", "slices", "bug_unit"):
            assert report.session_report[key] == recorded[key]

    @pytest.mark.parametrize("record_on,replay_on", [
        ("interp", "compiled"),
        ("compiled", "interp"),
    ])
    def test_cross_backend_replay(self, tmp_path, record_on, replay_on):
        """The acceptance bar: a session recorded on one backend replays
        identically on the other — question sequence, verdicts, and
        final accounting all line up after node-id normalization."""
        path = tmp_path / "session.jsonl"
        record_fig4_session(path, backend=record_on)
        report = replay_file(str(path), backend=replay_on)
        assert report.ok, report.divergences
        assert report.backend == replay_on
        assert report.bug_unit == "decrement"

    def test_replay_leaves_obs_disabled(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        replay_file(str(path))
        assert not obs.enabled()


class TestReplayDivergence:
    def test_tampered_answer_diverges(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        lines = path.read_text().splitlines()
        tampered = []
        flipped = False
        for line in lines:
            record = json.loads(line)
            if (
                not flipped
                and record.get("kind") == "query"
                and record.get("unit") == "decrement"
            ):
                record["answer"] = "yes"
                flipped = True
            tampered.append(json.dumps(record))
        assert flipped
        out = tmp_path / "tampered.jsonl"
        out.write_text("\n".join(tampered) + "\n")
        report = replay_file(str(out))
        assert not report.ok
        assert report.divergences

    def test_dropped_query_diverges(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        lines = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") != "query"
            or json.loads(line).get("unit") != "decrement"
        ]
        out = tmp_path / "truncated.jsonl"
        out.write_text("\n".join(lines) + "\n")
        report = replay_file(str(out))
        assert not report.ok

    def test_relabelled_source_names_the_query(self, tmp_path):
        """A recorded cache answer must be a cache hit of the re-run."""
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        relabelled = [r for r in records if r.get("kind") == "query"][1]
        assert relabelled["source"] == "user"
        relabelled["source"] = "cache"
        out = tmp_path / "relabelled.jsonl"
        out.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        report = replay_file(str(out))
        assert not report.ok
        assert (
            f"{relabelled['unit']} (node {relabelled['node']})"
            in report.render()
        )

    def test_cache_answer_the_rerun_never_hits_diverges(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        second = [r for r in records if r.get("kind") == "query"][1]
        records.insert(records.index(second) + 1, {**second, "source": "cache"})
        out = tmp_path / "cached.jsonl"
        out.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        report = replay_file(str(out))
        assert not report.ok
        assert any(
            divergence.startswith("query sequence differs (query #3: recorded")
            and "'source': 'cache'" in divergence
            for divergence in report.divergences
        ), report.divergences

    def test_render_mentions_divergence(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        journal = read_journal(str(path))
        journal.queries()[0]["unit"] = "bogus"
        report = replay_journal(journal)
        assert not report.ok
        assert "DIVERGED" in report.render()
        assert "bogus" in report.render()


class TestReplayErrors:
    def test_no_source_in_meta(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with recording(str(path)):  # no meta
            system = GadtSystem.from_source(FIGURE4_SOURCE)
            oracle = ReferenceOracle(analyze_source(FIGURE4_FIXED_SOURCE))
            system.debugger(oracle).debug()
        with pytest.raises(JournalError, match="no program source"):
            replay_file(str(path))

    def test_no_queries_recorded(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with recording(str(path), meta={"source": FIGURE4_SOURCE}):
            GadtSystem.from_source(FIGURE4_SOURCE)  # trace only, no debug
        with pytest.raises(JournalError, match="no debug queries"):
            replay_file(str(path))

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"kind": "query"}\n')
        with pytest.raises(JournalError):
            replay_file(str(path))


class TestReplayCli:
    def write_programs(self, tmp_path):
        buggy = tmp_path / "fig4.pas"
        fixed = tmp_path / "fig4_fixed.pas"
        buggy.write_text(FIGURE4_SOURCE)
        fixed.write_text(FIGURE4_FIXED_SOURCE)
        return buggy, fixed

    def test_record_then_replay_both_backends(self, tmp_path, capsys):
        from repro.cli import main

        buggy, fixed = self.write_programs(tmp_path)
        journal = tmp_path / "session.jsonl"
        assert main([
            "debug", str(buggy), "--reference", str(fixed),
            "--quiet", "--journal", str(journal),
        ]) == 0
        assert main(["replay", str(journal)]) == 0
        assert main(["replay", str(journal), "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        # the CLI meta captured everything a re-run needs
        meta = read_journal(str(journal)).meta
        assert meta["source"] == FIGURE4_SOURCE
        assert meta["command"] == "debug"
        assert meta["enable_slicing"] is True

    def test_divergence_exits_1(self, tmp_path, capsys):
        from repro.cli import main

        buggy, fixed = self.write_programs(tmp_path)
        journal = tmp_path / "session.jsonl"
        main([
            "debug", str(buggy), "--reference", str(fixed),
            "--quiet", "--journal", str(journal),
        ])
        tampered = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "verdict":
                record["verdict"] = "correct"
            tampered.append(json.dumps(record))
        journal.write_text("\n".join(tampered) + "\n")
        assert main(["replay", str(journal)]) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_meta_records_only_the_backend_flag(self, tmp_path, capsys, monkeypatch):
        """The process default is not the session's choice: a journal
        recorded under an unnormalised ``REPRO_BACKEND`` records no
        backend, and replay uses the trace record's resolved one."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_BACKEND", "Compiled ")
        buggy, fixed = self.write_programs(tmp_path)
        journal = tmp_path / "session.jsonl"
        assert main([
            "debug", str(buggy), "--reference", str(fixed),
            "--quiet", "--journal", str(journal),
        ]) == 0
        assert read_journal(str(journal)).meta["backend"] is None
        assert main(["replay", str(journal)]) == 0
        assert "replay (compiled backend): identical" in capsys.readouterr().out

    def test_invalid_recorded_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        buggy, fixed = self.write_programs(tmp_path)
        journal = tmp_path / "session.jsonl"
        assert main([
            "debug", str(buggy), "--reference", str(fixed),
            "--quiet", "--journal", str(journal),
        ]) == 0
        header, *rest = journal.read_text().splitlines()
        record = json.loads(header)
        record["meta"]["backend"] = "Compiled "
        journal.write_text("\n".join([json.dumps(record), *rest]) + "\n")
        capsys.readouterr()
        assert main(["replay", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'Compiled '" in err
        assert "Traceback" not in err

    def test_bad_journal_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "not_a_journal.jsonl"
        path.write_text("{}\n")
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTruncatedJournalReplay:
    """An incomplete session (crashed writer) must not replay: the
    reader salvages the prefix, but ``repro replay`` refuses with a
    clear message and exit code 2."""

    def truncate_last_line(self, path):
        text = path.read_text()
        assert text.endswith("\n")
        path.write_text(text[: len(text) - 20])  # tear the final record

    def test_replay_file_raises_journal_error(self, tmp_path):
        path = tmp_path / "session.jsonl"
        record_fig4_session(path)
        self.truncate_last_line(path)
        journal = read_journal(str(path))
        assert journal.truncated  # the reader tolerates it...
        with pytest.raises(JournalError, match="truncated"):
            replay_file(str(path))  # ...but the replayer refuses

    def test_cli_exits_2_with_a_clear_message(self, tmp_path, capsys):
        from repro.cli import main

        buggy = tmp_path / "fig4.pas"
        fixed = tmp_path / "fig4_fixed.pas"
        buggy.write_text(FIGURE4_SOURCE)
        fixed.write_text(FIGURE4_FIXED_SOURCE)
        journal = tmp_path / "session.jsonl"
        assert main([
            "debug", str(buggy), "--reference", str(fixed),
            "--quiet", "--journal", str(journal),
        ]) == 0
        self.truncate_last_line(journal)
        assert main(["replay", str(journal)]) == 2
        err = capsys.readouterr().err
        assert "truncated" in err
        assert "line" in err
