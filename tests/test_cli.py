"""Tests for the command-line interface."""

import json
import os

import pytest

from repro import __version__
from repro.cli import main
from repro.workloads import FIGURE2_SOURCE, FIGURE4_FIXED_SOURCE, FIGURE4_SOURCE
from repro.workloads.arrsum_spec import ARRSUM_SPEC_TEXT


@pytest.fixture()
def fig4(tmp_path):
    path = tmp_path / "fig4.pas"
    path.write_text(FIGURE4_SOURCE)
    return str(path)


@pytest.fixture()
def fig4_fixed(tmp_path):
    path = tmp_path / "fig4_fixed.pas"
    path.write_text(FIGURE4_FIXED_SOURCE)
    return str(path)


@pytest.fixture()
def fig2(tmp_path):
    path = tmp_path / "fig2.pas"
    path.write_text(FIGURE2_SOURCE)
    return str(path)


class TestRun:
    def test_run_program(self, fig4, capsys):
        assert main(["run", fig4]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_run_with_inputs(self, fig2, capsys):
        assert main(["run", fig2, "--input", "5", "--input", "7", "--input", "9"]) == 0

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.pas"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.pas"
        bad.write_text("program ; begin end.")
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_trace_prints_tree(self, fig4, capsys):
        assert main(["trace", fig4]) == 0
        out = capsys.readouterr().out
        assert "computs(In y: 3, Out r1: 12, Out r2: 9)" in out
        assert out.startswith("Main")

    def test_trace_json(self, fig4, capsys):
        import json

        assert main(["trace", fig4, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["root"]["unit"] == "main"


class TestTransform:
    def test_transform_prints_program(self, tmp_path, capsys):
        source = tmp_path / "g.pas"
        source.write_text(
            "program g; var total: integer; "
            "procedure bump; begin total := total + 1 end; "
            "begin total := 0; bump; writeln(total) end."
        )
        assert main(["transform", str(source)]) == 0
        out = capsys.readouterr().out
        assert "procedure bump(var total: integer);" in out

    def test_instrumented_flag(self, tmp_path, capsys):
        source = tmp_path / "g.pas"
        source.write_text(
            "program g; var x: integer; "
            "procedure p(var v: integer); begin v := 1 end; "
            "begin p(x) end."
        )
        assert main(["transform", str(source), "--instrumented"]) == 0
        out = capsys.readouterr().out
        assert "gadt_enter_unit" in out


class TestSlice:
    def test_static_slice(self, fig2, capsys):
        assert main(["slice", fig2, "--routine", "p", "--variable", "mul"]) == 0
        out = capsys.readouterr().out
        assert "mul := x * y" in out
        assert "sum" not in out

    def test_dynamic_slice(self, fig4, capsys):
        assert main(
            ["slice", fig4, "--unit", "computs", "--variable", "r1"]
        ) == 0
        out = capsys.readouterr().out
        assert "comput1" in out
        assert "comput2" not in out

    def test_unknown_variable(self, fig2, capsys):
        assert main(["slice", fig2, "--routine", "p", "--variable", "zzz"]) == 2


class TestDebug:
    def test_debug_with_reference(self, fig4, fig4_fixed, capsys):
        assert main(
            ["debug", fig4, "--reference", fig4_fixed, "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "An error has been localized inside the body of decrement." in out
        assert "original source of decrement" in out
        assert "decrement := y + 1" in out

    def test_debug_without_slicing(self, fig4, fig4_fixed, capsys):
        assert main(
            [
                "debug",
                fig4,
                "--reference",
                fig4_fixed,
                "--quiet",
                "--no-slicing",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "slices: 0" in out

    def test_debug_strategy_choice(self, fig4, fig4_fixed, capsys):
        assert main(
            [
                "debug",
                fig4,
                "--reference",
                fig4_fixed,
                "--quiet",
                "--strategy",
                "divide-and-query",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "decrement" in out

    def test_debug_accepts_every_registered_strategy(
        self, fig4, fig4_fixed, capsys
    ):
        from repro.core import available_strategies

        for strategy in available_strategies():
            assert main(
                [
                    "debug",
                    fig4,
                    "--reference",
                    fig4_fixed,
                    "--quiet",
                    "--strategy",
                    strategy,
                ]
            ) == 0
            assert "decrement" in capsys.readouterr().out

    def test_unknown_strategy_exits_2_listing_choices(
        self, fig4, fig4_fixed, capsys
    ):
        assert main(
            [
                "debug",
                fig4,
                "--reference",
                fig4_fixed,
                "--strategy",
                "quantum-bisect",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "quantum-bisect" in err
        assert "dq-optimal" in err  # choices come from the registry

    def test_stats_accepts_strategy(self, fig4, fig4_fixed, capsys):
        assert main(
            [
                "stats",
                fig4,
                "--reference",
                fig4_fixed,
                "--strategy",
                "dq-optimal",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "decrement" in out


class TestFrames:
    def test_frames_from_spec(self, tmp_path, capsys):
        spec = tmp_path / "arrsum.spec"
        spec.write_text(ARRSUM_SPEC_TEXT)
        assert main(["frames", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "8 frames" in out
        assert "(more, mixed, large)" in out
        assert "script_1: 2 frame(s)" in out

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("category without test header;")
        assert main(["frames", str(spec)]) == 2


class TestMutate:
    SMALL = (
        "program t; var r: integer; "
        "function f(x: integer): integer; begin f := x * 2 end; "
        "begin r := f(3); writeln(r) end."
    )

    def test_list_mutants(self, tmp_path, capsys):
        path = tmp_path / "s.pas"
        path.write_text(self.SMALL)
        assert main(["mutate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mutants" in out
        assert "* -> +" in out

    def test_evaluate_reports_accuracy(self, tmp_path, capsys):
        path = tmp_path / "s.pas"
        path.write_text(self.SMALL)
        assert main(["mutate", str(path), "--evaluate"]) == 0
        out = capsys.readouterr().out
        assert "localization accuracy:" in out

    def test_operators_only(self, tmp_path, capsys):
        path = tmp_path / "s.pas"
        path.write_text(self.SMALL)
        assert main(["mutate", str(path), "--operators-only"]) == 0
        out = capsys.readouterr().out
        assert "[constant]" not in out

    def test_evaluate_reports_outcome_breakdown(self, tmp_path, capsys):
        path = tmp_path / "s.pas"
        path.write_text(self.SMALL)
        assert main(["mutate", str(path), "--evaluate"]) == 0
        out = capsys.readouterr().out
        assert "not_localized" in out
        outcome_line = next(
            line for line in out.splitlines() if line.startswith("outcomes:")
        )
        for status in (
            "localized",
            "mislocalized",
            "not_localized",
            "equivalent",
            "crashed",
        ):
            assert f"{status} " in outcome_line


class TestExitCodes:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self, fig4, capsys):
        assert main(["run", fig4, "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_missing_input_is_code_2(self, capsys):
        assert main(["run", "/nonexistent.pas"]) == 2

    @pytest.mark.parametrize(
        "command", ["run", "trace", "debug", "slice", "stats", "profile"]
    )
    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_bad_input_value_is_usage_error(self, fig4, command, value, capsys):
        assert main([command, fig4, "--input", value]) == 2
        err = capsys.readouterr().err
        assert f"argument --input: not an integer or boolean: '{value}'" in err

    def test_zero_workers_is_usage_error(self, fig4, capsys):
        for argv in (["mutate", fig4, "--evaluate"], ["serve", "--stdio"]):
            assert main([*argv, "--workers", "0"]) == 2
            err = capsys.readouterr().err
            assert "argument --workers: not a positive integer: '0'" in err

    def test_unwritable_journal_is_an_error(self, fig4, tmp_path, capsys):
        from repro import obs

        journal = tmp_path / "missing" / "j.jsonl"
        assert main(["debug", fig4, "--journal", str(journal)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not obs.enabled()

    def test_negative_outcome_is_code_1(self, fig4_fixed, capsys):
        # querying the symptom on the *fixed* program: root behaves as
        # intended, so nothing is localized
        assert main(
            [
                "debug",
                fig4_fixed,
                "--reference",
                fig4_fixed,
                "--quiet",
                "--query-symptom",
            ]
        ) == 1
        assert "nothing to localize" in capsys.readouterr().out

    def test_query_symptom_still_localizes_real_bug(self, fig4, fig4_fixed, capsys):
        assert main(
            [
                "debug",
                fig4,
                "--reference",
                fig4_fixed,
                "--quiet",
                "--query-symptom",
            ]
        ) == 0
        assert "decrement" in capsys.readouterr().out


class TestProfileAndEvents:
    def test_debug_profile_prints_answer_sources(self, fig4, fig4_fixed, capsys):
        assert main(
            ["debug", fig4, "--reference", fig4_fixed, "--quiet", "--profile"]
        ) == 0
        captured = capsys.readouterr()
        source_lines = [
            line
            for line in captured.out.splitlines()
            if line.startswith("answer sources:")
        ]
        assert len(source_lines) == 1
        line = source_lines[0]
        for label in ("assertion", "test-db", "slice-pruned", "cache", "user"):
            assert f"{label} " in line
        # breakdown sums to the advertised total
        counts = {
            label: int(count)
            for label, count in zip(
                ("assertion", "test-db", "slice-pruned", "cache", "user"),
                [
                    part.rsplit(" ", 1)[1]
                    for part in line.split(": ", 1)[1].split(" (")[0].split(", ")
                ],
            )
        }
        total = int(line.split("(total ")[1].split(",")[0])
        assert sum(counts.values()) == total
        # the obs summary goes to stderr, not stdout
        assert "== observability ==" in captured.err
        assert "debug.session" in captured.err

    def test_debug_events_jsonl(self, fig4, fig4_fixed, tmp_path, capsys):
        journal_path = tmp_path / "session.journal.jsonl"
        assert main(
            [
                "debug",
                fig4,
                "--reference",
                fig4_fixed,
                "--quiet",
                "--journal",
                str(journal_path),
            ]
        ) == 0
        header, *events = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        assert header["kind"] == "journal"
        assert events
        kinds = {event["kind"] for event in events}
        assert "query" in kinds
        (session,) = [e for e in events if e["kind"] == "session"]
        queries = session["report"]["queries"]
        assert queries["total"] == sum(queries["by_source"].values()) > 0

    def test_profile_left_disabled_after_command(self, fig4, fig4_fixed, capsys):
        from repro import obs

        assert main(
            ["debug", fig4, "--reference", fig4_fixed, "--quiet", "--profile"]
        ) == 0
        assert not obs.enabled()

    def test_trace_profile_summarizes_phases(self, fig4, capsys):
        assert main(["trace", fig4, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "== observability ==" in err
        assert "trace.execute" in err


class TestBackendIsAnArgument:
    """``--backend`` reaches the library as an argument: no command
    writes the process environment, not even while it runs."""

    FAILING = "program t; var x: integer; begin x := 0; writeln(1 div x) end."

    @pytest.fixture()
    def calls(self, monkeypatch):
        """(entry point, backend= argument, REPRO_BACKEND at call time)
        for every call of the library entry points the commands use."""
        import repro.cli as cli
        import repro.workloads.mutants as mutants
        from repro.core import GadtSystem, ReferenceOracle

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        seen = []

        def spy(name, original):
            def call(*args, **kwargs):
                env = os.environ.get("REPRO_BACKEND")
                seen.append((name, kwargs.get("backend"), env))
                return original(*args, **kwargs)

            return call

        for owner, name in (
            (cli, "run_source"),
            (cli, "trace_source"),
            (mutants, "evaluate_mutants"),
        ):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        for owner in (GadtSystem, ReferenceOracle):
            name = f"{owner.__name__}.from_source"
            monkeypatch.setattr(
                owner,
                "from_source",
                staticmethod(spy(name, owner.from_source)),
            )
        return seen

    @pytest.mark.parametrize(
        "argv, expected_code, entry_points",
        [
            (["run", "{fig4}"], 0, {"run_source"}),
            (["run", "{failing}"], 2, {"run_source"}),
            (["trace", "{fig4}"], 0, {"trace_source"}),
            (
                ["debug", "{fig4}", "--reference", "{fixed}", "--quiet"],
                0,
                {"GadtSystem.from_source", "ReferenceOracle.from_source"},
            ),
            (
                ["stats", "{fig4}", "--reference", "{fixed}"],
                0,
                {"GadtSystem.from_source", "ReferenceOracle.from_source"},
            ),
            (
                ["mutate", "{small}", "--evaluate"],
                0,
                {"evaluate_mutants", "ReferenceOracle.from_source"},
            ),
        ],
        ids=["run", "run-exits-2", "trace", "debug", "stats", "mutate"],
    )
    def test_backend_travels_as_an_argument(
        self, argv, expected_code, entry_points, calls, fig4, fig4_fixed, tmp_path,
        capsys,
    ):
        failing = tmp_path / "failing.pas"
        failing.write_text(self.FAILING)
        small = tmp_path / "small.pas"
        small.write_text(TestMutate.SMALL)
        paths = {"fig4": fig4, "fixed": fig4_fixed, "failing": failing, "small": small}
        argv = [arg.format(**paths) for arg in argv] + ["--backend", "interp"]
        before = dict(os.environ)
        assert main(argv) == expected_code
        assert dict(os.environ) == before
        assert entry_points <= {name for name, _, _ in calls}
        for name, backend, env in calls:
            assert (name, backend, env) == (name, "interp", None)


class TestStats:
    def test_stats_reports_pipeline_numbers(self, fig4, capsys):
        assert main(["stats", fig4]) == 0
        out = capsys.readouterr().out
        assert "program: main" in out
        assert "tree: " in out and "activation(s)" in out
        assert "dependences: " in out and "edge(s)" in out
        assert "== observability ==" in out

    def test_stats_with_reference_runs_session(self, fig4, fig4_fixed, capsys):
        assert main(["stats", fig4, "--reference", fig4_fixed]) == 0
        out = capsys.readouterr().out
        assert "localized: decrement" in out
        assert "answer sources:" in out

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nonexistent.pas"]) == 2

    def test_stats_json(self, fig4, capsys):
        assert main(["stats", fig4, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "main"
        assert payload["backend"] in ("interp", "compiled")
        assert payload["tree_nodes"] > 0
        assert "counters" in payload["metrics"]
        assert "session" not in payload

    def test_stats_json_with_reference(self, fig4, fig4_fixed, capsys):
        assert main(["stats", fig4, "--reference", fig4_fixed, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["session"]["bug_unit"] == "decrement"
        assert payload["session"]["schema"] == "gadt_session/1"
