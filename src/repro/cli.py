"""Command-line interface to the GADT system.

    python -m repro run PROGRAM [--input V ...]
    python -m repro trace PROGRAM [--input V ...]
    python -m repro transform PROGRAM [--instrumented]
    python -m repro slice PROGRAM --variable V [--routine R | --unit U [--occurrence N]]
    python -m repro debug PROGRAM [--reference FIXED] [--strategy S]
                                  [--no-slicing] [--input V ...]
    python -m repro frames SPECFILE
    python -m repro mutate PROGRAM [--evaluate]
    python -m repro stats PROGRAM [--reference FIXED] [--json]
    python -m repro profile PROGRAM [--hotspots N] [--json]
    python -m repro replay JOURNAL [--backend B]
    python -m repro export JOURNAL [--format perfetto] [-o OUT]
    python -m repro testdb import DB_DIR REPORTS.jsonl [--shards N]
    python -m repro testdb stats DB_DIR [--per-shard] [--json]
    python -m repro testdb compact DB_DIR
    python -m repro serve --socket PATH | --stdio [--workers N] [--rate R]
    python -m repro serve --drain --socket PATH

`debug` without ``--reference`` runs an interactive session: you answer
the questions (yes / no / no <k> / no <name> / assert <expr> / ?); with
``--reference`` a simulated user backed by the fixed program answers.
With ``--testdb DIR`` (plus ``--spec FILE`` per tested unit) queries
are first answered from the persistent sharded test-report store at
``DIR`` — see ``docs/TESTDB.md`` and the ``testdb`` subcommands that
maintain such a store.

The ``run``, ``trace``, ``debug``, ``mutate``, and ``stats`` subcommands
take ``--profile`` (print a phase/metric summary on stderr after the
command) and ``--journal PATH`` (record the command's observability
events as a schema-versioned session journal that ``repro replay``
re-runs deterministically and ``repro export`` turns into a
Perfetto/Chrome trace); see ``docs/OBSERVABILITY.md``. The same
subcommands take ``--backend {interp,compiled}`` to pick the execution
engine, passed to the library as ``backend=`` (default: the
``REPRO_BACKEND`` environment variable, else compiled for traces and
the interpreter for plain runs); see ``docs/COMPILER.md``.

``run``, ``trace``, ``debug``, and ``mutate`` take ``--deadline S`` (a
wall-clock budget for program execution; a blown budget exits 2 — or,
with ``--degrade`` on the tracing commands, salvages a partial trace
and keeps going). ``mutate`` additionally takes ``--retries N`` for
crash-isolated parallel sweeps; see ``docs/ROBUSTNESS.md``.

``serve`` runs the fault-tolerant multi-session debug service: many
concurrent run/trace/debug/answer jobs as newline-delimited JSON over
a Unix socket (``--socket``) or stdio (``--stdio``), multiplexed over
one shared test-report store and a fixed pool of crash-isolated
workers, with admission control, per-tenant rate limits and circuit
breakers, deadlines, retries with jittered backoff, and graceful
degradation under load. ``serve --drain --socket PATH`` asks a running
server to finish in-flight jobs and shut down; see ``docs/SERVE.md``.

Exit codes are uniform across subcommands: **0** success, **1** the
command ran but the outcome is negative (bug not localized, mutation
accuracy below 100%), **2** usage or input errors (bad flags, missing or
unparsable files, unknown criteria).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.core import (
    AlgorithmicDebugger,
    GadtSystem,
    InteractiveOracle,
    ReferenceOracle,
    available_strategies,
)
from repro.pascal import analyze_source, print_program, run_source
from repro.pascal.errors import PascalError
from repro.slicing import DynamicCriterion, StaticCriterion, prune_tree, static_slice
from repro.store import StoreError
from repro.tgen import frames_by_script, generate_frames
from repro.tgen.spec_parser import SpecError, parse_spec
from repro.tracing import trace_source
from repro.transform import transform_source


def _read(path: str) -> str:
    return Path(path).read_text()


def _program_input(raw: str) -> object:
    """One ``--input`` value: an integer or a boolean."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer or boolean: {raw!r}"
        ) from None


def _positive_int(raw: str) -> int:
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise argparse.ArgumentTypeError(f"not a positive integer: {raw!r}")


def _existing_store(database: str):
    """The test-report store at ``database``, which must exist: only
    importing and debugging create one."""
    from repro.store import ShardedReportStore

    if not (Path(database) / "meta.json").exists():
        raise StoreError(f"no test-report store at {database}")
    return ShardedReportStore(database)


# ----------------------------------------------------------------------
# subcommands


def _budget(args: argparse.Namespace):
    """A started :class:`repro.resilience.Budget` for ``--deadline``,
    or None when no resource flag was given."""
    deadline = getattr(args, "deadline", None)
    if deadline is None:
        return None
    from repro.resilience import Budget

    return Budget.started(deadline_s=deadline)


def cmd_run(args: argparse.Namespace) -> int:
    result = run_source(
        _read(args.program),
        inputs=args.input or [],
        budget=_budget(args),
        backend=args.backend,
    )
    sys.stdout.write(result.output)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    trace = trace_source(
        _read(args.program),
        inputs=args.input or [],
        budget=_budget(args),
        degrade=getattr(args, "degrade", False),
        backend=args.backend,
    )
    if trace.degraded:
        print(
            f"warning: trace degraded ({trace.degraded_reason}); "
            f"{trace.truncated_nodes} activation(s) dropped",
            file=sys.stderr,
        )
    if args.json:
        from repro.tracing.serialize import dump_tree

        sys.stdout.write(dump_tree(trace.tree) + "\n")
    else:
        sys.stdout.write(trace.tree.render())
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    transformed = transform_source(_read(args.program))
    program = (
        transformed.instrumented.program if args.instrumented else transformed.program
    )
    sys.stdout.write(print_program(program))
    for warning in transformed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    source = _read(args.program)
    if args.unit:
        # Dynamic slice: criterion is an output of a unit activation.
        system = GadtSystem.from_source(
            source, program_inputs=args.input or []
        )
        node = system.trace.tree.find(args.unit, occurrence=args.occurrence)
        view = prune_tree(
            system.trace, DynamicCriterion(node=node, variable=args.variable)
        )
        sys.stdout.write(view.render())
        return 0
    analysis = analyze_source(source)
    routine = args.routine or analysis.program.name
    computed = static_slice(
        analysis, StaticCriterion.at_routine_exit(routine, args.variable)
    )
    sys.stdout.write(print_program(computed.extract_program()))
    return 0


def _testdb_lookup(args: argparse.Namespace, interactive: bool):
    """The store-backed test lookup for ``debug --testdb``, or None."""
    testdb = getattr(args, "testdb", None)
    if testdb is None:
        return None
    import repro.workloads.arrsum_spec  # noqa: F401  (registers its selector)
    from repro.tgen import FRAME_SELECTORS, TerminalMenu

    specs = [parse_spec(_read(path)) for path in args.spec or []]
    menu = TerminalMenu(output=sys.stdout) if interactive else None
    return GadtSystem.store_lookup(
        testdb, specs=specs, selectors=dict(FRAME_SELECTORS), menu=menu
    )


def cmd_debug(args: argparse.Namespace) -> int:
    source = _read(args.program)
    system = GadtSystem.from_source(
        source,
        program_inputs=args.input or [],
        budget=_budget(args),
        degrade=getattr(args, "degrade", False),
        backend=args.backend,
    )
    if not args.quiet:
        print("Execution tree:")
        print(system.trace.tree.render())

    if args.reference:
        oracle = ReferenceOracle.from_source(
            _read(args.reference),
            program_inputs=args.input or [],
            backend=args.backend,
        )
    else:
        oracle = InteractiveOracle(output=sys.stdout)

    debugger = system.debugger(
        oracle,
        strategy=args.strategy,
        test_lookup=_testdb_lookup(args, interactive=not args.reference),
        enable_slicing=not args.no_slicing,
    )
    result = debugger.debug(assume_symptom=not args.query_symptom)

    print(result.session.render())
    if result.partial:
        print(
            f"warning: result is partial — trace degraded "
            f"({result.degraded_reason})",
            file=sys.stderr,
        )
    if result.bug_node is not None:
        print(system.explain_bug(result))
    print(
        f"questions: {result.user_questions} user, "
        f"{result.auto_answers} automatic; slices: {result.slices}"
    )
    if getattr(args, "profile", False):
        print(obs.report.render_answer_sources(result.report()))
    return 0 if result.localized else 1


def cmd_mutate(args: argparse.Namespace) -> int:
    from repro.workloads.mutants import (
        accuracy,
        evaluate_mutants,
        generate_mutants,
        summarize,
    )

    source = _read(args.program)
    mutants = generate_mutants(
        source, include_constants=not args.operators_only
    )
    if not args.evaluate:
        print(f"{len(mutants)} mutants")
        for index, mutant in enumerate(mutants, start=1):
            print(f"  {index:3d}. [{mutant.kind}] {mutant.description}")
        return 0
    outcomes = evaluate_mutants(
        source,
        mutants,
        workers=args.workers,
        deadline_s=args.deadline,
        retries=args.retries,
        degrade=args.degrade,
        backend=args.backend,
    )
    for outcome in outcomes:
        detail = (
            f"-> {outcome.localized_unit} ({outcome.user_questions} questions)"
            if outcome.status in ("localized", "mislocalized")
            else ""
        )
        print(f"  {outcome.status:>13}  {outcome.mutant.description} {detail}")
    counts = summarize(outcomes)
    print(
        "outcomes: "
        + ", ".join(f"{status} {count}" for status, count in counts.items())
    )
    correct, debuggable = accuracy(outcomes)
    print(f"localization accuracy: {correct}/{debuggable}")
    return 0 if correct == debuggable else 1


def cmd_frames(args: argparse.Namespace) -> int:
    spec = parse_spec(_read(args.spec))
    frames = generate_frames(spec)
    print(f"test {spec.unit}: {len(frames)} frames")
    for frame in frames:
        print(f"  {frame.render()}")
    if spec.scripts:
        print("scripts:")
        for script, members in frames_by_script(spec, frames).items():
            print(f"  {script}: {len(members)} frame(s)")
            for frame in members:
                print(f"    {frame.render()}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run the pipeline (and optionally a reference-oracle debug session)
    with observability forced on; print the full metric summary."""
    source = _read(args.program)
    system = GadtSystem.from_source(
        source, program_inputs=args.input or [], backend=args.backend
    )
    result = None
    if args.reference:
        oracle = ReferenceOracle.from_source(
            _read(args.reference),
            program_inputs=args.input or [],
            backend=args.backend,
        )
        result = system.debugger(oracle, strategy=args.strategy).debug()
    if getattr(args, "json", False):
        import json

        payload = {
            "program": system.analysis.program.name,
            "backend": system.trace.backend,
            "tree_nodes": system.trace.tree.size(),
            "occurrences": len(system.trace.dependence_graph),
            "dep_edges": system.trace.dependence_graph.edge_count(),
            "metrics": obs.snapshot(),
        }
        if result is not None:
            payload["session"] = result.report()
        print(json.dumps(payload, indent=2, default=str))
        return 0
    print(f"program: {system.analysis.program.name}")
    print(f"backend: {system.trace.backend}")
    print(f"tree: {system.trace.tree.size()} activation(s)")
    print(
        f"dependences: {len(system.trace.dependence_graph)} occurrence(s), "
        f"{system.trace.dependence_graph.edge_count()} edge(s)"
    )
    if result is not None:
        print(f"localized: {result.bug_unit or 'no'}")
        print(obs.report.render_answer_sources(result.report()))
    snapshot = obs.snapshot()
    counters = sorted(snapshot.get("counters", {}).items())
    for label, prefix in (
        ("goto cases", "transform.goto.case."),
        ("goto eliminated", "transform.goto.eliminated."),
        ("compile", "compile."),
        ("serve", "serve."),
    ):
        matched = [
            f"{name.removeprefix(prefix)} {value}"
            for name, value in counters
            if name.startswith(prefix)
        ]
        if matched:
            print(f"{label}: " + ", ".join(matched))
    print(obs.report.render_summary(snapshot))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Trace with the hot-spot profiler attached; print where the
    execution spent its steps and self-time (per transformed unit)."""
    from repro.obs.profiler import HotspotProfiler, hotspot_report, render_hotspots

    profiler = HotspotProfiler()
    system = GadtSystem.from_source(
        _read(args.program),
        program_inputs=args.input or [],
        backend=args.backend,
        profiler=profiler,
    )
    report = hotspot_report(system.trace, profiler=profiler, top=args.hotspots)
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(f"program: {system.analysis.program.name}")
        print(render_hotspots(report))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run a recorded session from its journal; exit 1 on divergence."""
    from repro.core.replay import replay_file
    from repro.obs.journal import JournalError

    try:
        report = replay_file(args.journal, backend=args.backend)
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def cmd_export(args: argparse.Namespace) -> int:
    """Convert a session journal to a Perfetto/Chrome trace file."""
    from repro.obs.export import export_journal
    from repro.obs.journal import JournalError

    try:
        output = export_journal(
            args.journal, output_path=args.output, fmt=args.format
        )
    except (JournalError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"wrote {output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run (or drain / inspect) the multi-session debug service."""
    import asyncio

    from repro.serve import (
        DebugService,
        ServeClient,
        ServeConfig,
        ServeServer,
        serve_stdio,
    )

    if args.drain or args.serve_stats:
        if not args.socket:
            print("error: --drain/--stats need --socket PATH", file=sys.stderr)
            return 2
        try:
            with ServeClient(args.socket) as client:
                if args.drain:
                    summary = client.drain()
                    stats = summary.get("stats", {})
                    print(
                        "drained: "
                        + ", ".join(
                            f"{key} {stats.get(key, 0)}"
                            for key in (
                                "submitted", "completed", "degraded",
                                "shed", "timed_out", "failed",
                            )
                        )
                    )
                else:
                    import json

                    print(json.dumps(client.stats(), indent=2, default=str))
        except (OSError, Exception) as error:  # noqa: BLE001 - surface cleanly
            print(f"error: {error}", file=sys.stderr)
            return 2
        return 0

    if not args.socket and not args.stdio:
        print("error: serve needs --socket PATH or --stdio", file=sys.stderr)
        return 2
    config = ServeConfig(
        workers=args.workers,
        max_queue=args.max_queue,
        queue_timeout_s=args.queue_timeout,
        default_deadline_s=args.job_deadline,
        rate=args.rate,
        burst=args.burst,
        retries=args.retries,
        testdb=args.testdb,
        spec_texts=tuple(_read(path) for path in args.spec or []),
    )
    service = DebugService(config)
    if args.stdio:
        summary = asyncio.run(serve_stdio(service))
        stats = summary.get("stats", {})
        print(
            f"served {stats.get('submitted', 0)} job(s), "
            f"{stats.get('shed', 0)} shed, {stats.get('failed', 0)} failed",
            file=sys.stderr,
        )
        return 0
    socket_path = Path(args.socket)
    if socket_path.exists():
        socket_path.unlink()  # stale socket from a dead server

    async def _serve() -> None:
        server = ServeServer(service, socket_path=args.socket)
        await server.start()
        print(f"serving on {args.socket}", file=sys.stderr)
        await server.run_until_drained()

    try:
        asyncio.run(_serve())
    finally:
        if socket_path.exists():
            socket_path.unlink()
    return 0


def cmd_testdb_import(args: argparse.Namespace) -> int:
    """Bulk-load a JSONL report dump into a sharded store."""
    import json

    from repro.store import CodecError, ShardedReportStore, report_from_dict

    reports = []
    for line_no, line in enumerate(
        Path(args.reports).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            reports.append(report_from_dict(json.loads(line)))
        except (json.JSONDecodeError, CodecError) as error:
            print(f"error: {args.reports}:{line_no}: {error}", file=sys.stderr)
            return 2
    with ShardedReportStore(args.database, shards=args.shards) as store:
        count = store.import_reports(reports, budget=_budget(args))
        stats = store.stats()
    print(
        f"imported {count} report(s) into {stats['shards']} shard(s) "
        f"({stats['segments']} segment(s), {stats['reports']} total)"
    )
    return 0


def cmd_testdb_stats(args: argparse.Namespace) -> int:
    store = _existing_store(args.database)
    if getattr(args, "json", False):
        import json

        payload = dict(store.stats())
        if args.per_shard:
            payload["per_shard"] = [
                {"shard": index, **row}
                for index, row in store.iter_shard_stats()
            ]
        print(json.dumps(payload, indent=2))
        return 0
    print(obs.report.render_store_stats(store.stats()))
    if args.per_shard:
        for index, row in store.iter_shard_stats():
            print(
                f"  shard {index:03d}: {row['reports']} report(s) in "
                f"{row['segments']} segment(s), {row['frames']} frame(s), "
                f"{row['quarantined']} quarantined"
            )
    return 0


def cmd_testdb_compact(args: argparse.Namespace) -> int:
    with _existing_store(args.database) as store:
        merged = store.compact(budget=_budget(args))
    print(
        f"compacted {merged['segments_before']} segment(s) "
        f"into {merged['segments_after']}"
    )
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="GADT: generalized algorithmic debugging and testing",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # observability flags shared by the pipeline-running subcommands
    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_parent.add_argument(
        "--profile",
        action="store_true",
        help="print a phase/metric summary on stderr after the command",
    )
    obs_parent.add_argument(
        "--journal",
        dest="journal_out",
        metavar="PATH",
        help="record a session flight-recorder journal to PATH "
        "(replayable with `repro replay`, exportable with `repro export`)",
    )

    # resource-budget flags shared by the executing subcommands
    # (see docs/ROBUSTNESS.md)
    budget_parent = argparse.ArgumentParser(add_help=False)
    budget_parent.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget in seconds for program execution",
    )
    degrade_parent = argparse.ArgumentParser(add_help=False)
    degrade_parent.add_argument(
        "--degrade",
        action="store_true",
        help="on a blown budget, salvage a partial trace instead of failing",
    )

    # search-strategy flag shared by debug and stats; the choice list
    # comes from the strategy registry so new strategies show up in
    # --help and error messages without touching this module
    strategy_parent = argparse.ArgumentParser(add_help=False)
    strategy_parent.add_argument(
        "--strategy",
        default="top-down",
        choices=available_strategies(),
        help="execution-tree search strategy (see docs/STRATEGIES.md)",
    )

    # execution-backend flag shared by the executing subcommands
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend",
        choices=["interp", "compiled"],
        default=None,
        help="execution engine (default: $REPRO_BACKEND, else compiled "
        "for traces and interp for plain runs)",
    )

    run_parser = sub.add_parser(
        "run",
        parents=[obs_parent, budget_parent, backend_parent],
        help="execute a Mini-Pascal program",
    )
    run_parser.add_argument("program")
    run_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    run_parser.set_defaults(func=cmd_run)

    trace_parser = sub.add_parser(
        "trace",
        parents=[obs_parent, budget_parent, degrade_parent, backend_parent],
        help="print the execution tree",
    )
    trace_parser.add_argument("program")
    trace_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the tree as JSON"
    )
    trace_parser.set_defaults(func=cmd_trace)

    transform_parser = sub.add_parser(
        "transform", help="print the side-effect-free transformed program"
    )
    transform_parser.add_argument("program")
    transform_parser.add_argument(
        "--instrumented",
        action="store_true",
        help="include the inserted trace actions",
    )
    transform_parser.set_defaults(func=cmd_transform)

    slice_parser = sub.add_parser(
        "slice", help="static slice (program) or dynamic slice (tree)"
    )
    slice_parser.add_argument("program")
    slice_parser.add_argument("--variable", required=True)
    slice_parser.add_argument(
        "--routine", help="static: routine owning the criterion (default: main)"
    )
    slice_parser.add_argument(
        "--unit", help="dynamic: unit activation to slice at"
    )
    slice_parser.add_argument("--occurrence", type=int, default=1)
    slice_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    slice_parser.set_defaults(func=cmd_slice)

    debug_parser = sub.add_parser(
        "debug",
        parents=[obs_parent, budget_parent, degrade_parent, backend_parent, strategy_parent],
        help="run a debugging session",
    )
    debug_parser.add_argument("program")
    debug_parser.add_argument(
        "--reference", help="bug-free program; simulates the user's answers"
    )
    debug_parser.add_argument("--no-slicing", action="store_true")
    debug_parser.add_argument(
        "--testdb",
        metavar="DIR",
        help="answer queries from the persistent test-report store at DIR",
    )
    debug_parser.add_argument(
        "--spec",
        action="append",
        metavar="FILE",
        help="T-GEN specification for a tested unit (repeatable; "
        "used with --testdb to map query inputs to test frames)",
    )
    debug_parser.add_argument(
        "--query-symptom",
        action="store_true",
        help="query the root instead of assuming it erroneous; a 'yes' "
        "ends the session with no bug localized (exit code 1)",
    )
    debug_parser.add_argument("--quiet", action="store_true")
    debug_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    debug_parser.set_defaults(func=cmd_debug)

    frames_parser = sub.add_parser(
        "frames", help="generate test frames from a T-GEN specification"
    )
    frames_parser.add_argument("spec")
    frames_parser.set_defaults(func=cmd_frames)

    mutate_parser = sub.add_parser(
        "mutate",
        parents=[obs_parent, budget_parent, degrade_parent, backend_parent],
        help="fault-injection sweep: list or evaluate mutants",
    )
    mutate_parser.add_argument("program")
    mutate_parser.add_argument(
        "--evaluate",
        action="store_true",
        help="debug every behaviour-changing mutant and report accuracy",
    )
    mutate_parser.add_argument("--operators-only", action="store_true")
    mutate_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes for --evaluate (default: sequential)",
    )
    mutate_parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry a mutant whose worker died up to N times "
        "before recording infra_error (parallel sweeps)",
    )
    mutate_parser.set_defaults(func=cmd_mutate)

    stats_parser = sub.add_parser(
        "stats",
        parents=[obs_parent, backend_parent, strategy_parent],
        help="run the pipeline with observability on and print its metrics",
    )
    stats_parser.add_argument("program")
    stats_parser.add_argument(
        "--reference", help="bug-free program; also run and account a debug session"
    )
    stats_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    stats_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as machine-readable JSON instead of text",
    )
    stats_parser.set_defaults(func=cmd_stats, needs_obs=True)

    profile_parser = sub.add_parser(
        "profile",
        parents=[backend_parent],
        help="trace with the hot-spot profiler; print per-unit self time",
    )
    profile_parser.add_argument("program")
    profile_parser.add_argument(
        "--input", action="append", type=_program_input, metavar="V"
    )
    profile_parser.add_argument(
        "--hotspots",
        type=int,
        default=None,
        metavar="N",
        help="show only the N hottest units (default: all)",
    )
    profile_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the hotspots/1 report as JSON instead of a table",
    )
    profile_parser.set_defaults(func=cmd_profile)

    replay_parser = sub.add_parser(
        "replay",
        parents=[backend_parent],
        help="re-run a recorded session journal; exit 1 on any divergence",
    )
    replay_parser.add_argument("journal", help="journal recorded with --journal")
    replay_parser.set_defaults(func=cmd_replay)

    export_parser = sub.add_parser(
        "export",
        help="convert a session journal to a Perfetto/Chrome trace",
    )
    export_parser.add_argument("journal", help="journal recorded with --journal")
    export_parser.add_argument(
        "--format",
        default="perfetto",
        choices=["perfetto", "chrome"],
        help="output flavour (both emit Chrome trace-event JSON)",
    )
    export_parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="OUT",
        help="output path (default: JOURNAL.perfetto.json)",
    )
    export_parser.set_defaults(func=cmd_export)

    testdb_parser = sub.add_parser(
        "testdb",
        help="maintain a persistent sharded test-report store",
    )
    testdb_sub = testdb_parser.add_subparsers(dest="testdb_command", required=True)

    testdb_import = testdb_sub.add_parser(
        "import",
        parents=[budget_parent],
        help="bulk-load a JSONL report dump into the store",
    )
    testdb_import.add_argument("database", help="store directory")
    testdb_import.add_argument("reports", help="JSONL file, one report per line")
    testdb_import.add_argument(
        "--shards",
        type=int,
        default=8,
        help="shard count when creating a new store (ignored on reopen)",
    )
    testdb_import.set_defaults(func=cmd_testdb_import)

    testdb_stats = testdb_sub.add_parser(
        "stats", help="shard/segment/report counts, hit rate, quarantine"
    )
    testdb_stats.add_argument("database", help="store directory")
    testdb_stats.add_argument(
        "--per-shard", action="store_true", help="also print one row per shard"
    )
    testdb_stats.add_argument(
        "--json",
        action="store_true",
        help="emit the stats as machine-readable JSON instead of text",
    )
    testdb_stats.set_defaults(func=cmd_testdb_stats)

    testdb_compact = testdb_sub.add_parser(
        "compact",
        parents=[budget_parent],
        help="merge each shard's segments, dropping duplicate rows",
    )
    testdb_compact.add_argument("database", help="store directory")
    testdb_compact.set_defaults(func=cmd_testdb_compact)

    serve_parser = sub.add_parser(
        "serve",
        parents=[obs_parent],
        help="multi-session debug service over a Unix socket or stdio",
    )
    serve_parser.add_argument(
        "--socket", metavar="PATH", help="Unix socket path to listen on"
    )
    serve_parser.add_argument(
        "--stdio",
        action="store_true",
        help="serve newline-delimited JSON over stdin/stdout until EOF",
    )
    serve_parser.add_argument(
        "--drain",
        action="store_true",
        help="client mode: ask the server at --socket to drain and exit",
    )
    serve_parser.add_argument(
        "--stats",
        dest="serve_stats",
        action="store_true",
        help="client mode: print the server's stats op as JSON",
    )
    serve_parser.add_argument(
        "--workers", type=_positive_int, default=2, help="worker slots (default 2)"
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission queue bound; beyond it jobs shed as overloaded",
    )
    serve_parser.add_argument(
        "--queue-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="max seconds a job may wait for a worker before timed_out",
    )
    serve_parser.add_argument(
        "--job-deadline",
        type=float,
        default=30.0,
        metavar="S",
        help="default per-job deadline (queue wait + execution)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="per-tenant token-bucket refill rate, jobs/s (default off)",
    )
    serve_parser.add_argument(
        "--burst",
        type=float,
        default=10.0,
        metavar="B",
        help="per-tenant token-bucket burst size",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="infra-failure retries per job before failed/infra_error",
    )
    serve_parser.add_argument(
        "--testdb",
        metavar="DIR",
        help="sharded test-report store shared by every worker",
    )
    serve_parser.add_argument(
        "--spec",
        action="append",
        metavar="FILE",
        help="T-GEN spec file(s) registered for answer-op selectors",
    )
    serve_parser.set_defaults(func=cmd_serve, needs_obs=True)

    return parser


def _journal_meta(args: argparse.Namespace, argv: list[str] | None) -> dict:
    """The journal header metadata: everything ``repro replay`` needs to
    rebuild the session from scratch (source text, inputs, backend,
    strategy, slicing) plus provenance (command line)."""
    meta: dict[str, object] = {
        "command": getattr(args, "command", None),
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "backend": getattr(args, "backend", None),
    }
    program = getattr(args, "program", None)
    if program:
        meta["program"] = program
        try:
            meta["source"] = _read(program)
        except OSError:
            pass  # the command itself will report the missing file
    if getattr(args, "input", None) is not None:
        meta["inputs"] = args.input
    if hasattr(args, "strategy"):
        meta["strategy"] = args.strategy
    if hasattr(args, "no_slicing"):
        meta["enable_slicing"] = not args.no_slicing
    if hasattr(args, "query_symptom"):
        meta["assume_symptom"] = not args.query_symptom
    if getattr(args, "reference", None):
        meta["reference"] = args.reference
    return meta


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --version/--help;
        # return instead so every caller sees one consistent code path.
        code = exc.code
        return code if isinstance(code, int) else 2

    profiling = getattr(args, "profile", False)
    journal_path = getattr(args, "journal_out", None)
    observing = profiling or journal_path or getattr(args, "needs_obs", False)
    journal_sink = None
    try:
        if observing:
            obs.reset()
            obs.enable()
            if journal_path:
                from repro.obs.journal import JournalWriter

                journal_sink = obs.add_sink(
                    JournalWriter(journal_path, meta=_journal_meta(args, argv))
                )
        return args.func(args)
    except (PascalError, SpecError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    finally:
        if observing:
            if profiling:
                print(obs.report.render_summary(obs.snapshot()), file=sys.stderr)
            if journal_sink is not None:
                obs.remove_sink(journal_sink)
                journal_sink.close()
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
