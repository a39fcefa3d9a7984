"""Tests for the mutation workload and localization-accuracy experiment."""

import os
import re
import sys
import threading
import time

import pytest

from repro.pascal import analyze_source, parse_program, print_program
from repro.pascal import ast_nodes as ast
from repro.tgen.corpus import generate_program
from repro.workloads import FIGURE4_FIXED_SOURCE
from repro.workloads.ledger import ledger_program
from repro.workloads.mutants import (
    _BINARY_FLIPS,
    OUTCOME_STATUSES,
    LocalizationOutcome,
    Mutant,
    accuracy,
    evaluate_mutants,
    generate_mutants,
    summarize,
)
from repro.workloads.paper_programs import SECTION3_FIXED_SOURCE
from tests.canonical_forms import canonical
from tests.test_mutant_patch import patched

SMALL = """
program t;
var r: integer;
function triple(x: integer): integer;
begin triple := x * 3 end;
procedure shift(x: integer; var r: integer);
begin r := x + 10 end;
begin
  shift(triple(4), r);
  writeln(r)
end.
"""


def _tokens(line: str) -> list[str]:
    """The tokens of one printed line, parentheses left out."""
    return re.findall(r":=|<=|>=|<>|\w+|[^\s()]", line)


def _reference_mutants(
    source: str, include_constants: bool = True, units: set[str] | None = None
) -> list[Mutant]:
    """The original generator, kept as the byte-identity reference: flip
    each node in place, reprint the whole program, find the owner by
    re-walking every routine body. It runs on a private, uncached
    analysis, since it writes to the tree."""
    analysis = analyze_source(source, cached=False)
    program = analysis.program

    def owner_of(target):
        for info in analysis.user_routines():
            if any(node is target for node in info.block.body.walk()):
                return info.name
        return None

    mutants = []
    for node in program.walk():
        if isinstance(node, ast.BinaryOp) and node.op in _BINARY_FLIPS:
            field, kind = "op", "operator"
            faulty = _BINARY_FLIPS[node.op]
        elif include_constants and isinstance(node, ast.IntLiteral):
            field, kind = "value", "constant"
            faulty = node.value + 1
        else:
            continue
        owner = owner_of(node)
        if owner is None or (units is not None and owner not in units):
            continue
        original = getattr(node, field)
        setattr(node, field, faulty)
        mutants.append(
            Mutant(
                source=print_program(program),
                unit=owner,
                description=f"{original} -> {faulty} in {owner}",
                kind=kind,
            )
        )
        setattr(node, field, original)
    return mutants


#: hosts of the byte-identity check: the paper's programs, the ledger,
#: and corpus programs (goto-dense, nested routines, labels, repeat)
_HOSTS = {
    "figure4": FIGURE4_FIXED_SOURCE,
    "section3": SECTION3_FIXED_SOURCE,
    "ledger": ledger_program().fixed_source,
    **{f"corpus{seed}": generate_program(seed) for seed in range(10)},
}


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(_HOSTS))
    def test_matches_the_reference_generator(self, name):
        source = _HOSTS[name]
        reference = _reference_mutants(source)
        assert reference
        assert generate_mutants(source) == reference
        assert generate_mutants(source, include_constants=False) == _reference_mutants(
            source, include_constants=False
        )
        units = set(sorted({mutant.unit for mutant in reference})[::2])
        assert generate_mutants(source, units=units) == _reference_mutants(
            source, units=units
        )


class TestReadOnly:
    def test_never_writes_to_the_cached_analysis(self, monkeypatch):
        source = FIGURE4_FIXED_SOURCE
        program = analyze_source(source).program
        shared = {id(node) for node in program.walk()}
        writes = []
        setattr_ = ast.Node.__setattr__

        def trap(node, name, value):
            if id(node) in shared:
                writes.append((type(node).__name__, name))
            setattr_(node, name, value)

        monkeypatch.setattr(ast.Node, "__setattr__", trap)
        mutants = generate_mutants(source)
        program.block.body.label = program.block.body.label  # the trap works
        monkeypatch.undo()
        assert analyze_source(source).program is program
        assert mutants
        assert writes == [("Compound", "label")]

    def test_cached_program_text_never_changes_during_a_sweep(self):
        source = FIGURE4_FIXED_SOURCE
        program = analyze_source(source).program
        expected = print_program(program)
        texts = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                texts.append(print_program(program))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(3):
                mutants = generate_mutants(source)
            evaluate_mutants(source, mutants[:4])
        finally:
            stop.set()
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert texts
        assert all(text == expected for text in texts)

    def test_building_patches_never_writes_to_the_base(self, monkeypatch):
        source = generate_program(11)
        mutants = generate_mutants(source)
        base = analyze_source(print_program(analyze_source(source).program))
        before = canonical(base)
        tables = {
            name: dict(table) if isinstance(table, dict) else set(table)
            for name, table in vars(base).items()
            if isinstance(table, (dict, set))
        }
        infos = {symbol: (info, vars(info).copy()) for symbol, info in base.routines.items()}
        shared = {id(node) for node in base.program.walk()}
        writes = []
        setattr_ = ast.Node.__setattr__

        def trap(node, name, value):
            if id(node) in shared:
                writes.append((type(node).__name__, name))
            setattr_(node, name, value)

        monkeypatch.setattr(ast.Node, "__setattr__", trap)
        for mutant in mutants:
            patched(mutant)
        monkeypatch.undo()
        assert writes == []
        assert canonical(base) == before
        for name, table in tables.items():
            assert getattr(base, name) == table, name
        for symbol, (info, fields) in infos.items():
            assert base.routines[symbol] is info
            assert vars(info) == fields


class TestGeneration:
    def test_every_mutant_parses(self):
        for mutant in generate_mutants(SMALL):
            parse_program(mutant.source)  # must not raise

    def test_mutants_differ_from_original(self):
        for mutant in generate_mutants(SMALL):
            assert mutant.source != SMALL

    def test_units_attributed(self):
        mutants = generate_mutants(SMALL)
        units = {mutant.unit for mutant in mutants}
        assert units == {"triple", "shift"}

    def test_operator_and_constant_kinds(self):
        kinds = {mutant.kind for mutant in generate_mutants(SMALL)}
        assert kinds == {"operator", "constant"}

    def test_constants_can_be_disabled(self):
        mutants = generate_mutants(SMALL, include_constants=False)
        assert all(mutant.kind == "operator" for mutant in mutants)

    def test_unit_filter(self):
        mutants = generate_mutants(SMALL, units={"triple"})
        assert {mutant.unit for mutant in mutants} == {"triple"}

    def test_main_body_not_mutated(self):
        # the literal 4 in the main body is not inside any routine
        mutants = generate_mutants(SMALL)
        assert not any("in t" == m.description[-4:] for m in mutants)

    def test_one_fault_per_mutant(self):
        for source in (SMALL, FIGURE4_FIXED_SOURCE):
            self._assert_one_fault_per_mutant(source)

    @staticmethod
    def _assert_one_fault_per_mutant(source):
        original = print_program(parse_program(source)).splitlines()
        mutants = generate_mutants(source)
        assert mutants
        for mutant in mutants:
            lines = mutant.source.splitlines()
            assert len(lines) == len(original)
            changed = [i for i, (a, b) in enumerate(zip(original, lines)) if a != b]
            assert len(changed) == 1, mutant.description
            # the one changed line swaps exactly the token the
            # description names (parentheses may move with precedence)
            before, after = _tokens(original[changed[0]]), _tokens(lines[changed[0]])
            assert len(before) == len(after)
            swaps = [(a, b) for a, b in zip(before, after) if a != b]
            old, new = mutant.description.split(" in ")[0].split(" -> ")
            assert swaps == [(old, new)], mutant.description


class TestEvaluation:
    def test_figure4_accuracy_is_total(self):
        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        outcomes = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants)
        correct, debuggable = accuracy(outcomes)
        assert debuggable > 10
        assert correct == debuggable  # 100% localization accuracy

    def test_statuses_partition(self):
        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        outcomes = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants)
        assert len(outcomes) == len(mutants)
        for outcome in outcomes:
            assert outcome.status in OUTCOME_STATUSES

    def test_equivalent_mutants_detected(self):
        # mutating 'b := 0' to 'b := 1' inside arrsum changes output;
        # but some relational flips on boundaries are equivalent.
        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        outcomes = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants)
        statuses = {outcome.status for outcome in outcomes}
        assert "equivalent" in statuses

    def test_question_counts_recorded(self):
        mutants = generate_mutants(SMALL)
        outcomes = evaluate_mutants(SMALL, mutants)
        localized = [o for o in outcomes if o.status == "localized"]
        assert localized
        assert all(outcome.user_questions >= 1 for outcome in localized)

    def test_accuracy_helper(self):
        mutant = Mutant(source="", unit="u", description="", kind="operator")
        outcomes = [
            LocalizationOutcome(mutant=mutant, status="localized"),
            LocalizationOutcome(mutant=mutant, status="mislocalized"),
            LocalizationOutcome(mutant=mutant, status="equivalent"),
        ]
        assert accuracy(outcomes) == (1, 2)

    def test_not_localized_counts_as_debuggable_but_incorrect(self):
        mutant = Mutant(source="", unit="u", description="", kind="operator")
        outcomes = [
            LocalizationOutcome(mutant=mutant, status="localized"),
            LocalizationOutcome(mutant=mutant, status="not_localized"),
            LocalizationOutcome(mutant=mutant, status="crashed"),
        ]
        assert accuracy(outcomes) == (1, 2)

    def test_not_localized_reported_distinctly(self):
        """A debug session ending with bug_unit=None must not be recorded
        as 'mislocalized' with a blamed unit of ''."""
        from unittest.mock import patch

        from repro.workloads import mutants as mutants_mod

        class _NoBlame:
            bug_unit = None
            user_questions = 3
            partial = False

        class _FakeDebugger:
            def __init__(self, *args, **kwargs):
                pass

            def debug(self):
                return _NoBlame()

        corpus = generate_mutants(SMALL, include_constants=False)[:1]
        with patch("repro.core.AlgorithmicDebugger", _FakeDebugger):
            outcomes = mutants_mod.evaluate_mutants(SMALL, corpus)
        changed = [o for o in outcomes if o.status not in ("equivalent", "crashed")]
        assert changed
        assert all(o.status == "not_localized" for o in changed)
        assert all(o.localized_unit is None for o in changed)


class TestSummarize:
    def test_every_status_present_with_zeros(self):
        assert summarize([]) == {
            "localized": 0,
            "mislocalized": 0,
            "not_localized": 0,
            "equivalent": 0,
            "crashed": 0,
            "timed_out": 0,
            "infra_error": 0,
        }

    def test_not_localized_is_its_own_bucket(self):
        mutant = Mutant(source="", unit="u", description="", kind="operator")
        outcomes = [
            LocalizationOutcome(mutant=mutant, status="localized"),
            LocalizationOutcome(mutant=mutant, status="not_localized"),
            LocalizationOutcome(mutant=mutant, status="not_localized"),
            LocalizationOutcome(mutant=mutant, status="crashed"),
        ]
        counts = summarize(outcomes)
        assert counts["not_localized"] == 2
        assert counts["localized"] == 1
        assert counts["mislocalized"] == 0
        assert sum(counts.values()) == len(outcomes)

    def test_counts_cover_real_sweep(self):
        mutants = generate_mutants(SMALL)
        outcomes = evaluate_mutants(SMALL, mutants)
        counts = summarize(outcomes)
        assert set(counts) == set(OUTCOME_STATUSES)
        assert sum(counts.values()) == len(outcomes)

    def test_outcomes_carry_wall_time(self):
        mutants = generate_mutants(SMALL, include_constants=False)
        outcomes = evaluate_mutants(SMALL, mutants)
        assert all(outcome.seconds > 0 for outcome in outcomes)

    def test_seconds_excluded_from_equality(self):
        mutant = Mutant(source="", unit="u", description="", kind="operator")
        first = LocalizationOutcome(mutant=mutant, status="localized", seconds=0.5)
        second = LocalizationOutcome(mutant=mutant, status="localized", seconds=0.9)
        assert first == second


class TestParallelEvaluation:
    def test_parallel_matches_sequential_on_arrsum_corpus(self):
        """workers=N must return byte-identical outcomes, in identical
        order, to the sequential path."""
        mutants = generate_mutants(FIGURE4_FIXED_SOURCE)
        sequential = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants)
        parallel = evaluate_mutants(FIGURE4_FIXED_SOURCE, mutants, workers=4)
        assert parallel == sequential

    def test_outcomes_record_the_process_that_ran_them(self):
        mutants = generate_mutants(SMALL, include_constants=False)
        sequential = evaluate_mutants(SMALL, mutants)
        parallel = evaluate_mutants(SMALL, mutants, workers=2)
        assert parallel == sequential  # pid and start are not compared
        ran_here = [o for o in sequential if o.started is not None]
        assert ran_here and {o.pid for o in ran_here} == {os.getpid()}
        workers = {o.pid for o in parallel if o.started is not None}
        assert workers and os.getpid() not in workers
        assert all(
            o.started <= time.time() for o in parallel if o.started is not None
        )

    def test_workers_one_uses_sequential_path(self):
        mutants = generate_mutants(SMALL, include_constants=False)
        assert evaluate_mutants(SMALL, mutants, workers=1) == evaluate_mutants(
            SMALL, mutants
        )
