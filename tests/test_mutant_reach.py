"""Mutants the host run never reaches are settled without a run.

A sweep runs the printed host once with a statement hook
(:func:`~repro.workloads.mutants.unreached_mutants`), and every mutant
whose statement that run never executes is *equivalent* by
construction: the run is deterministic and never evaluates the faulty
expression. The differential check here proves the claim per mutant:
each one settled as unreached runs, interpreted from a fresh parse,
exactly like the host, in output and in steps. The fallbacks keep
today's behaviour: a mutant without a recipe on the host's printed
analysis is shipped and run, and a host whose own run fails raises its
error at the user's position, in parallel sweeps too.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.pascal import analyze_source, run_source
from repro.pascal import semantics
from repro.pascal.errors import PascalError, PascalRuntimeError
from repro.pascal.interpreter import Interpreter
from repro.pascal.pretty import print_program
from repro.tgen.corpus import generate_program
from repro.workloads import mutants as mutants_module
from repro.workloads.mutants import (
    evaluate_mutants,
    generate_mutants,
    unreached_mutants,
)
from tests.test_mutant_patch import HOSTS, STEP_LIMIT
from tests.test_resilience import hard_timeout

SEEDS = range(20)


def _run(analysis):
    try:
        result = Interpreter(analysis, step_limit=STEP_LIMIT).run()
    except PascalError as exc:
        return None, (type(exc).__name__, str(exc))
    return (result.output, result.steps), None


def assert_unreached_run_like_host(source: str) -> int:
    """Every mutant of ``source`` settled as unreached runs like the
    printed host, or the host fails and so does the settling, with the
    error of a plain run of ``source``. Returns the number settled."""
    mutants = generate_mutants(source)
    host, host_error = _run(analyze_source(print_program(analyze_source(source).program)))
    if host_error is not None:
        with pytest.raises(PascalError) as raised:
            unreached_mutants(source, mutants, STEP_LIMIT)
        with pytest.raises(PascalError) as expected:
            run_source(source, step_limit=STEP_LIMIT)
        assert str(raised.value) == str(expected.value)
        return 0
    settled = 0
    for mutant, unreached in zip(mutants, unreached_mutants(source, mutants, STEP_LIMIT)):
        if unreached:
            settled += 1
            run, error = _run(analyze_source(mutant.source, cached=False))
            assert (run, error) == (host, None), mutant.description
    return settled


@pytest.mark.parametrize("seed", SEEDS)
def test_unreached_mutants_of_corpus_seeds_run_like_the_host(seed):
    assert_unreached_run_like_host(generate_program(seed))


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_unreached_mutants_of_the_fixed_hosts_run_like_the_host(name):
    assert_unreached_run_like_host(HOSTS[name])


def test_corpus_seeds_do_have_unreached_mutants():
    """The property above is not vacuous."""
    settled = [assert_unreached_run_like_host(generate_program(seed)) for seed in range(4)]
    assert sum(settled) > 0


# ----------------------------------------------------------------------
# the sweep


#: a host with unreached mutants in every routine (``unused`` never
#: runs, and neither does the ``else`` branch of ``pick``)
HOST = """\
program reach;
var a, b: integer;
procedure unused(var x: integer);
begin x := x * 3 + 1 end;
function pick(x: integer): integer;
begin
  if x > 0 then pick := x + 1 else pick := x - 2
end;
begin
  a := 4;
  b := pick(a);
  writeln(a, b)
end.
"""


def _form(outcomes) -> list:
    return [
        (o.mutant.description, o.status, o.localized_unit, o.user_questions, o.partial)
        for o in outcomes
    ]


def _probe_everything(patch) -> None:
    """Sweep as if no mutant were settled in the parent: every one is
    probed, the behaviour the settled outcomes must reproduce."""
    patch.setattr(
        mutants_module,
        "unreached_mutants",
        lambda source, mutants, step_limit: [False] * len(mutants),
    )


@pytest.mark.parametrize("workers", [None, 2])
def test_settled_outcomes_equal_probed_ones(workers, monkeypatch):
    mutants = generate_mutants(HOST)
    unreached = unreached_mutants(HOST, mutants, STEP_LIMIT)
    assert 0 < sum(unreached) < len(mutants)
    settled = evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT, workers=workers)
    _probe_everything(monkeypatch)
    probed = evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT, workers=workers)
    assert _form(settled) == _form(probed)
    for outcome, skipped in zip(settled, unreached):
        if skipped:
            assert outcome.status == "equivalent" and outcome.seconds == 0.0


def test_unreached_mutants_are_counted_and_never_probed(monkeypatch):
    mutants = generate_mutants(HOST)
    unreached = sum(unreached_mutants(HOST, mutants, STEP_LIMIT))
    probes = []
    probe = mutants_module._debug_one_mutant

    def spy(mutant, *args):
        probes.append(mutant)
        return probe(mutant, *args)

    monkeypatch.setattr(mutants_module, "_debug_one_mutant", spy)
    obs.enable()
    try:
        evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT)
        counters = obs.snapshot(include_cache=False)["counters"]
    finally:
        obs.disable()
        obs.reset()
    assert counters["mutants.unreached"] == unreached
    assert len(probes) == len(mutants) - unreached


def test_a_sweep_of_only_unreached_mutants_builds_nothing(monkeypatch):
    every = generate_mutants(HOST)
    mutants = [
        mutant
        for mutant, unreached in zip(every, unreached_mutants(HOST, every, STEP_LIMIT))
        if unreached
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep with nothing to probe built its state")

    monkeypatch.setattr(mutants_module, "_sweep_state", forbidden)
    monkeypatch.setattr("repro.resilience.pool.run_isolated", forbidden)
    for workers in (None, 2):
        outcomes = evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT, workers=workers)
        assert {outcome.status for outcome in outcomes} == {"equivalent"}


def test_mutants_of_another_source_are_shipped(monkeypatch):
    other = generate_mutants(HOSTS["FIGURE4_FIXED_SOURCE"])[:4]
    # No recipe of theirs is a patch of HOST's printed analysis.
    assert unreached_mutants(HOST, other, STEP_LIMIT) == [False] * len(other)
    shipped = evaluate_mutants(HOST, other, step_limit=STEP_LIMIT, workers=2)
    _probe_everything(monkeypatch)
    assert _form(shipped) == _form(evaluate_mutants(HOST, other, step_limit=STEP_LIMIT))


def test_an_evicted_recipe_is_shipped_and_its_outcome_unchanged():
    mutants = generate_mutants(HOST)
    expected = _form(evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT))
    semantics._PATCHES.clear()
    try:
        assert unreached_mutants(HOST, mutants, STEP_LIMIT) == [False] * len(mutants)
        assert _form(evaluate_mutants(HOST, mutants, step_limit=STEP_LIMIT)) == expected
    finally:
        generate_mutants(HOST)  # re-register the recipes


#: a host whose own run fails, laid out unlike its printed form so the
#: user's position differs from the printed text's
FAILING = """\
program fails;
var a: integer;
procedure bump(var x: integer);
begin x := x + 1 end;
begin
  a := 2;   bump(a);
      a := a div 0;
  writeln(a)
end.
"""


@pytest.mark.parametrize("workers", [None, 2])
def test_a_failing_host_raises_at_the_users_position(workers):
    mutants = generate_mutants(FAILING)
    assert len(mutants) > 1
    with pytest.raises(PascalRuntimeError) as expected:
        run_source(FAILING, step_limit=STEP_LIMIT)
    assert expected.value.location.line == 7
    with hard_timeout(60), pytest.raises(PascalRuntimeError) as raised:
        evaluate_mutants(FAILING, mutants, step_limit=STEP_LIMIT, workers=workers)
    assert str(raised.value) == str(expected.value)
