"""Blame under the reference oracle for routines that escape by a
broken global goto.

The transform turns a global goto out of a routine into an exit
parameter; the debugger's tree shows it as the activation's ``via_goto``
(paper §6.1). The reference oracle must read the reference routine's
exit the same way, also when it replays the routine in isolation, or a
correct escape looks like a wrong result and the routine is blamed for
a fault elsewhere. Each program in ``tests/corpus/regress_exit_param_*``
is a host with one such mutant, minimized from a corpus seed; every
strategy must blame the mutated unit.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import GadtSystem, ReferenceOracle
from repro.core.strategies import available_strategies
from repro.workloads.mutants import generate_mutants

CORPUS_DIR = Path(__file__).parent / "corpus"

STEP_LIMIT = 20_000

#: corpus file -> the mutant that was mislocalized
CASES = {
    # a fault in an enclosing routine, blamed on the nested routine
    "regress_exit_param_nested": "3 -> 4 in outer",
    # a fault in a caller, blamed on its callee
    "regress_exit_param_caller": "<= -> < in caller",
}


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("strategy", available_strategies())
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_strategy_blames_the_mutated_unit(name, strategy, backend):
    host = (CORPUS_DIR / f"{name}.pas").read_text()
    [mutant] = [m for m in generate_mutants(host) if m.description == CASES[name]]
    oracle = ReferenceOracle.from_source(host, step_limit=STEP_LIMIT, backend=backend)
    system = GadtSystem.from_source(mutant.source, step_limit=STEP_LIMIT, backend=backend)
    result = system.debugger(oracle, strategy=strategy).debug()
    assert result.bug_unit == mutant.unit
