"""The GADT debugger (paper §3, §5.3, §7, §8) — the primary contribution.

* :mod:`repro.core.queries` — queries and answers in the paper's dialogue
  format (``computs(In y: 3, Out r1: 12, Out r2: 9)? no, error on first
  output variable``);
* :mod:`repro.core.oracle` — oracle implementations standing in for the
  user: interactive, scripted (replays the paper's dialogues), and a
  reference-program oracle that simulates a perfectly knowledgeable user
  so interaction counts can be *measured*;
* :mod:`repro.core.assertions` — partial-specification assertions
  ([Drabent et al.]) that answer queries without user interaction;
* :mod:`repro.core.strategies` — execution-tree search strategies
  (top-down as in the paper, plus bottom-up, Shapiro's divide-and-query
  and Insa & Silva's optimal divide-and-query — see docs/STRATEGIES.md);
* :mod:`repro.core.algorithmic` — the pure algorithmic debugger;
* :mod:`repro.core.gadt` — the integrated debugger: assertions → test
  lookup → user, with dynamic slicing on error indications;
* :mod:`repro.core.session` — interaction transcripts;
* :mod:`repro.core.replay` — deterministic re-runs of recorded session
  journals (the flight-recorder's verification half).
"""

from repro.core.queries import Answer, AnswerKind, AnswerSource, Query
from repro.core.oracle import (
    FunctionOracle,
    InteractiveOracle,
    Oracle,
    ReferenceOracle,
    ScriptedOracle,
)
from repro.core.assertions import Assertion, AssertionStore
from repro.core.strategies import (
    OptimalDivideAndQueryStrategy,
    Strategy,
    WeightIndex,
    available_strategies,
    make_strategy,
    step_weight,
)
from repro.core.algorithmic import AlgorithmicDebugger, DebugResult
from repro.core.gadt import GadtDebugger, GadtSystem
from repro.core.postmortem import ContributingStatement, contributing_statements
from repro.core.replay import (
    JournalOracle,
    ReplayDivergence,
    ReplayReport,
    replay_file,
    replay_journal,
)
from repro.core.session import Interaction, Session
from repro.core.transparency import TransparencyMap, UnitSource

__all__ = [
    "AlgorithmicDebugger",
    "Answer",
    "AnswerKind",
    "AnswerSource",
    "Assertion",
    "AssertionStore",
    "ContributingStatement",
    "DebugResult",
    "contributing_statements",
    "FunctionOracle",
    "GadtDebugger",
    "GadtSystem",
    "Interaction",
    "InteractiveOracle",
    "JournalOracle",
    "OptimalDivideAndQueryStrategy",
    "Oracle",
    "Query",
    "ReferenceOracle",
    "ReplayDivergence",
    "ReplayReport",
    "ScriptedOracle",
    "replay_file",
    "replay_journal",
    "Session",
    "Strategy",
    "TransparencyMap",
    "UnitSource",
    "WeightIndex",
    "available_strategies",
    "make_strategy",
    "step_weight",
]
