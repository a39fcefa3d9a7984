"""Pinned trees: the execution tree the debugger sees for a fixed set
of programs, as digests recorded in ``tests/data/trace_digests.json``.

Each digest (:func:`tests.canonical_forms.trace_digest`) covers every
node's kind, unit, bindings, ``via_goto`` and children, and the writer
sets of the outputs shown, of ``GadtSystem.from_source(text)`` traced
tolerantly. Both engines must produce the pinned tree. Tier-1 checks
the fixed hosts and seeds 0-39; CI checks all of seeds 0-199.

To record the digests again, after a change meant to alter the trees::

    PYTHONPATH=src python -m tests.test_trace_digests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import GadtSystem
from tests.canonical_forms import trace_digest
from tests.test_mutant_patch import HOSTS
from tests.test_transform_digests import SEEDS, TIER1_SEEDS, seed_programs

DIGESTS_PATH = Path(__file__).parent / "data" / "trace_digests.json"

STEP_LIMIT = 20_000

BACKENDS = ("interp", "compiled")


def digest_of(source: str, backend: str) -> str:
    system = GadtSystem.from_source(
        source, step_limit=STEP_LIMIT, tolerate_errors=True, backend=backend
    )
    return trace_digest(system.trace)


def assert_digests_match(named: dict[str, str]) -> int:
    """Check each named program's tree, on both engines, against its
    pinned digest; returns the number of programs checked."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    changed = [
        (name, backend)
        for name, source in named.items()
        for backend in BACKENDS
        if digest_of(source, backend) != pinned[name]
    ]
    assert not changed, f"trees differ from the pinned ones: {changed}"
    return len(named)


def test_pinned_file_covers_every_program():
    pinned = set(json.loads(DIGESTS_PATH.read_text()))
    assert pinned == set(HOSTS) | {f"seed{seed}" for seed in SEEDS}


def test_fixed_hosts_match_the_pinned_digests():
    assert_digests_match(HOSTS)


@pytest.mark.parametrize("first", range(0, len(TIER1_SEEDS), 20))
def test_seeds_match_the_pinned_digests(first):
    assert_digests_match(seed_programs(TIER1_SEEDS[first : first + 20]))


if __name__ == "__main__":
    named = {**HOSTS, **seed_programs(SEEDS)}
    digests = {}
    for name, source in named.items():
        interp, compiled = (digest_of(source, backend) for backend in BACKENDS)
        assert interp == compiled, f"the engines disagree on {name}"
        digests[name] = interp
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH}")
