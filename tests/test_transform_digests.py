"""Pinned transforms: the pass pipeline's output for a fixed set of
programs, as digests recorded in ``tests/data/transform_digests.json``.

Each digest (:func:`tests.canonical_forms.transform_digest`) covers the
printed transformed program, its source map by positions, the loop
units, the added parameters, the warnings and the goto counts of
``transform_source(text, cached=False)``. A change to the passes that
alters any of them for any pinned program fails here. Tier-1 checks the
fixed hosts and seeds 0-39; CI checks all of seeds 0-199.

To record the digests again, after a change meant to alter the
transforms::

    PYTHONPATH=src python -m tests.test_transform_digests
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tgen.corpus import generate_program
from repro.transform.pipeline import transform_source
from tests.canonical_forms import transform_digest
from tests.test_mutant_patch import HOSTS

DIGESTS_PATH = Path(__file__).parent / "data" / "transform_digests.json"

#: corpus seeds the digest file pins
SEEDS = range(200)

#: corpus seeds tier-1 checks
TIER1_SEEDS = range(40)


def seed_programs(seeds) -> dict[str, str]:
    """The corpus programs of ``seeds``, by name."""
    return {f"seed{seed}": generate_program(seed) for seed in seeds}


def digest_of(source: str) -> str:
    return transform_digest(transform_source(source, cached=False))


def assert_digests_match(named: dict[str, str]) -> int:
    """Check each named program against its pinned digest; returns the
    number of programs checked."""
    pinned = json.loads(DIGESTS_PATH.read_text())
    changed = [
        name for name, source in named.items() if digest_of(source) != pinned[name]
    ]
    assert not changed, f"transforms differ from the pinned ones: {changed}"
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
    digests = {name: digest_of(source) for name, source in named.items()}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS_PATH}")
