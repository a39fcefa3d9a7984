"""Content-addressed caches for analysis and transformation results.

Benchmarks, mutation sweeps, and reference oracles repeatedly feed the
*same* source text through lex → parse → analyze (and the transformation
pipeline). Those stages are pure functions of the source, so their
results are cached here. The ``analysis`` cache is keyed on the SHA-256
of the text: an identical source returns the identical result object;
any edit — even one character — produces a different digest and
therefore a fresh build. Each later stage is keyed on what its value is
derived from: the ``transform`` and ``compile`` caches on the identity
of the analysis (which each entry holds, so the id cannot be reused
while the entry lives).

Sharing a result object is safe because every consumer treats analyzed
programs as immutable: the transformation passes are *copying* rewriters
(:mod:`repro.transform.rewriter`), the interpreter only reads the
resolution tables, and the mutation generator never writes to the tree
(each faulty node is a copy, printed into one re-rendered line of the
host's text). Tracing and debugging state always lives in per-run
objects (trees, dependence graphs), never in the analysis.

A text need not be parsed to be analysed. The ``patch`` cache holds
recipes (:class:`repro.pascal.semantics.AnalysisPatch`) registered by
the mutation generator, keyed like the ``analysis`` cache by the digest
of the mutant text they build. An ``analysis`` miss on such a text
builds it by patching the analysis of the printed host, sharing every
node and side table it does not change. Recipes are bounded; one that
is evicted or cleared only costs a parse. A ``transform`` miss on the
analysis a recipe built likewise patches the cached transform of the
recipe's base (:class:`repro.transform.pipeline.TransformPatch`), so a
mutant stays a patch of its host's transform for as long as its recipe
lives, whatever the other caches evicted. The ``patch`` cache also holds
a :class:`repro.pascal.semantics.Relocation` for each text the printer
prints: an ``analysis`` miss on it analyzes a copy of the printed
program, located as a parse of the text would locate it. A printed
text never replaces a recipe already held for it.

Caches live in the process that fills them; they are bounded LRU (a
mutation sweep over thousands of distinct mutant sources must not
retain every analysis), can be disabled globally with
:func:`set_enabled`, cleared with :func:`clear_caches`, and report
hit/miss counters through :func:`cache_stats` so the benchmark harness
can show what the cache is doing.

A lookup that reads as corrupted (injected at the ``cache.read`` fault
point, see ``docs/ROBUSTNESS.md``) drops the entry, is counted in the
``corrupt`` stat (and the ``cache.corrupt_entries`` metric), and is
treated as a miss: corruption is never a crash.
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict
from typing import Any, Callable

#: global switch — when False every lookup misses and nothing is stored
_ENABLED = True


def _fire_read_fault(cache_name: str):
    """Consult the fault-injection plan, if the resilience layer is even
    loaded (``sys.modules`` probe: the substrate must not import upward,
    and an unloaded fault module cannot hold an installed plan)."""
    faults = sys.modules.get("repro.resilience.faults")
    if faults is None:
        return None
    return faults.fire("cache.read", key=cache_name)


def _count_corrupt_metric() -> None:
    obs = sys.modules.get("repro.obs")
    if obs is not None:
        obs.add("cache.corrupt_entries")


def _journal_lookup(cache_name: str, outcome: str) -> None:
    """Journal one cache lookup (``hit`` / ``miss``) — phase-granular,
    so the flight recorder shows what each stage paid."""
    obs = sys.modules.get("repro.obs")
    if obs is not None:
        obs.emit("cache", cache=cache_name, outcome=outcome)


def set_enabled(enabled: bool) -> None:
    """Turn all content caches on or off (off → every lookup rebuilds)."""
    global _ENABLED
    _ENABLED = enabled


def source_key(source: str) -> tuple:
    """Cache key for ``source``: its content digest."""
    return (hashlib.sha256(source.encode("utf-8")).hexdigest(),)


class ContentCache:
    """A named, bounded, LRU content cache with hit/miss counters."""

    __slots__ = ("name", "max_entries", "hits", "misses", "corrupt_entries", "_store")

    def __init__(self, name: str, max_entries: int = 256):
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        #: lookups that read as corrupted (injected at ``cache.read``)
        self.corrupt_entries = 0
        self._store: OrderedDict[tuple, Any] = OrderedDict()

    def get_or_build(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building (and storing) on miss.

        A lookup that reads as corrupted (injected at the ``cache.read``
        fault point) drops the entry and counts once, then is an
        ordinary miss: the value rebuilds. An injection finding no entry
        still counts: it simulates the entry having been damaged.
        """
        if not _ENABLED:
            return build()
        store = self._store
        if _fire_read_fault(self.name) is not None:
            store.pop(key, None)
            self.corrupt_entries += 1
            _count_corrupt_metric()
        else:
            value = store.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                store.move_to_end(key)
                _journal_lookup(self.name, "hit")
                return value
        self.misses += 1
        _journal_lookup(self.name, "miss")
        value = build()
        self._put(key, value)
        return value

    def peek(self, key: tuple) -> Any:
        """The value stored under ``key`` (counted as a hit), or None (a
        miss). Nothing is built and recency is not updated, so a
        concurrent eviction cannot break the lookup."""
        if not _ENABLED:
            return None
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: tuple, value: Any) -> None:
        """Store ``value`` under ``key``."""
        if _ENABLED:
            self._put(key, value)

    def add(self, key: tuple, value: Any) -> None:
        """Store ``value`` under ``key`` unless an entry is there."""
        if _ENABLED and key not in self._store:
            self._put(key, value)

    def discard(self, key: tuple) -> None:
        """Drop the entry for ``key``, if any."""
        self._store.pop(key, None)

    def _put(self, key: tuple, value: Any) -> None:
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt_entries,
        }


_MISSING = object()


#: every cache created via :func:`register`, by name
_CACHES: dict[str, ContentCache] = {}


def register(name: str, max_entries: int = 256) -> ContentCache:
    """Create (or fetch) the named cache. Module-level singletons."""
    cache = _CACHES.get(name)
    if cache is None:
        cache = _CACHES[name] = ContentCache(name, max_entries=max_entries)
    return cache


def clear_caches() -> None:
    """Drop every cached entry (the counters are kept)."""
    for cache in _CACHES.values():
        cache.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache entry/hit/miss counts, keyed by cache name."""
    return {name: cache.stats() for name, cache in sorted(_CACHES.items())}
