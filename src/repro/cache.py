"""Content-addressed caches for analysis and transformation results.

Benchmarks, mutation sweeps, and reference oracles repeatedly feed the
*same* source text through lex → parse → analyze (and the transformation
pipeline). Those stages are pure functions of the source, so their
results are cached here keyed on the SHA-256 of the text: an identical
source returns the identical result object; any edit — even one
character — produces a different digest and therefore a fresh build.

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
node and side table it does not change. Recipes are in memory only and
bounded; one that is evicted or cleared only costs a parse. A
``transform`` miss on such a text likewise builds the transform by
patching the cached transform of the printed host
(:class:`repro.transform.pipeline.TransformPatch`), keyed by the text
alone; without a recipe, or when the host's analysis was rebuilt since,
it runs the pass pipeline.

Caches are bounded LRU (a mutation sweep over thousands of distinct
mutant sources must not retain every analysis), can be disabled globally
with :func:`set_enabled`, cleared with :func:`clear_caches`, and report
hit/miss counters through :func:`cache_stats` so the benchmark harness
can show what the cache is doing.

**Crash safety** (see ``docs/ROBUSTNESS.md``): an optional on-disk
layer (:class:`DiskCacheBackend`, attached per cache or for all caches
via :func:`enable_persistence`) persists entries across processes.
Disk writes are atomic — a temp file in the cache directory published
with ``os.replace`` — so a crash mid-write can never leave a torn
entry. Every entry carries a SHA-256 checksum of its payload;
corruption detected on read (or injected via the ``cache.read`` fault
point) quarantines the entry to ``*.corrupt``, counts it in the
``corrupt`` stat (and the ``cache.corrupt_entries`` metric), and
treats the lookup as a miss — corruption is never a crash.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

#: global switch — when False every lookup misses and nothing is stored
_ENABLED = True

#: layout tag of pickled disk entries, part of every entry's file name.
#: Change it when a cached value's pickled form changes (e.g. a class
#: becomes a tuple): entries of the old layout then read as plain misses
#: instead of unloadable, quarantined "corrupt" files.
DISK_FORMAT = "gadt-cache/2"


def _fire_read_fault(cache_name: str):
    """Consult the fault-injection plan, if the resilience layer is even
    loaded (``sys.modules`` probe: the substrate must not import upward,
    and an unloaded fault module cannot hold an installed plan)."""
    faults = sys.modules.get("repro.resilience.faults")
    if faults is None:
        return None
    return faults.fire("cache.read", key=cache_name)


def _count_corrupt_metric(amount: int = 1) -> None:
    obs = sys.modules.get("repro.obs")
    if obs is not None:
        obs.add("cache.corrupt_entries", amount)


def _journal_lookup(cache_name: str, outcome: str) -> None:
    """Journal one cache lookup (``hit`` / ``disk-hit`` / ``miss``) —
    phase-granular, so the flight recorder shows what each stage paid."""
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
    """A named, bounded, LRU content cache with hit/miss counters and an
    optional crash-safe on-disk layer."""

    __slots__ = (
        "name", "max_entries", "hits", "misses", "disk_hits",
        "corrupt_entries", "persist", "persistable", "_store",
    )

    def __init__(
        self,
        name: str,
        max_entries: int = 256,
        persist: "DiskCacheBackend | None" = None,
        persistable: bool = True,
    ):
        self.name = name
        self.persistable = persistable
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        #: entries dropped as corrupted (injected or detected on disk)
        self.corrupt_entries = 0
        self.persist = persist
        self._store: OrderedDict[tuple, Any] = OrderedDict()

    def get_or_build(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building (and storing) on miss.

        A corrupted entry — detected by the disk layer's checksum or
        injected at the ``cache.read`` fault point — is quarantined and
        counted, then treated as an ordinary miss: the value rebuilds.
        """
        if not _ENABLED:
            return build()
        corrupt_injected = _fire_read_fault(self.name) is not None
        corrupted = False
        store = self._store
        value = store.get(key, _MISSING)
        if value is not _MISSING:
            if corrupt_injected:
                del store[key]
                corrupted = True
            else:
                self.hits += 1
                store.move_to_end(key)
                _journal_lookup(self.name, "hit")
                return value
        if self.persist is not None:
            value = self.persist.load(key, force_corrupt=corrupt_injected)
            if value is _CORRUPT:
                corrupted = True
            elif value is not _MISSING:
                self.disk_hits += 1
                self._put(key, value)
                _journal_lookup(self.name, "disk-hit")
                return value
        if corrupted or (corrupt_injected and value is _MISSING):
            # One logical corrupted read, however many layers it hit
            # (an injected fault with no entry anywhere still counts:
            # the injection simulates the entry having been damaged).
            self._note_corrupt()
        self.misses += 1
        _journal_lookup(self.name, "miss")
        value = build()
        self._put(key, value)
        if self.persist is not None:
            self.persist.store(key, value)
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
        """Store ``value`` under ``key`` (in memory only)."""
        if _ENABLED:
            self._put(key, value)

    def _put(self, key: tuple, value: Any) -> None:
        self._store[key] = value
        if len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def _note_corrupt(self) -> None:
        self.corrupt_entries += 1
        _count_corrupt_metric()

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
_CORRUPT = object()


# ----------------------------------------------------------------------
# crash-safe file machinery, shared with the persistent test-report
# store (:mod:`repro.store`): checksummed payload framing, atomic
# publication, and quarantine of damaged files.


def seal_payload(payload: bytes) -> bytes:
    """Frame ``payload`` for crash-safe storage: 64 hex chars of SHA-256
    over the payload, a newline, then the payload itself."""
    header = hashlib.sha256(payload).hexdigest().encode("ascii")
    return header + b"\n" + payload


def open_sealed(blob: bytes) -> bytes | None:
    """The payload of a sealed ``blob``, or None when the checksum (or
    the framing itself) does not verify — the caller quarantines."""
    header, sep, payload = blob.partition(b"\n")
    if not sep:
        return None
    if header.decode("ascii", "replace") != hashlib.sha256(payload).hexdigest():
        return None
    return payload


def atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` atomically: a temp file in the same
    directory, then ``os.replace`` — readers see the old file, the new
    file, or nothing, never a torn write. OSErrors propagate after the
    temp file is cleaned up."""
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine_file(path: Path) -> None:
    """Move a damaged file aside as ``<name>.corrupt`` (best effort)."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        pass


class DiskCacheBackend:
    """Content-addressed on-disk entries with atomic writes and checksum
    verification (one file per entry, named by the key's digest).

    File format: 64 hex chars of SHA-256 over the payload, a newline,
    then the pickled payload. Writes go to a temp file in the same
    directory and are published with ``os.replace`` — readers see either
    the old entry, the new entry, or nothing, never a torn write. A
    checksum mismatch (or unreadable pickle) quarantines the file as
    ``<name>.corrupt`` and reads as a miss.
    """

    def __init__(self, directory: str | os.PathLike, name: str):
        self.directory = Path(directory) / name
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr((DISK_FORMAT, key)).encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.entry"

    def load(self, key: tuple, force_corrupt: bool = False) -> Any:
        """The stored value, ``_MISSING``, or ``_CORRUPT`` (after
        quarantining). ``force_corrupt`` treats an existing entry as
        damaged (the injection path)."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return _MISSING
        except OSError:
            return _MISSING
        if not force_corrupt:
            payload = open_sealed(blob)
            if payload is not None:
                try:
                    return pickle.loads(payload)
                except Exception:
                    pass  # checksum ok but unpicklable: quarantine below
        self._quarantine(path)
        return _CORRUPT

    def store(self, key: tuple, value: Any) -> None:
        """Atomically persist ``value``; unpicklable values are skipped
        (the in-memory layer still serves them)."""
        try:
            payload = pickle.dumps(value)
        except Exception:
            return
        try:
            atomic_write_bytes(self._path(key), seal_payload(payload))
        except OSError:
            pass  # the in-memory layer still serves the value

    def _quarantine(self, path: Path) -> None:
        quarantine_file(path)

    def clear(self) -> None:
        for path in self.directory.glob("*.entry"):
            try:
                path.unlink()
            except OSError:
                pass

#: every cache created via :func:`register`, by name
_CACHES: dict[str, ContentCache] = {}


def register(
    name: str, max_entries: int = 256, persistable: bool = True
) -> ContentCache:
    """Create (or fetch) the named cache. Module-level singletons.

    ``persistable=False`` marks caches whose values are process-local
    (e.g. compiled closures keyed by object identity) — they never get a
    disk layer, even when persistence is enabled globally.
    """
    cache = _CACHES.get(name)
    if cache is None:
        cache = ContentCache(name, max_entries=max_entries, persistable=persistable)
        if persistable and _PERSIST_DIR is not None:
            cache.persist = DiskCacheBackend(_PERSIST_DIR, name)
        _CACHES[name] = cache
    return cache


def clear_caches() -> None:
    """Drop every cached in-memory entry (counters and disk entries are
    kept; use :meth:`DiskCacheBackend.clear` to drop persisted ones)."""
    for cache in _CACHES.values():
        cache.clear()


def enable_persistence(directory: str | os.PathLike) -> None:
    """Attach a crash-safe disk layer under ``directory`` to every
    registered cache (and to caches registered later)."""
    global _PERSIST_DIR
    _PERSIST_DIR = Path(directory)
    for cache in _CACHES.values():
        if cache.persistable:
            cache.persist = DiskCacheBackend(_PERSIST_DIR, cache.name)


def disable_persistence() -> None:
    """Detach the disk layer everywhere (entries on disk are kept)."""
    global _PERSIST_DIR
    _PERSIST_DIR = None
    for cache in _CACHES.values():
        cache.persist = None


_PERSIST_DIR: Path | None = None


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-cache entry/hit/miss counts, keyed by cache name."""
    return {name: cache.stats() for name, cache in sorted(_CACHES.items())}
