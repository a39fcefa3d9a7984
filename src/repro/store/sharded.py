"""The persistent sharded test-report store.

Figure 3's test-report database, grown past one process: reports are
sharded by a *stable* hash of their unit name across directories of
checksummed, atomically-published segment files, so any number of
debug sessions — threads or separate processes — can share one store
on disk. Per shard the store keeps

* a **write-ahead batch buffer** — ``add`` is an in-memory append;
  reports hit disk as one new segment when the buffer reaches
  ``flush_threshold``, on :meth:`~ShardedReportStore.flush`, or on
  :meth:`~ShardedReportStore.close` (unflushed reports are still
  served to lookups in this process);
* an **LRU read cache** over ``(unit, frame_key)`` entries, validated
  against the shard's current segment listing so segments published by
  other processes are picked up on the next lookup.

The store is a drop-in :class:`~repro.tgen.lookup.ReportBackend`: hand
it to :class:`~repro.tgen.lookup.TestCaseLookup` (or
``GadtSystem.store_lookup``) exactly where the in-memory
:class:`~repro.tgen.reports.TestReportDatabase` goes. Layout, codec,
and crash-safety guarantees are documented in ``docs/TESTDB.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

from repro import obs
from repro.store.segments import (
    SegmentCorrupt,
    atomic_write_bytes,
    quarantined_names,
    read_segment,
    segment_names,
    write_segment,
)
from repro.tgen.reports import TestReport, Verdict, combine_verdicts

STORE_FORMAT = "gadt-testdb/1"

#: default shard count — small enough that ``stats`` stays readable,
#: large enough that concurrent sessions rarely contend on one lock
DEFAULT_SHARDS = 8


class StoreError(Exception):
    """The store directory is unusable (bad meta, format mismatch)."""


def shard_of(unit: str, shards: int) -> int:
    """The shard index of ``unit``: a *stable* content hash, identical
    across processes and Python runs (``hash(str)`` is salted, so the
    builtin would scatter one unit over different shards per process)."""
    digest = hashlib.sha256(unit.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class _Shard:
    """One shard: a directory of segments plus in-memory caches.

    All state is guarded by ``lock``; every public method of the store
    takes it before touching the shard.
    """

    __slots__ = (
        "directory", "lock", "buffer", "lru", "cached_names",
        "capacity", "lru_hits", "scans", "segment_reads", "flushes",
        "corrupt_segments", "read_errors",
    )

    def __init__(self, directory: Path, capacity: int):
        self.directory = directory
        self.lock = threading.RLock()
        self.buffer: list[TestReport] = []
        #: (unit, frame_key) -> tuple of segment-resident reports;
        #: negative entries (empty tuples) cache known-absent frames
        self.lru: OrderedDict[tuple[str, tuple[str, ...]], tuple[TestReport, ...]] = (
            OrderedDict()
        )
        #: segment listing the LRU contents were computed against
        self.cached_names: tuple[str, ...] | None = None
        self.capacity = capacity
        self.lru_hits = 0
        self.scans = 0
        self.segment_reads = 0
        self.flushes = 0
        self.corrupt_segments = 0
        self.read_errors = 0

    # -- reading -------------------------------------------------------

    def lookup(self, unit: str, frame_key: tuple[str, ...]) -> list[TestReport]:
        key = (unit, frame_key)
        with self.lock:
            buffered = [
                report
                for report in self.buffer
                if report.unit == unit and report.frame_key == frame_key
            ]
            if self.cached_names is not None and self.cached_names == tuple(
                segment_names(self.directory)
            ):
                entry = self.lru.get(key)
                if entry is not None:
                    self.lru.move_to_end(key)
                    self.lru_hits += 1
                    obs.add("store.lru_hits")
                    return list(entry) + buffered
            errors_before = self.read_errors
            index = self._scan()
            if self.read_errors == errors_before:
                # Only a clean scan may feed the cache: caching the
                # result of a failed read would turn a transient I/O
                # error into a sticky wrong answer.
                self._refill_lru(index, key)
            return list(index.get(key, ())) + buffered

    def _scan(
        self, counted: bool = True
    ) -> dict[tuple[str, tuple[str, ...]], list[TestReport]]:
        """Read every live segment, quarantining damage as it surfaces.
        ``counted=False`` keeps maintenance reads (stats, compaction)
        out of the hit-rate accounting."""
        index: dict[tuple[str, tuple[str, ...]], list[TestReport]] = {}
        for name in segment_names(self.directory):
            try:
                segment = read_segment(self.directory / name)
            except SegmentCorrupt:
                self.corrupt_segments += 1
                obs.add("store.corrupt_segments")
                continue
            except FileNotFoundError:
                continue  # compacted away under us
            except OSError:
                self.read_errors += 1
                obs.add("store.read_errors")
                continue
            self.segment_reads += 1
            for report in segment.reports:
                index.setdefault((report.unit, report.frame_key), []).append(report)
        if counted:
            self.scans += 1
            obs.add("store.scans")
        return index

    def _refill_lru(self, index, requested_key) -> None:
        """Rebuild the LRU from a fresh scan: every scanned frame, the
        requested one (even when absent — a negative entry) most recent,
        evicting down to capacity."""
        self.lru.clear()
        for key, reports in index.items():
            if key != requested_key:
                self.lru[key] = tuple(reports)
        self.lru[requested_key] = tuple(index.get(requested_key, ()))
        while len(self.lru) > self.capacity:
            self.lru.popitem(last=False)
        self.cached_names = tuple(segment_names(self.directory))

    def all_reports(self) -> list[TestReport]:
        with self.lock:
            index = self._scan(counted=False)
            reports = [
                report for group in index.values() for report in group
            ]
            reports.extend(self.buffer)
            return reports

    # -- writing -------------------------------------------------------

    def add(self, report: TestReport, threshold: int) -> None:
        with self.lock:
            self.buffer.append(report)
            if len(self.buffer) >= threshold:
                self.flush()

    def flush(self) -> int:
        """Publish the buffer as one new segment; the buffer survives a
        failed write so nothing is lost to a transient error."""
        with self.lock:
            if not self.buffer:
                return 0
            path = write_segment(self.directory, self.buffer)
            flushed = list(self.buffer)
            self.buffer.clear()
            if self.cached_names is not None:
                # Fold the flushed reports into the cache instead of
                # invalidating it wholesale: the new segment contains
                # exactly this buffer.
                for report in flushed:
                    key = (report.unit, report.frame_key)
                    if key in self.lru:
                        self.lru[key] = self.lru[key] + (report,)
                self.cached_names = tuple(
                    sorted((*self.cached_names, path.name))
                )
            self.flushes += 1
            obs.add("store.flushes")
            obs.add("store.reports_written", len(flushed))
            return len(flushed)

    def compact(self) -> tuple[int, int]:
        """Merge all live segments (and the buffer) into one segment,
        dropping exact-duplicate rows; returns (segments_before,
        segments_after)."""
        with self.lock:
            before = segment_names(self.directory)
            index = self._scan(counted=False)
            merged: dict[TestReport, None] = {}
            for group in index.values():
                for report in group:
                    merged[report] = None
            for report in self.buffer:
                merged[report] = None
            self.buffer.clear()
            survivors = list(merged)
            if survivors:
                kept = write_segment(self.directory, survivors)
            for name in before:
                if survivors and name == kept.name:
                    continue
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass
            self.lru.clear()
            self.cached_names = None
            return len(before), (1 if survivors else 0)

    def stats(self) -> dict:
        with self.lock:
            index = self._scan(counted=False)
            frames = set(index)
            frames.update(
                (report.unit, report.frame_key) for report in self.buffer
            )
            return {
                "segments": len(segment_names(self.directory)),
                "reports": sum(len(group) for group in index.values())
                + len(self.buffer),
                "frames": len(frames),
                "buffered": len(self.buffer),
                "quarantined": len(quarantined_names(self.directory)),
            }


class ShardedReportStore:
    """Durable, sharded, batched drop-in for ``TestReportDatabase``.

    ``shards`` only matters on first creation — reopening an existing
    store reads the count from ``meta.json`` (reports must stay in the
    shard their unit hashed into).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        shards: int = DEFAULT_SHARDS,
        flush_threshold: int = 256,
        cache_capacity: int = 128,
    ):
        if shards < 1:
            raise StoreError(f"shards must be >= 1, got {shards}")
        if flush_threshold < 1:
            raise StoreError(f"flush_threshold must be >= 1, got {flush_threshold}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shards = self._load_or_init_meta(shards)
        self.flush_threshold = flush_threshold
        self._shards = []
        for index in range(self.shards):
            shard_dir = self.directory / f"shard-{index:03d}"
            shard_dir.mkdir(exist_ok=True)
            self._shards.append(_Shard(shard_dir, cache_capacity))
        self._closed = False

    def _load_or_init_meta(self, shards: int) -> int:
        meta_path = self.directory / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise StoreError(f"unreadable store meta: {error}") from error
            if meta.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"store format {meta.get('format')!r} is not {STORE_FORMAT!r}"
                )
            return int(meta["shards"])
        blob = json.dumps(
            {"format": STORE_FORMAT, "shards": shards}, sort_keys=True
        ).encode("utf-8")
        atomic_write_bytes(meta_path, blob)
        return shards

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def flush(self) -> int:
        """Publish every shard's buffer; returns reports written."""
        self._require_open()
        return sum(shard.flush() for shard in self._shards)

    def close(self) -> None:
        """Flush and seal the store object (the directory stays valid;
        reopen with a new :class:`ShardedReportStore`)."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._closed = True

    def __enter__(self) -> "ShardedReportStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")

    def _shard_for(self, unit: str) -> _Shard:
        return self._shards[shard_of(unit, self.shards)]

    def shard_of(self, unit: str) -> int:
        """The shard index serving ``unit`` (batching groups by this)."""
        return shard_of(unit, self.shards)

    # -- the TestReportDatabase API ------------------------------------

    def add(self, report: TestReport) -> None:
        self._require_open()
        self._shard_for(report.unit).add(report, self.flush_threshold)

    def lookup(self, unit: str, frame_key: tuple[str, ...]) -> list[TestReport]:
        self._require_open()
        obs.add("store.lookups")
        return self._shard_for(unit).lookup(unit, frame_key)

    def verdict_for(self, unit: str, frame_key: tuple[str, ...]) -> Verdict | None:
        return combine_verdicts(self.lookup(unit, frame_key))

    def units(self) -> set[str]:
        return {report.unit for report in self.all_reports()}

    def frames_of(self, unit: str) -> list[tuple[str, ...]]:
        shard = self._shard_for(unit)
        self._require_open()
        seen: dict[tuple[str, ...], None] = {}
        for report in shard.all_reports():
            if report.unit == unit:
                seen[report.frame_key] = None
        return list(seen)

    def all_reports(self) -> list[TestReport]:
        self._require_open()
        return [
            report for shard in self._shards for report in shard.all_reports()
        ]

    def __len__(self) -> int:
        return len(self.all_reports())

    # -- maintenance ---------------------------------------------------

    def import_reports(self, reports: Iterable[TestReport], budget=None) -> int:
        """Bulk-add ``reports`` and flush; returns the count imported.
        ``budget`` (a :class:`repro.resilience.Budget`) is checked every
        64 reports so an armed deadline bounds a huge import."""
        self._require_open()
        count = 0
        for report in reports:
            if budget is not None and count % 64 == 0:
                budget.check()
            self.add(report)
            count += 1
        self.flush()
        return count

    def compact(self, budget=None) -> dict:
        """Merge each shard down to one segment, dropping exact-duplicate
        rows; returns ``{"segments_before": ..., "segments_after": ...}``."""
        self._require_open()
        before = after = 0
        for shard in self._shards:
            if budget is not None:
                budget.check()
            shard_before, shard_after = shard.compact()
            before += shard_before
            after += shard_after
        return {"segments_before": before, "segments_after": after}

    def stats(self) -> dict:
        """Aggregated store statistics (the ``repro testdb stats`` body):
        shard/segment/report/frame counts, buffer depth, read-cache hit
        rate, and quarantined-segment count."""
        self._require_open()
        per_shard = [shard.stats() for shard in self._shards]
        lru_hits = sum(shard.lru_hits for shard in self._shards)
        scans = sum(shard.scans for shard in self._shards)
        lookups = lru_hits + scans
        return {
            "format": STORE_FORMAT,
            "shards": self.shards,
            "segments": sum(item["segments"] for item in per_shard),
            "reports": sum(item["reports"] for item in per_shard),
            "frames": sum(item["frames"] for item in per_shard),
            "buffered": sum(item["buffered"] for item in per_shard),
            "quarantined": sum(item["quarantined"] for item in per_shard),
            "lru_hits": lru_hits,
            "scans": scans,
            "hit_rate": (lru_hits / lookups) if lookups else 0.0,
            "flushes": sum(shard.flushes for shard in self._shards),
            "corrupt_segments": sum(
                shard.corrupt_segments for shard in self._shards
            ),
            "read_errors": sum(shard.read_errors for shard in self._shards),
        }

    def iter_shard_stats(self) -> Iterator[tuple[int, dict]]:
        """Per-shard stats rows (``repro testdb stats --per-shard``)."""
        for index, shard in enumerate(self._shards):
            yield index, shard.stats()
