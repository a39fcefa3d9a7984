"""``repro.store`` — the persistent sharded test-report store.

The paper's interaction-reduction lever is the test-report database
(Figure 3): a recorded passing test answers a correctness query before
the user is ever asked. The in-memory
:class:`~repro.tgen.reports.TestReportDatabase` dies with its process;
this package makes the report path durable and shared:

* :class:`ShardedReportStore` — reports sharded by a stable hash of
  their unit across directories of checksummed, atomically-published
  segment files (the crash-safe file helpers of
  :mod:`repro.store.segments`),
  with a per-shard LRU read cache and a write-ahead batch buffer that
  flushes on size, :meth:`~ShardedReportStore.flush`, or close. A
  drop-in :class:`~repro.tgen.lookup.ReportBackend` for
  :class:`~repro.tgen.lookup.TestCaseLookup`.
* :class:`BatchAnswerService` — answers many ``(unit, inputs)``
  queries at once, grouped by shard, with hit/miss/conflict accounting
  in :mod:`repro.obs`; hands concurrent debug sessions per-session
  lookups over the shared store.
* :mod:`repro.store.codec` / :mod:`repro.store.segments` — the JSON
  document format and the segment file layer (fault-injection points
  ``store.read`` / ``store.write``).

CLI: ``repro testdb import|stats|compact``. Format and guarantees:
``docs/TESTDB.md``.
"""

from __future__ import annotations

from repro.store.batch import BatchAnswerService, BatchQuery, BatchStats
from repro.store.codec import (
    CodecError,
    OpaqueValue,
    report_from_dict,
    report_to_dict,
)
from repro.store.segments import Segment, SegmentCorrupt
from repro.store.sharded import (
    DEFAULT_SHARDS,
    STORE_FORMAT,
    ShardedReportStore,
    StoreError,
    shard_of,
)

__all__ = [
    "BatchAnswerService",
    "BatchQuery",
    "BatchStats",
    "CodecError",
    "DEFAULT_SHARDS",
    "OpaqueValue",
    "STORE_FORMAT",
    "Segment",
    "SegmentCorrupt",
    "ShardedReportStore",
    "StoreError",
    "report_from_dict",
    "report_to_dict",
    "shard_of",
]
