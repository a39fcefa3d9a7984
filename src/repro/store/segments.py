"""Checksummed, atomically-published segment files.

A *segment* is one immutable batch of test reports:

    <64 hex chars: SHA-256 of the payload>\\n
    <payload: the gadt-testdb/1 JSON document (repro.store.codec)>

The crash-safe file helpers below — :func:`seal_payload` /
:func:`open_sealed` framing, :func:`atomic_write_bytes` publication
(also of the store's ``meta.json``), and :func:`quarantine_file` for
damage — make sure a crash mid-flush can never leave a shard
unreadable: readers see whole segments or no segment, and a failed
checksum moves the file aside as ``*.corrupt`` and drops it from the
shard (counted, never a crash).

Fault-injection points (``docs/ROBUSTNESS.md``): ``store.read`` fires
before a segment is parsed (``corrupt`` treats the bytes as damaged,
``oserror`` simulates an unreadable file), ``store.write`` fires before
a flush publishes (``corrupt`` publishes deliberately damaged bytes —
the torn-write simulation the read path must survive).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.resilience import faults
from repro.store.codec import CodecError, dumps_reports, loads_reports
from repro.tgen.reports import TestReport

#: segment files are ``seg-<pid>-<seq>-<digest12>.seg``; the pid plus a
#: per-process sequence number keeps concurrent writers collision-free
SEGMENT_SUFFIX = ".seg"

_SEQUENCE = itertools.count()


# ----------------------------------------------------------------------
# crash-safe file machinery: checksummed payload framing, atomic
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


class SegmentCorrupt(Exception):
    """A segment failed its checksum or did not decode; the file has
    already been quarantined as ``*.corrupt``."""

    def __init__(self, path: Path):
        super().__init__(f"corrupt segment {path.name}")
        self.path = path


@dataclass(frozen=True)
class Segment:
    """One decoded segment file."""

    path: Path
    reports: tuple[TestReport, ...]


def segment_names(directory: Path) -> list[str]:
    """The live segment file names in ``directory``, sorted."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(name for name in names if name.endswith(SEGMENT_SUFFIX))


def quarantined_names(directory: Path) -> list[str]:
    """The quarantined (``*.corrupt``) file names in ``directory``."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(name for name in names if name.endswith(".corrupt"))


def write_segment(directory: Path, reports: list[TestReport]) -> Path:
    """Atomically publish ``reports`` as a new segment in ``directory``
    and return its path. OSErrors (real or injected at ``store.write``)
    propagate — the caller keeps its buffer and may retry; an injected
    ``corrupt`` spec publishes damaged bytes instead (the read path
    quarantines them later)."""
    payload = dumps_reports(reports)
    digest = hashlib.sha256(payload).hexdigest()[:12]
    path = directory / f"seg-{os.getpid()}-{next(_SEQUENCE):06d}-{digest}.seg"
    spec = faults.trip("store.write", key=f"{directory.name}/{path.name}")
    blob = seal_payload(payload)
    if spec is not None:  # "corrupt": damage our own bytes, then publish
        blob = b"0" * 64 + b"\n" + payload[: len(payload) // 2]
    atomic_write_bytes(path, blob)
    return path


def read_segment(path: Path) -> Segment:
    """Decode one segment.

    Raises :class:`FileNotFoundError` when the segment vanished (e.g.
    compacted away by a concurrent writer), :class:`OSError` when the
    file is unreadable, and :class:`SegmentCorrupt` — after moving the
    file aside as ``*.corrupt`` — when the checksum or the document
    fails to verify.
    """
    spec = faults.trip("store.read", key=path.name)
    blob = path.read_bytes()
    payload = None if spec is not None else open_sealed(blob)
    if payload is not None:
        try:
            return Segment(path=path, reports=tuple(loads_reports(payload)))
        except CodecError:
            pass  # checksum ok but undecodable: quarantine below
    quarantine_file(path)
    raise SegmentCorrupt(path)
