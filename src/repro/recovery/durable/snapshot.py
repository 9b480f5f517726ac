"""Atomic on-disk snapshots of logical checkpoints.

A snapshot is one :class:`~repro.recovery.checkpoint.Checkpoint`
serialised to ``snap-<lsn>.snap``, where ``lsn`` is the last WAL
record already folded into it (0 for the bootstrap snapshot of the
initial load).  Replay after restore therefore starts at ``lsn + 1``.

Publication is the classic atomic-rename discipline: write the full
checksummed image to ``<name>.tmp``, fsync the file, ``os.replace``
onto the final name, fsync the directory.  A crash at *any* point
leaves either the old snapshot set or the new one -- never a
half-written file under a valid name.  The ``crash_before_rename``
disk fault simulates dying between the tmp write and the rename;
reopen must ignore (and fsck must sweep) orphaned ``.tmp`` files.

The body reuses the WAL's header framing (length + crc32), so a
truncated or bit-flipped snapshot fails its checksum and is skipped in
favour of an older one.  Every payload is a JSON list; the pair
tuples of the ordered maps and the priority queue come back as lists
and are re-tupled on decode (a FIFO payload is values, kept as read).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.recovery.checkpoint import Checkpoint
from repro.recovery.durable.wal import HEADER

__all__ = [
    "SnapshotInfo",
    "decode_checkpoint",
    "encode_checkpoint",
    "list_orphan_tmps",
    "list_snapshots",
    "load_snapshot",
    "read_snapshot",
    "snapshot_name",
    "write_snapshot",
]

_SNAP_PREFIX = "snap-"
_SNAP_SUFFIX = ".snap"
_TMP_SUFFIX = ".tmp"


def snapshot_name(lsn: int) -> str:
    """Snapshot filename covering the log up to and including ``lsn``."""
    return f"{_SNAP_PREFIX}{lsn:012d}{_SNAP_SUFFIX}"


def encode_checkpoint(chk: Checkpoint) -> Dict[str, Any]:
    """Checkpoint -> JSON-safe dict (JSON writes tuples as lists)."""
    return {"kind": chk.kind, "name": chk.name, "payload": chk.payload}


def decode_checkpoint(doc: Dict[str, Any]) -> Checkpoint:
    """Inverse of :func:`encode_checkpoint` (re-tuples pairs)."""
    kind = doc["kind"]
    payload = doc["payload"]
    if kind != "fifo":
        payload = [tuple(p) for p in payload]
    return Checkpoint(kind=kind, name=doc["name"], payload=payload)


class SnapshotInfo:
    """One snapshot file on disk: covered LSN + path."""

    __slots__ = ("lsn", "path")

    def __init__(self, lsn: int, path: str) -> None:
        self.lsn = lsn
        self.path = path


def list_snapshots(root: str) -> List[SnapshotInfo]:
    """Published snapshots under ``root``, oldest first (``.tmp``
    orphans excluded -- they never finished their rename)."""
    out = []
    for name in os.listdir(root):
        if name.startswith(_SNAP_PREFIX) and name.endswith(_SNAP_SUFFIX):
            digits = name[len(_SNAP_PREFIX):-len(_SNAP_SUFFIX)]
            if digits.isdigit():
                out.append(SnapshotInfo(int(digits), os.path.join(root, name)))
    return sorted(out, key=lambda s: s.lsn)


def list_orphan_tmps(root: str) -> List[str]:
    """Leftover ``.snap.tmp`` files (crash-before-rename artifacts)."""
    return sorted(
        os.path.join(root, name) for name in os.listdir(root)
        if name.startswith(_SNAP_PREFIX)
        and name.endswith(_SNAP_SUFFIX + _TMP_SUFFIX))


def write_snapshot(root: str, lsn: int, chk: Checkpoint, *,
                   os_fsync: bool = True,
                   crash_before_rename: bool = False) -> str:
    """Atomically publish ``chk`` as ``snap-<lsn>.snap``; returns the
    final path.  ``crash_before_rename=True`` stops after the tmp
    write (fault-injection hook): the orphan ``.tmp`` stays, the final
    name never appears."""
    final = os.path.join(root, snapshot_name(lsn))
    tmp = final + _TMP_SUFFIX
    body = json.dumps({"lsn": lsn, "checkpoint": encode_checkpoint(chk)},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(tmp, "wb") as f:
        f.write(HEADER.pack(len(body), zlib.crc32(body)))
        f.write(body)
        f.flush()
        if os_fsync:
            os.fsync(f.fileno())
    if crash_before_rename:
        return tmp
    os.replace(tmp, final)
    if os_fsync:
        dir_fd = os.open(root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return final


def read_snapshot(path: str) -> Optional[Tuple[int, Checkpoint]]:
    """Read and verify one snapshot file.

    Returns ``(lsn, checkpoint)`` or ``None`` when the file is
    truncated, checksum-failing or structurally invalid -- the caller
    falls back to an older snapshot.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    if len(data) < HEADER.size:
        return None
    length, crc = HEADER.unpack_from(data, 0)
    body = data[HEADER.size:]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    try:
        doc = json.loads(body.decode("utf-8"))
        return int(doc["lsn"]), decode_checkpoint(doc["checkpoint"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None


def load_snapshot(root: str) -> Optional[Tuple[int, Checkpoint, List[str]]]:
    """Newest *valid* snapshot under ``root``.

    Returns ``(lsn, checkpoint, corrupt_paths)`` -- ``corrupt_paths``
    lists newer snapshots that failed verification and were skipped
    (fsck reports them; recovery falls back past them).  ``None`` when
    no valid snapshot exists at all.
    """
    corrupt: List[str] = []
    for info in reversed(list_snapshots(root)):
        loaded = read_snapshot(info.path)
        if loaded is not None:
            lsn, chk = loaded
            return lsn, chk, corrupt
        corrupt.append(info.path)
    return None
