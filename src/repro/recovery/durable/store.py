"""The durable store: WAL segments + snapshots under one state dir.

:class:`DurableStore` owns a directory and maintains the invariant
that *(newest valid snapshot) + (WAL records after its LSN)* is always
a complete, crash-consistent recipe for the structure's state:

- ``append`` writes one mutating batch to the active segment and
  (per :class:`DurabilityPolicy`) fsyncs before returning -- callers
  ack only after ``append`` returns, so acked writes are durable
  (RPO = 0).
- ``snapshot`` atomically publishes a checkpoint covering everything
  durable so far, rotates to a fresh segment, and prunes snapshots /
  segments that retention no longer needs.  Retention keeps the last
  ``keep_snapshots`` snapshots *and* every segment needed to replay
  from the **oldest** kept one, so a corrupt newest snapshot degrades
  to a longer replay instead of data loss.
- ``open`` is the reopen path: load the newest valid snapshot, scan
  the segments after it, auto-truncate a torn tail on the *active*
  segment (the one crash artifact the fsync model permits), and hand
  back the records to replay.  Anything else -- mid-log damage, LSN
  gaps, torn data in a sealed segment -- raises :class:`WalCorruption`
  because silently skipping it would drop acked writes; ``repro fsck
  --repair`` is the explicit path through that refusal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.recovery.checkpoint import Checkpoint
from repro.recovery.durable.snapshot import (
    list_snapshots,
    load_snapshot,
    write_snapshot,
)
from repro.recovery.durable.wal import (
    ScanIssue,
    WalRecord,
    WalWriter,
    list_segments,
    scan_segment,
    segment_name,
)

__all__ = [
    "DurabilityError",
    "DurabilityPolicy",
    "DurableStore",
    "OpenReport",
    "WalCorruption",
]


class DurabilityError(RuntimeError):
    """Typed durability failure: the state dir cannot be recovered
    automatically (e.g. every snapshot is corrupt)."""


class WalCorruption(DurabilityError):
    """The log is damaged in a way a crash cannot produce (mid-log
    corruption, LSN gap, torn data in a sealed segment).  Automatic
    recovery refuses -- repairing would silently drop acked writes;
    ``repro fsck --repair`` does it explicitly and reports the loss."""

    def __init__(self, message: str, issues: Optional[List[ScanIssue]] = None
                 ) -> None:
        super().__init__(message)
        self.issues = issues or []


@dataclass(frozen=True)
class DurabilityPolicy:
    """Knobs for the durability/performance trade.

    - ``snapshot_every`` -- accepted and validated, but read by
      nothing: the store has no cadence of its own.  The recovery
      manager calls :meth:`DurableStore.snapshot` in lockstep with its
      amortized checkpoint capture (``repro.recovery.manager``).  The
      field stays because the end-to-end benchmark constructs the
      policy with it.
    - ``keep_snapshots`` -- snapshots retained; segments are kept back
      to the oldest retained snapshot's LSN.
    - ``os_fsync`` -- issue real ``os.fsync`` calls.  False keeps the
      modeled sync boundary (flush + ``synced_size``) without the
      physical-disk cost; tests and benches that crash via
      :meth:`DurableStore.crash` stay exact either way.
    """

    snapshot_every: int = 8
    keep_snapshots: int = 2
    os_fsync: bool = True

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        if self.keep_snapshots < 1:
            raise ValueError("keep_snapshots must be >= 1")


@dataclass
class OpenReport:
    """What :meth:`DurableStore.open` found and did."""

    created: bool
    snapshot_lsn: int
    checkpoint: Optional[Checkpoint]
    records: List[WalRecord] = field(default_factory=list)
    truncated_bytes: int = 0
    skipped_duplicates: int = 0
    corrupt_snapshots: List[str] = field(default_factory=list)
    issues: List[ScanIssue] = field(default_factory=list)


class DurableStore:
    """One state directory's WAL + snapshot set (see module docstring).

    Construct via :meth:`open`; a brand-new directory needs one
    :meth:`bootstrap` call with the initial checkpoint before appends.
    """

    def __init__(self, root: str, policy: DurabilityPolicy,
                 report: OpenReport) -> None:
        self.root = root
        self.policy = policy
        self.report = report
        self.snapshot_lsn = report.snapshot_lsn
        self.appends = 0
        self.snapshots_written = 0
        self._fsyncs_closed = 0  # from writers already rotated out
        self._writer: Optional[WalWriter] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def open(cls, root: str,
             policy: Optional[DurabilityPolicy] = None) -> "DurableStore":
        """Open (or create) the state dir; recover per module docstring.

        The returned store's ``report`` carries the replayable records
        and everything noteworthy the scan saw.  ``report.created`` is
        True for a fresh dir, which needs :meth:`bootstrap` next.
        """
        policy = policy or DurabilityPolicy()
        os.makedirs(root, exist_ok=True)
        snaps = list_snapshots(root)
        segments = list_segments(root)
        if not snaps and not segments:
            report = OpenReport(created=True, snapshot_lsn=0, checkpoint=None)
            return cls(root, policy, report)

        loaded = load_snapshot(root)
        if loaded is None:
            raise DurabilityError(
                f"no valid snapshot in {root} "
                f"({len(snaps)} snapshot file(s), all corrupt)")
        snap_lsn, chk, corrupt_snaps = loaded
        report = OpenReport(created=False, snapshot_lsn=snap_lsn,
                            checkpoint=chk, corrupt_snapshots=corrupt_snaps)

        records: List[WalRecord] = []
        expect = None
        last_scan = None
        for idx, (first_lsn, path) in enumerate(segments):
            scan = scan_segment(path, expect_lsn=first_lsn)
            last = idx == len(segments) - 1
            for issue in scan.issues:
                if issue.kind == "duplicate_lsn":
                    report.skipped_duplicates += 1
                    report.issues.append(issue)
                elif issue.kind == "torn_tail" and last:
                    # The one damage shape a crash can produce: a
                    # partial record at the end of the active segment.
                    report.issues.append(issue)
                    report.truncated_bytes = scan.size - scan.good_size
                else:
                    raise WalCorruption(
                        f"{issue.kind} in {os.path.basename(path)} at "
                        f"offset {issue.offset}: {issue.detail}",
                        issues=report.issues + [issue])
            if expect is not None and scan.records:
                first = scan.records[0].lsn
                # A forward jump whose missing LSNs the restored
                # snapshot already covers is benign -- fsck repair
                # drops redundant damaged segments, leaving exactly
                # this shape.  Any other discontinuity lost replayable
                # records.
                if first != expect and not (expect < first <= snap_lsn + 1):
                    raise WalCorruption(
                        f"segment {os.path.basename(path)} starts at lsn "
                        f"{first}, expected {expect}",
                        issues=report.issues)
            if scan.records:
                expect = scan.records[-1].lsn + 1
            records.extend(r for r in scan.records if r.lsn > snap_lsn)
            if last:
                last_scan = scan
        if records and records[0].lsn != snap_lsn + 1:
            raise WalCorruption(
                f"first replayable record is lsn {records[0].lsn}, but the "
                f"restored snapshot covers only up to lsn {snap_lsn}: "
                f"record(s) missing", issues=report.issues)
        report.records = records

        store = cls(root, policy, report)
        resume_lsn = records[-1].lsn if records else snap_lsn
        if last_scan is not None and last_scan.last_lsn == resume_lsn:
            store._writer = WalWriter(
                last_scan.path, next_lsn=resume_lsn + 1,
                synced_size=last_scan.good_size, os_fsync=policy.os_fsync)
        else:
            # The active segment does not end at the resume point (an
            # empty rotated segment, or one fsck truncated below the
            # snapshot LSN): appending to it would write an LSN gap
            # that poisons every future open, so rotate to a fresh
            # segment instead.
            store._start_segment(resume_lsn + 1)
        return store

    def bootstrap(self, chk: Checkpoint) -> None:
        """First-ever open: publish the initial state as snapshot 0 and
        start the first segment.  Appends are durable from LSN 1."""
        if self._writer is not None or not self.report.created:
            raise DurabilityError("bootstrap on a non-fresh store")
        write_snapshot(self.root, 0, chk, os_fsync=self.policy.os_fsync)
        self.snapshot_lsn = 0
        self._start_segment(1)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._closed = True

    def crash(self, torn_bytes: bytes = b"") -> None:
        """Simulate host power loss: unsynced WAL bytes vanish; an
        optional torn fragment of the in-flight record survives."""
        if self._writer is not None:
            self._writer.crash_truncate(torn_bytes)
            self._writer = None
        self._closed = True

    # -- the durable write path ------------------------------------------

    def append(self, op: str, payload: list) -> WalRecord:
        """Log one mutating batch; returns after it is synced (RPO 0).
        The caller acks only after this returns."""
        writer = self._require_writer()
        record = writer.append(op, payload)
        self.appends += 1
        writer.sync()
        return record

    def sync(self) -> None:
        """Force the active segment durable (covers any pending tail)."""
        self._require_writer().sync()

    def snapshot(self, chk: Checkpoint, *,
                 crash_before_rename: bool = False) -> str:
        """Publish ``chk`` covering all durable records, rotate the
        active segment, prune per retention.  Returns the snapshot path
        (the orphan ``.tmp`` path under ``crash_before_rename``)."""
        writer = self._require_writer()
        writer.close()
        self._fsyncs_closed += writer.fsyncs
        lsn = writer.next_lsn - 1
        path = write_snapshot(self.root, lsn, chk,
                              os_fsync=self.policy.os_fsync,
                              crash_before_rename=crash_before_rename)
        if crash_before_rename:
            # The fault-injection leg: the process "dies" here.  Reopen
            # the writer so callers can keep crashing/inspecting, but
            # the published snapshot set is unchanged.
            self._writer = WalWriter(
                writer.path, next_lsn=writer.next_lsn,
                synced_size=writer.synced_size,
                os_fsync=self.policy.os_fsync)
            return path
        self.snapshot_lsn = lsn
        self.snapshots_written += 1
        self._start_segment(lsn + 1)
        self._prune()
        return path

    # -- introspection ---------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._require_writer().next_lsn

    @property
    def last_durable_lsn(self) -> int:
        """Highest LSN guaranteed to survive a crash right now."""
        writer = self._require_writer()
        return writer.next_lsn - 1 - writer.pending_records

    def stats(self) -> Dict[str, Any]:
        """Counters for ``repro serve`` status reporting."""
        fsyncs = self._writer.fsyncs if self._writer is not None else 0
        return {
            "root": self.root,
            "appends": self.appends,
            "fsyncs": self._fsyncs_closed + fsyncs,
            "snapshots_written": self.snapshots_written,
            "snapshot_lsn": self.snapshot_lsn,
            "replayed_on_open": len(self.report.records),
            "truncated_bytes_on_open": self.report.truncated_bytes,
        }

    # -- internals -------------------------------------------------------

    def _require_writer(self) -> WalWriter:
        if self._closed:
            raise DurabilityError("store is closed")
        if self._writer is None:
            raise DurabilityError("store not bootstrapped")
        return self._writer

    def _start_segment(self, first_lsn: int) -> None:
        path = os.path.join(self.root, segment_name(first_lsn))
        with open(path, "wb"):
            pass
        self._writer = WalWriter(path, next_lsn=first_lsn, synced_size=0,
                                 os_fsync=self.policy.os_fsync)

    def _prune(self) -> None:
        """Drop snapshots beyond retention and segments no replay from
        the oldest kept snapshot could need."""
        snaps = list_snapshots(self.root)
        keep = snaps[-self.policy.keep_snapshots:]
        for info in snaps[:-self.policy.keep_snapshots]:
            os.remove(info.path)
        oldest_kept = keep[0].lsn if keep else 0
        segments = list_segments(self.root)
        # Segment i covers [first_i, first_{i+1} - 1]; replay from the
        # oldest kept snapshot needs lsn >= oldest_kept + 1.  The active
        # (last) segment always stays.
        for (first, path), (next_first, _) in zip(segments, segments[1:]):
            if next_first <= oldest_kept + 1:
                os.remove(path)
