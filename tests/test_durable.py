"""Unit tests for :mod:`repro.recovery.durable`: the WAL codec and
scanner, atomic snapshots, the composed :class:`DurableStore`, offline
``fsck``, and the :class:`RecoveryManager` durable wiring.

The contract under test is RPO=0 for acked writes: a record is on disk
before its batch is acknowledged, a crash at any instant loses at most
the in-flight (never-acked) record, and damage that *would* lose acked
data is refused loudly (``WalCorruption``) instead of absorbed.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.skiplist import PIMSkipList
from repro.recovery import (
    Checkpoint,
    RecoveryManager,
    checkpoint_structure,
    restore_structure,
)
from repro.recovery.durable import (
    DurabilityError,
    DurabilityPolicy,
    DurableStore,
    WalCorruption,
    WalRecord,
    WalWriter,
    fsck,
    list_segments,
    list_snapshots,
    load_snapshot,
    read_snapshot,
    scan_segment,
    write_snapshot,
)
from repro.recovery.durable.wal import decode_record, encode_record
from repro.sim.machine import PIMMachine
from repro.structures.fifo import PIMQueue
from repro.structures.lsm import PIMLSMStore
from repro.structures.pimtree import PIMTree
from repro.structures.priority_queue import PIMPriorityQueue
from tests.conftest import DETERMINISTIC

FAST = DurabilityPolicy(snapshot_every=3, os_fsync=False)


def _chk(pairs) -> Checkpoint:
    return Checkpoint(kind="skiplist", name="t", payload=list(pairs))


def _write_records(path: str, records) -> None:
    with open(path, "wb") as f:
        for r in records:
            f.write(encode_record(r))


class TestWalCodec:
    def test_round_trip_and_canonical_bytes(self):
        rec = WalRecord(lsn=7, op="upsert", payload=[[3, "x"], [1, "y"]])
        blob = encode_record(rec)
        assert encode_record(rec) == blob  # deterministic bytes
        body = blob[8:]
        assert decode_record(body) == rec

    def test_scan_clean_segment(self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        recs = [WalRecord(i, "upsert", [[i, i]]) for i in (1, 2, 3)]
        _write_records(path, recs)
        scan = scan_segment(path, expect_lsn=1)
        assert scan.records == recs
        assert scan.issues == []
        assert scan.good_size == os.path.getsize(path)

    def test_torn_tail_is_classified_and_truncatable(self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        recs = [WalRecord(i, "upsert", [[i, i]]) for i in (1, 2)]
        _write_records(path, recs)
        good = os.path.getsize(path)
        with open(path, "ab") as f:
            f.write(encode_record(WalRecord(3, "delete", [9]))[:5])
        scan = scan_segment(path, expect_lsn=1)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert [i.kind for i in scan.issues] == ["torn_tail"]
        assert scan.good_size == good

    def test_mid_log_damage_with_valid_data_after_is_corrupt_record(
            self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        recs = [WalRecord(i, "upsert", [[i, i]]) for i in (1, 2, 3)]
        _write_records(path, recs)
        # flip one byte inside record 2's body
        off = len(encode_record(recs[0])) + 10
        with open(path, "r+b") as f:
            f.seek(off)
            byte = f.read(1)
            f.seek(off)
            f.write(bytes([byte[0] ^ 0xFF]))
        scan = scan_segment(path, expect_lsn=1)
        assert [i.kind for i in scan.issues] == ["corrupt_record"]
        assert [r.lsn for r in scan.records] == [1]

    def test_duplicate_lsn_is_skipped_idempotently(self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        recs = [WalRecord(1, "upsert", [[1, 1]]),
                WalRecord(1, "upsert", [[1, 1]]),
                WalRecord(2, "delete", [1])]
        _write_records(path, recs)
        scan = scan_segment(path, expect_lsn=1)
        assert [r.lsn for r in scan.records] == [1, 2]
        assert [i.kind for i in scan.issues] == ["duplicate_lsn"]
        assert scan.good_size == os.path.getsize(path)

    def test_lsn_gap_stops_the_scan(self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        _write_records(path, [WalRecord(1, "upsert", [[1, 1]]),
                              WalRecord(5, "delete", [1])])
        scan = scan_segment(path, expect_lsn=1)
        assert [r.lsn for r in scan.records] == [1]
        assert [i.kind for i in scan.issues] == ["lsn_gap"]

    def test_writer_fsync_boundary_is_the_crash_boundary(self, tmp_path):
        path = str(tmp_path / "wal-000000000001.log")
        w = WalWriter(path, next_lsn=1, synced_size=0, os_fsync=False)
        w.append("upsert", [[1, 1]])
        w.sync()
        w.append("upsert", [[2, 2]])  # never synced
        w.crash_truncate()
        scan = scan_segment(path, expect_lsn=1)
        assert [r.lsn for r in scan.records] == [1]  # unsynced gone
        assert scan.issues == []


# -- the scanner under arbitrary damage ---------------------------------------

_PAYLOAD = st.lists(st.lists(st.one_of(st.none(), st.integers(-10**6, 10**6),
                                       st.text(max_size=6)),
                             min_size=1, max_size=2), max_size=3)
_LOGS = st.lists(st.tuples(st.sampled_from(["upsert", "delete"]), _PAYLOAD),
                 min_size=1, max_size=6).map(
    lambda ops: [WalRecord(lsn, op, payload)
                 for lsn, (op, payload) in enumerate(ops, start=1)])
_MASK = st.integers(1, 255)  # xor with it always changes the byte
_BIT = st.integers(0, 7).map(lambda b: 1 << b)  # the classic disk error


def _encode_log(records):
    """The segment's bytes and each record's start offset, plus the end."""
    blobs = [encode_record(r) for r in records]
    bounds = [0]
    for b in blobs:
        bounds.append(bounds[-1] + len(b))
    return bytearray(b"".join(blobs)), bounds


def _scan_bytes(tmp_path_factory, data: bytearray):
    path = tmp_path_factory.mktemp("wal") / "wal-000000000001.log"
    path.write_bytes(bytes(data))
    return scan_segment(str(path), expect_lsn=1)


class TestWalScannerUnderDamage:
    """Whatever a crash or the disk does to a segment, the scanner
    returns a prefix of what was written -- never a wrong record -- and
    reads the damage as exactly one of clean, a torn tail or a corrupt
    record."""

    @DETERMINISTIC
    @given(records=_LOGS, cut=st.floats(0, 1),
           flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                    _MASK), max_size=4))
    def test_records_are_a_prefix_of_the_log(self, tmp_path_factory,
                                             records, cut, flips):
        data, bounds = _encode_log(records)
        for at, mask in flips:
            data[int(at * len(data))] ^= mask
        del data[int(cut * len(data)):]
        scan = _scan_bytes(tmp_path_factory, data)
        got = len(scan.records)
        assert scan.records == records[:got]
        assert scan.good_size == bounds[got]
        assert len(scan.issues) <= 1
        assert {i.kind for i in scan.issues} <= {"torn_tail",
                                                 "corrupt_record"}
        if not scan.issues:
            assert scan.good_size == scan.size

    @DETERMINISTIC
    @given(records=_LOGS, data=st.data())
    def test_damage_to_the_last_record_is_a_torn_tail(
            self, tmp_path_factory, records, data):
        blob, bounds = _encode_log(records)
        last = len(records) - 1
        lo, hi = bounds[last], bounds[last + 1]
        if data.draw(st.booleans(), label="truncate"):
            del blob[data.draw(st.integers(lo + 1, hi - 1)):]
        else:
            for at, mask in data.draw(st.lists(
                    st.tuples(st.integers(lo, hi - 1), _MASK), min_size=1,
                    max_size=3, unique_by=lambda f: f[0])):
                blob[at] ^= mask
        scan = _scan_bytes(tmp_path_factory, blob)
        assert scan.records == records[:last]
        assert [(i.kind, i.offset) for i in scan.issues] == [
            ("torn_tail", lo)]

    @DETERMINISTIC
    @given(records=_LOGS.filter(lambda rs: len(rs) >= 2), data=st.data())
    def test_a_flipped_bit_before_an_intact_record_is_corrupt(
            self, tmp_path_factory, records, data):
        blob, bounds = _encode_log(records)
        victim = data.draw(st.integers(0, len(records) - 2))
        lo, hi = bounds[victim], bounds[victim + 1]
        blob[data.draw(st.integers(lo, hi - 1))] ^= data.draw(_BIT)
        scan = _scan_bytes(tmp_path_factory, blob)
        assert scan.records == records[:victim]
        assert [(i.kind, i.offset) for i in scan.issues] == [
            ("corrupt_record", lo)]


class TestSnapshots:
    def test_round_trip_re_tuples_pairs(self, tmp_path):
        chk = _chk([(1, "a"), (2, "b")])
        write_snapshot(str(tmp_path), 4, chk, os_fsync=False)
        got = read_snapshot(list_snapshots(str(tmp_path))[0].path)
        assert got is not None
        lsn, decoded = got
        assert lsn == 4
        assert decoded.payload == [(1, "a"), (2, "b")]  # tuples again

    def test_corrupt_snapshot_reads_as_none(self, tmp_path):
        write_snapshot(str(tmp_path), 4, _chk([(1, "a")]), os_fsync=False)
        path = list_snapshots(str(tmp_path))[0].path
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        assert read_snapshot(path) is None

    def test_crash_before_rename_publishes_nothing(self, tmp_path):
        root = str(tmp_path)
        write_snapshot(root, 2, _chk([(1, "a")]), os_fsync=False)
        tmp = write_snapshot(root, 5, _chk([(1, "b")]), os_fsync=False,
                             crash_before_rename=True)
        assert tmp.endswith(".tmp") and os.path.exists(tmp)
        lsn, chk, corrupt = load_snapshot(root)
        assert lsn == 2 and chk.payload == [(1, "a")] and corrupt == []

    def test_load_falls_back_past_a_corrupt_newest(self, tmp_path):
        root = str(tmp_path)
        write_snapshot(root, 2, _chk([(1, "a")]), os_fsync=False)
        write_snapshot(root, 6, _chk([(1, "b")]), os_fsync=False)
        newest = list_snapshots(root)[-1].path
        with open(newest, "r+b") as f:
            f.truncate(4)
        lsn, chk, corrupt = load_snapshot(root)
        assert lsn == 2 and chk.payload == [(1, "a")]
        assert corrupt == [newest]


_VALUES = st.one_of(st.integers(-9, 9), st.text(max_size=3))
_PAIRS = st.lists(st.tuples(st.integers(0, 60), _VALUES), max_size=40)


def _ordered_map(make):
    """Fills an ordered map: upsert half the pairs (the LSM then
    compacts them into its run), upsert the rest, delete ``doomed``
    (the LSM's tombstones)."""

    def build(machine, pairs, doomed, taken):
        s = make(machine)
        half = len(pairs) // 2
        if half:
            s.apply_batch("upsert", pairs[:half])
        if isinstance(s, PIMLSMStore):
            s.compact()
        if pairs[half:]:
            s.apply_batch("upsert", pairs[half:])
        if doomed:
            s.apply_batch("delete", doomed)
        expected = dict(pairs)
        for key in doomed:
            expected.pop(key, None)
        return s, sorted(expected.items())
    return build


def _fifo(machine, pairs, doomed, taken):
    q = PIMQueue(machine)
    values = [v for _, v in pairs]
    if values:
        q.enqueue_batch(values)
    taken = min(taken, len(values))
    assert q.dequeue_batch(taken) == values[:taken]
    return q, values[taken:]


def _pq(machine, pairs, doomed, taken):
    pq = PIMPriorityQueue(machine)
    if pairs:
        pq.insert_batch(list(pairs))
    order = sorted(pairs, key=lambda kv: kv[0])  # stable: FIFO ties
    taken = min(taken, len(pairs))
    assert pq.extract_min_batch(taken) == order[:taken]
    return pq, order[taken:]


#: structure -> (fresh-structure factory, a function that fills one and
#: returns it with the payload its checkpoint must hold)
_STRUCTURES = {
    "skiplist": (PIMSkipList, _ordered_map(PIMSkipList)),
    "lsm": (lambda m: PIMLSMStore(m, block_size=4),
            _ordered_map(lambda m: PIMLSMStore(m, block_size=4))),
    "pimtree": (lambda m: PIMTree(m, leaf_size=4, fanout=4),
                _ordered_map(lambda m: PIMTree(m, leaf_size=4, fanout=4))),
    "fifo": (PIMQueue, _fifo),
    "pq": (PIMPriorityQueue, _pq),
}


class TestSnapshotRoundTripEveryStructure:
    """Capture, write the snapshot, read it back and restore it into a
    fresh structure: the restored contents equal the source's, for each
    of the five structures ``restore_structure`` supports."""

    @pytest.mark.parametrize("kind", sorted(_STRUCTURES))
    @DETERMINISTIC
    @given(pairs=_PAIRS, doomed=st.lists(st.integers(0, 60), max_size=12),
           taken=st.integers(0, 40))
    def test_restored_contents_equal_the_source(self, tmp_path_factory,
                                                kind, pairs, doomed, taken):
        make, build = _STRUCTURES[kind]
        source, expected = build(PIMMachine(num_modules=4, seed=1), pairs,
                                 doomed, taken)
        chk = checkpoint_structure(source)
        assert chk.kind == kind and chk.payload == expected
        root = str(tmp_path_factory.mktemp("snap"))
        write_snapshot(root, 3, chk, os_fsync=False)
        got = read_snapshot(list_snapshots(root)[0].path)
        assert got == (3, chk)
        fresh = make(PIMMachine(num_modules=4, seed=2))
        assert restore_structure(got[1], fresh) == len(expected)
        assert checkpoint_structure(fresh).payload == expected


class TestDurableStore:
    def _boot(self, root: str, policy: DurabilityPolicy = FAST,
              pairs=((1, "a"),)) -> DurableStore:
        store = DurableStore.open(root, policy)
        assert store.report.created
        store.bootstrap(_chk(list(pairs)))
        return store

    def test_reopen_replays_acked_records(self, tmp_path):
        root = str(tmp_path)
        store = self._boot(root)
        for i in range(2, 5):
            store.append("upsert", [[i, i]])
        store.close()
        again = DurableStore.open(root, FAST)
        assert not again.report.created
        assert [r.lsn for r in again.report.records] == [1, 2, 3]
        assert again.last_durable_lsn == 3
        again.close()

    def test_crash_with_torn_fragment_loses_only_the_tail(self, tmp_path):
        root = str(tmp_path)
        store = self._boot(root)
        store.append("upsert", [[2, 2]])
        store.crash(b"\x13\x37\x00")
        again = DurableStore.open(root, FAST)
        assert [r.lsn for r in again.report.records] == [1]
        assert again.report.truncated_bytes == 3
        # the writer resumes cleanly where the good bytes end
        again.append("delete", [2])
        again.close()
        final = DurableStore.open(root, FAST)
        assert [r.op for r in final.report.records] == ["upsert", "delete"]
        final.close()

    def test_snapshot_rotates_and_prunes_per_retention(self, tmp_path):
        root = str(tmp_path)
        store = self._boot(root)
        for snap in range(3):
            for i in range(3):
                store.append("upsert", [[10 * snap + i, i]])
            store.snapshot(_chk([(1, "a")]))
        snaps = [i.lsn for i in list_snapshots(root)]
        assert len(snaps) == FAST.keep_snapshots
        assert snaps == sorted(snaps)[-FAST.keep_snapshots:]
        oldest_kept = min(snaps)
        firsts = [first for first, _ in list_segments(root)]
        # replay from the OLDEST kept snapshot must still be possible
        # (that is the fallback when the newest snapshot is corrupt)...
        assert min(firsts) <= oldest_kept + 1
        # ...but segments from before the previous retention window die
        assert min(firsts) > 1

    def test_mid_log_damage_refuses_to_open(self, tmp_path):
        root = str(tmp_path)
        store = self._boot(root)
        for i in range(2, 6):
            store.append("upsert", [[i, i]])
        store.close()
        _, seg = list_segments(root)[-1]
        first = len(encode_record(WalRecord(1, "upsert", [[2, 2]])))
        with open(seg, "r+b") as f:
            f.seek(first + 12)
            f.write(b"\x00\x00\x00\x00")
        with pytest.raises(WalCorruption):
            DurableStore.open(root, FAST)

    def test_no_valid_snapshot_refuses_to_open(self, tmp_path):
        root = str(tmp_path)
        store = self._boot(root)
        store.close()
        for info in list_snapshots(root):
            with open(info.path, "r+b") as f:
                f.truncate(2)
        with pytest.raises(DurabilityError):
            DurableStore.open(root, FAST)

    def test_reopen_rotates_past_a_short_active_segment(self, tmp_path):
        # An active segment that ends below the snapshot LSN (the shape
        # an fsck truncation can leave): appending into it would write
        # an LSN gap that poisons every future open, so the reopen path
        # must rotate to a fresh segment at snap_lsn + 1 instead.
        root = str(tmp_path)
        write_snapshot(root, 3, _chk([(1, "a"), (2, "b")]), os_fsync=False)
        _write_records(os.path.join(root, "wal-000000000001.log"),
                       [WalRecord(1, "upsert", [[1, 1]])])
        store = DurableStore.open(root, FAST)
        assert store.report.records == []
        store.append("upsert", [[9, 9]])  # lsn 4, in a fresh segment
        store.close()
        again = DurableStore.open(root, FAST)  # must not see an LSN gap
        assert [r.lsn for r in again.report.records] == [4]
        again.close()

    def test_reopen_refuses_missing_replay_prefix(self, tmp_path):
        # Records right after the snapshot are gone entirely (their
        # segment vanished): replaying lsn 5.. onto lsn-0 state would
        # serve wrong answers, so open must refuse.
        root = str(tmp_path)
        write_snapshot(root, 0, _chk([(1, "a")]), os_fsync=False)
        _write_records(os.path.join(root, "wal-000000000005.log"),
                       [WalRecord(5, "upsert", [[5, 5]])])
        with pytest.raises(WalCorruption):
            DurableStore.open(root, FAST)

    def test_bootstrap_twice_refused(self, tmp_path):
        store = self._boot(str(tmp_path))
        with pytest.raises(DurabilityError):
            store.bootstrap(_chk([(1, "a")]))

    def test_stats_survive_rotation(self, tmp_path):
        store = self._boot(str(tmp_path))
        for i in range(3):
            store.append("upsert", [[i, i]])
        store.snapshot(_chk([(1, "a")]))
        store.append("upsert", [[99, 99]])
        stats = store.stats()
        assert stats["appends"] == 4
        assert stats["fsyncs"] >= 4  # rotation must not reset the count


class TestFsck:
    def _store(self, root: str) -> None:
        store = DurableStore.open(root, FAST)
        store.bootstrap(_chk([(1, "a")]))
        for i in range(2, 6):
            store.append("upsert", [[i, i]])
        store.close()

    def test_clean_dir_is_clean(self, tmp_path):
        self._store(str(tmp_path))
        report = fsck(str(tmp_path))
        assert report.clean and report.records_ok == 4
        assert "clean" in "\n".join(report.lines())

    def test_check_mode_touches_nothing(self, tmp_path):
        root = str(tmp_path)
        self._store(root)
        _, seg = list_segments(root)[-1]
        with open(seg, "ab") as f:
            f.write(b"\xde\xad")
        before = os.path.getsize(seg)
        report = fsck(root)
        assert not report.clean and not report.repaired
        assert os.path.getsize(seg) == before

    def test_torn_tail_repair_is_free(self, tmp_path):
        root = str(tmp_path)
        self._store(root)
        _, seg = list_segments(root)[-1]
        with open(seg, "ab") as f:
            f.write(b"\xde\xad\xbe\xef")
        report = fsck(root, repair=True)
        assert report.lost_records == 0 and report.repairable
        store = DurableStore.open(root, FAST)  # openable again
        assert len(store.report.records) == 4
        store.close()
        assert fsck(root).clean

    def test_mid_log_repair_counts_lost_records(self, tmp_path):
        root = str(tmp_path)
        self._store(root)
        _, seg = list_segments(root)[-1]
        first = len(encode_record(WalRecord(1, "upsert", [[2, 2]])))
        with open(seg, "r+b") as f:
            f.seek(first + 2)
            f.write(b"\xff\xff")
        report = fsck(root, repair=True)
        assert report.lost_records >= 1  # acked data, counted honestly
        assert fsck(root).clean

    def test_every_snapshot_corrupt_is_unrepairable(self, tmp_path):
        root = str(tmp_path)
        self._store(root)
        snap_paths = [info.path for info in list_snapshots(root)]
        for path in snap_paths:
            with open(path, "r+b") as f:
                f.truncate(1)
        report = fsck(root, repair=True)
        assert not report.repairable
        assert any("UNREPAIRABLE" in line for line in report.lines())
        # the corrupt files are the only material left for manual
        # recovery; repair must leave them in place
        assert all(os.path.exists(p) for p in snap_paths)

    def _snapshotted_store(self, root: str) -> None:
        """snap-0 + wal-1 (lsns 1-3) + snap-3 + wal-4 (lsns 4-6)."""
        store = DurableStore.open(root, FAST)
        store.bootstrap(_chk([(1, "a")]))
        for i in range(2, 5):
            store.append("upsert", [[i, i]])
        store.snapshot(_chk([(i, "x") for i in range(1, 5)]))
        for i in range(5, 8):
            store.append("upsert", [[i, i]])
        store.close()

    def test_corrupt_newest_snapshot_repair_falls_back(self, tmp_path):
        root = str(tmp_path)
        self._snapshotted_store(root)
        newest = list_snapshots(root)[-1].path
        with open(newest, "r+b") as f:
            f.truncate(3)
        report = fsck(root, repair=True)
        assert report.repairable and report.lost_records == 0
        assert not os.path.exists(newest)  # older valid snap remains
        store = DurableStore.open(root, FAST)  # longer replay, no loss
        assert [r.lsn for r in store.report.records] == [1, 2, 3, 4, 5, 6]
        store.close()

    def test_mid_log_damage_under_snapshot_spares_later_segments(
            self, tmp_path):
        # The review repro: bit-flip lsn=2 inside wal-1 while snap-3
        # and wal-4 are intact.  Replay from snap-3 never reads wal-1,
        # so repair must drop the redundant damaged segment (and the
        # snap-0 that needed it), keep wal-4's acked records, and leave
        # a directory that survives reopen + append + reopen.
        root = str(tmp_path)
        self._snapshotted_store(root)
        seg1 = dict(list_segments(root))[1]
        off = len(encode_record(WalRecord(1, "upsert", [[2, 2]]))) + 12
        with open(seg1, "r+b") as f:
            f.seek(off)
            byte = f.read(1)
            f.seek(off)
            f.write(bytes([byte[0] ^ 0xFF]))
        report = fsck(root, repair=True)
        assert report.repairable
        assert report.lost_records == 0  # snap-3 already covers wal-1
        assert not os.path.exists(seg1)
        assert [i.lsn for i in list_snapshots(root)] == [3]
        again = DurableStore.open(root, FAST)
        assert [r.lsn for r in again.report.records] == [4, 5, 6]
        again.append("upsert", [[99, 99]])  # lsn 7
        again.close()
        final = DurableStore.open(root, FAST)  # no LSN gap afterwards
        assert [r.lsn for r in final.report.records] == [4, 5, 6, 7]
        final.close()
        assert fsck(root).clean


ITEMS = [(k * 10, f"v{k}") for k in range(1, 13)]


def _durable_manager(root: str, *, checkpoint_every: int = 3):
    store = DurableStore.open(root, FAST)
    machines = []

    def standby() -> PIMSkipList:
        m = PIMMachine(num_modules=4, seed=7)
        machines.append(m)
        return PIMSkipList(m)

    live = standby()
    if store.report.created:
        live.build(ITEMS)
    manager = RecoveryManager(live, standby,
                              checkpoint_every=checkpoint_every,
                              durable=store)
    return manager, store


class TestManagerDurableWiring:
    def test_restart_resumes_exact_state(self, tmp_path):
        root = str(tmp_path)
        manager, store = _durable_manager(root)
        assert not manager.restored_from_disk
        manager.run("upsert", [(5, "x"), (15, "y")])
        manager.run("delete", [10])
        manager.run("upsert", [(7, "z")])
        want = manager.run("range", [(0, 1000)])
        store.close()
        manager2, store2 = _durable_manager(root)
        assert manager2.restored_from_disk
        assert manager2.run("range", [(0, 1000)]) == want
        # the replayed log mirrors what was durable, so a module crash
        # after restart still fails over correctly
        assert manager2.run("get", [5, 7]) == ["x", "z"]
        store2.close()

    def test_unacked_record_never_resurfaces(self, tmp_path):
        root = str(tmp_path)
        manager, store = _durable_manager(root)
        manager.run("upsert", [(5, "x")])
        # crash with a torn fragment of a record that was never acked
        store.crash(b"\x01\x02\x03")
        manager2, store2 = _durable_manager(root)
        assert manager2.run("get", [5]) == ["x"]  # acked write kept
        assert store2.last_durable_lsn == 1
        store2.close()
