"""The unified fault registry: adapter, storage, machine and disk
faults, collision-checked under one namespace.

A verifier that never fires is indistinguishable from one that cannot
see.  Faults exist at four levels and the registry names all of them:

- **adapter** faults wrap one implementation's ``apply`` with a small,
  realistic bug -- a dropped hit, an off-by-one successor, a silently
  lost write, a truncated range.  The test suite asserts the
  differential driver catches each, the shrinker reduces it, and a
  replayable repro file comes out the other end.  Pure functions of the
  payload (no RNG, no hidden state), so an injected failure shrinks
  deterministically.
- **storage** faults corrupt a built structure's own state in place,
  once, at injection time -- today, switching off the PIM-tree's
  shadow-subtree invalidation so promoted replicas go stale.  The bug
  is latent until the batch stream reaches it; the differ's read
  comparison, final-state check and the structure's integrity sweep
  must each be able to see it.
- **machine** faults are the named schedules of
  :data:`repro.sim.chaos.MACHINE_SCHEDULES`: seeded
  :class:`~repro.sim.chaos.FaultPlan` builders that drop / duplicate /
  delay / corrupt messages and crash / stall / wipe modules underneath
  an otherwise-correct implementation.  The chaos harness
  (:mod:`repro.verify.chaos`) asserts the reliable-delivery protocol
  and recovery layer keep results exact anyway.
- **disk** faults damage a closed durable state dir
  (:mod:`repro.recovery.durable`) in place -- a torn WAL tail, a
  bit-flipped record, a truncated snapshot, a snapshot that never got
  renamed, a duplicated record.  Each ``damage(root, fault_seed)``
  function is a pure function of the directory contents and the seed;
  the durable harness (:mod:`repro.verify.durable`) asserts reopen or
  ``repro fsck`` catches every one and the recovered state is still an
  exact oracle prefix.

The levels answer different questions -- "does the verifier see
bugs?", "does the machine survive faults?", "does restart recover?" --
so a name must say which it is.  Registration collision-checks the
shared namespace; the CLI (``python -m repro verify fuzz --faults
list``) enumerates it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.sim.chaos import MACHINE_SCHEDULES, FaultPlan
from repro.verify.adapters import ImplAdapter

FaultFn = Callable[[Callable[[str, Sequence], Any], str, Sequence], Any]


# ----------------------------------------------------------------------
# adapter-level mutation faults
# ----------------------------------------------------------------------

def _drop_get(inner: Callable, op: str, payload: Sequence) -> Any:
    """Every third Get answers ``None`` even on a hit."""
    result = inner(op, payload)
    if op == "get":
        return [None if i % 3 == 2 else v for i, v in enumerate(result)]
    return result


def _offset_successor(inner: Callable, op: str, payload: Sequence) -> Any:
    """Successor answers have their key shifted by one -- the classic
    strict-vs-non-strict boundary bug."""
    result = inner(op, payload)
    if op == "successor":
        return [None if r is None else (r[0] + 1, r[1]) for r in result]
    return result


def _lose_upsert(inner: Callable, op: str, payload: Sequence) -> Any:
    """The last pair of every upsert batch is silently dropped -- only
    later reads or the final-state comparison can notice."""
    if op == "upsert" and len(payload) > 0:
        return inner(op, list(payload)[:-1])
    return inner(op, payload)


def _truncate_range(inner: Callable, op: str, payload: Sequence) -> Any:
    """Range results lose their last element -- an exclusive-bound bug."""
    result = inner(op, payload)
    if op == "range":
        return [rows[:-1] if rows else rows for rows in result]
    return result


def _resurrect_delete(inner: Callable, op: str, payload: Sequence) -> Any:
    """The first key of every delete batch survives."""
    if op == "delete" and len(payload) > 1:
        return inner(op, list(payload)[1:])
    return inner(op, payload)


#: name -> adapter fault wrapper (the registry's adapter-level entries;
#: kept as a plain dict for back-compat with existing tests).
FAULTS: Dict[str, FaultFn] = {
    "drop_get": _drop_get,
    "offset_successor": _offset_successor,
    "lose_upsert": _lose_upsert,
    "truncate_range": _truncate_range,
    "resurrect_delete": _resurrect_delete,
}


# ----------------------------------------------------------------------
# storage-level mutation faults
# ----------------------------------------------------------------------

def _pimtree_shadow_stale(adapter: ImplAdapter) -> None:
    """Disable the PIM-tree's shadow-subtree invalidation: promoted
    nodes keep serving their broadcast replicas after leaf splits
    change the authoritative copy, so hot reads route to leaves that no
    longer hold the moved keys -- the classic cache-invalidation bug a
    replicated index can grow.  Latent until a batch stream promotes a
    shadow *and* splits a leaf under it; the differ's read comparison,
    final-state check and the tree's shadow-vs-mirror integrity sweep
    must all be able to see it.  A deliberate no-op on every other
    implementation."""
    from repro.structures.pimtree import PIMTree

    if isinstance(adapter.impl, PIMTree):
        adapter.impl._shadow_invalidation = False


#: name -> storage corruptor (mutates the built structure's state
#: in place at injection time; deterministic given the same build).
STORAGE_FAULTS: Dict[str, Callable[[ImplAdapter], None]] = {
    "pimtree_shadow_stale": _pimtree_shadow_stale,
}


# ----------------------------------------------------------------------
# disk-level faults (durable state-dir damage)
# ----------------------------------------------------------------------

def _newest_populated_segment(root: str):
    """The last WAL segment holding at least one record, scanned."""
    from repro.recovery.durable import list_segments, scan_segment

    for first_lsn, path in reversed(list_segments(root)):
        scan = scan_segment(path, expect_lsn=first_lsn)
        if scan.records:
            return path, scan
    raise ValueError(f"no WAL records to damage under {root}")


def _record_offsets(scan) -> list:
    """Byte offset of each record in a clean scanned segment (canonical
    encoding is deterministic, so re-encoding reproduces the layout)."""
    from repro.recovery.durable.wal import encode_record

    offsets, off = [], 0
    for record in scan.records:
        offsets.append(off)
        off += len(encode_record(record))
    return offsets


def _damage_wal_torn_tail(root: str, fault_seed: int) -> str:
    """Cut a seeded number of bytes off the WAL's final record -- the
    canonical crash artifact.  Reopen must classify it as a torn tail,
    truncate, and come back with exactly the previous record's state."""
    from repro.recovery.durable.wal import encode_record
    from repro.sim.chaos import _mix

    path, scan = _newest_populated_segment(root)
    rec_len = len(encode_record(scan.records[-1]))
    cut = 1 + _mix(fault_seed, 0xD15C, 1) % (rec_len - 1)
    with open(path, "r+b") as f:
        f.truncate(scan.good_size - cut)
    return (f"tore {cut} byte(s) off record lsn={scan.records[-1].lsn} "
            f"in {path}")


def _damage_wal_bitflip(root: str, fault_seed: int) -> str:
    """Flip one seeded bit in a non-final WAL record (bit rot).  With a
    valid record after it this is mid-log corruption: reopen must
    refuse (never silently skip acked writes) and ``fsck --repair`` is
    the explicit path out.  Falls back to the only record when the
    segment holds just one (then it is tail damage: prefix state)."""
    from repro.sim.chaos import _mix

    path, scan = _newest_populated_segment(root)
    offsets = _record_offsets(scan)
    pool = offsets[:-1] or offsets
    target = pool[_mix(fault_seed, 0xD15C, 2) % len(pool)]
    end = offsets[offsets.index(target) + 1] if target != offsets[-1] \
        else scan.good_size
    byte = target + _mix(fault_seed, 0xD15C, 3) % (end - target)
    bit = _mix(fault_seed, 0xD15C, 4) % 8
    with open(path, "r+b") as f:
        f.seek(byte)
        old = f.read(1)[0]
        f.seek(byte)
        f.write(bytes([old ^ (1 << bit)]))
    return f"flipped bit {bit} of byte {byte} in {path}"


def _damage_snapshot_truncated(root: str, fault_seed: int) -> str:
    """Truncate the newest snapshot to a seeded fraction.  Reopen must
    fail its checksum and fall back to the previous snapshot + a longer
    WAL replay (retention keeps the segments); with no older snapshot
    it must raise a typed DurabilityError, never serve partial state."""
    from repro.recovery.durable import list_snapshots
    from repro.sim.chaos import _mix

    snaps = list_snapshots(root)
    if not snaps:
        raise ValueError(f"no snapshot to damage under {root}")
    path = snaps[-1].path
    size = os.path.getsize(path)
    keep = _mix(fault_seed, 0xD15C, 5) % max(1, size - 1)
    with open(path, "r+b") as f:
        f.truncate(keep)
    return f"truncated {path} from {size} to {keep} byte(s)"


def _damage_crash_before_rename(root: str, fault_seed: int) -> str:
    """Un-publish the newest snapshot: move it back to its ``.tmp``
    name, as if the host died between the tmp write and the atomic
    rename.  Reopen must ignore the orphan and use the previous
    snapshot; fsck must sweep the tmp."""
    from repro.recovery.durable import list_snapshots

    snaps = list_snapshots(root)
    if not snaps:
        raise ValueError(f"no snapshot to damage under {root}")
    path = snaps[-1].path
    os.rename(path, path + ".tmp")
    return f"reverted {path} to its pre-rename .tmp name"


def _damage_wal_dup_record(root: str, fault_seed: int) -> str:
    """Duplicate one seeded WAL record in place (a crashed append
    retried after its original did land).  Replay must skip the
    duplicate idempotently: final state identical to the undamaged
    log's."""
    from repro.recovery.durable.wal import encode_record
    from repro.sim.chaos import _mix

    path, scan = _newest_populated_segment(root)
    index = _mix(fault_seed, 0xD15C, 6) % len(scan.records)
    blobs = [encode_record(r) for r in scan.records]
    blobs.insert(index + 1, blobs[index])
    with open(path, "r+b") as f:
        tail = f.read()[scan.good_size:]
        f.seek(0)
        f.write(b"".join(blobs) + tail)
    return (f"duplicated record lsn={scan.records[index].lsn} in {path}")


#: name -> disk damage function ``(state_dir, fault_seed) -> detail``.
#: Applied to a *closed* durable state dir; deterministic given the
#: same directory contents and seed.
DISK_FAULTS: Dict[str, Callable[[str, int], str]] = {
    "wal_torn_tail": _damage_wal_torn_tail,
    "wal_bitflip": _damage_wal_bitflip,
    "snapshot_truncated": _damage_snapshot_truncated,
    "crash_before_rename": _damage_crash_before_rename,
    "wal_dup_record": _damage_wal_dup_record,
}


def inject_fault(adapter: ImplAdapter, fault_name: str) -> ImplAdapter:
    """Apply the named fault to ``adapter``; returns the adapter.

    Adapter faults wrap ``adapter.apply``; storage faults corrupt the
    built structure's state in place, once, at injection time."""
    corrupt = STORAGE_FAULTS.get(fault_name)
    if corrupt is not None:
        corrupt(adapter)
        return adapter
    fault = FAULTS.get(fault_name)
    if fault is None:
        raise ValueError(
            f"unknown fault {fault_name!r}; known: "
            f"{', '.join(sorted([*FAULTS, *STORAGE_FAULTS]))}")
    inner = adapter._apply

    def faulty(op: str, payload: Sequence) -> Any:
        return fault(inner, op, payload)

    adapter._apply = faulty
    return adapter


# ----------------------------------------------------------------------
# the unified registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultDef:
    """One registered fault: its level decides how it is applied.

    ``wrap`` is set for adapter faults (use :func:`inject_fault` or call
    it around an adapter's apply); ``build`` for machine faults (maps
    ``(fault_seed, num_modules)`` to a
    :class:`~repro.sim.chaos.FaultPlan` for
    ``PIMMachine.install_fault_plan``); ``damage`` for disk faults
    (maps ``(state_dir, fault_seed)`` to a description of the damage
    done in place).
    """

    name: str
    level: str  # "adapter" | "storage" | "machine" | "disk"
    description: str
    wrap: Optional[FaultFn] = None
    build: Optional[Callable[[int, int], FaultPlan]] = None
    corrupt: Optional[Callable[[ImplAdapter], None]] = None
    damage: Optional[Callable[[str, int], str]] = None


_MACHINE_DESCRIPTIONS: Dict[str, str] = {
    "drop": "drop 15% of protocol envelopes (retry/backoff path)",
    "dup_delay": "duplicate 10% + delay 15% of envelopes by 3 rounds",
    "corrupt": "corrupt 12% of envelopes (checksum-discard, retry)",
    "stall": "stall two seeded modules for a few rounds each",
    "crash_restart": "fail-stop one module, restart with state intact",
    "crash_wipe": "fail-stop one module and wipe its DRAM on restart",
    "mixed": "low-rate drop+dup+delay+corrupt plus one stall",
    "intermittent": "one module flaps (crash/restart cycles) + 4% drop",
}

REGISTRY: Dict[str, FaultDef] = {}


def _register(defn: FaultDef) -> None:
    clash = REGISTRY.get(defn.name)
    if clash is not None:
        raise ValueError(
            f"fault name {defn.name!r} registered twice "
            f"({clash.level} vs {defn.level}); adapter, storage, "
            f"machine and disk faults share one namespace")
    REGISTRY[defn.name] = defn


for _name, _fn in FAULTS.items():
    _register(FaultDef(
        name=_name, level="adapter",
        description=" ".join((_fn.__doc__ or "").split()).partition(".")[0],
        wrap=_fn))
for _name, _cfn in STORAGE_FAULTS.items():
    _register(FaultDef(
        name=_name, level="storage",
        description=" ".join((_cfn.__doc__ or "").split()).partition(".")[0],
        corrupt=_cfn))
for _name, _builder in MACHINE_SCHEDULES.items():
    _register(FaultDef(name=_name, level="machine",
                       description=_MACHINE_DESCRIPTIONS.get(_name, ""),
                       build=_builder))
for _name, _dfn in DISK_FAULTS.items():
    _register(FaultDef(
        name=_name, level="disk",
        description=" ".join((_dfn.__doc__ or "").split()).partition(".")[0],
        damage=_dfn))
del _name, _fn, _cfn, _builder, _dfn


def get_fault(name: str) -> FaultDef:
    """Look up a registered fault by name (any of the four levels)."""
    defn = REGISTRY.get(name)
    if defn is None:
        raise ValueError(f"unknown fault {name!r}; known: "
                         f"{', '.join(sorted(REGISTRY))}")
    return defn


def fault_names(level: Optional[str] = None) -> list:
    """Sorted registered names, optionally restricted to one level."""
    return sorted(n for n, d in REGISTRY.items()
                  if level is None or d.level == level)


def describe_faults() -> str:
    """The registry as an aligned table (the CLI's ``--faults list``)."""
    rows = [(d.name, d.level, d.description)
            for _, d in sorted(REGISTRY.items())]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {level:<7}  {desc}"
                     for name, level, desc in rows)
