"""The bulk load: ``build`` and the restores that go through it.

``PIMSkipList.build`` is one charged op of two rounds (``core/ops_build``)
and ``PIMLSMStore.build`` one of one round; ``restore_structure`` loads
both ordered maps through them.  These tests hold the load to the
reference oracle (metrics, local lists, ``next_leaf``, table layouts),
to a lossy network, to its round count, and -- as a Hypothesis
property -- to the capture it restores from.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.skiplist import PIMSkipList
from repro.recovery.checkpoint import (Checkpoint, checkpoint_structure,
                                       restore_structure)
from repro.sim.chaos import FaultPlan, FaultSpec
from repro.sim.machine import PIMMachine
from repro.structures.lsm import PIMLSMStore
from repro.workloads import build_items
from tests.conftest import DETERMINISTIC, ENGINES


def _observed_build(machine, items) -> tuple:
    """Build on ``machine``; the ops ``batch_observer`` saw, with their
    metric deltas."""
    seen: List[tuple] = []
    machine.batch_observer = lambda name, d: seen.append((name, d.as_dict()))
    sl = PIMSkipList(machine)
    try:
        sl.build(items)
    finally:
        machine.batch_observer = None
    return sl, seen


def _layout(sl: PIMSkipList) -> list:
    """Per module: the local leaf list, and the hash table's capacity and
    the keys in its two tables slot by slot, stash and pending queue."""
    out = []
    for mid in range(sl.machine.num_modules):
        ml = sl.struct.mlocal(mid)
        chain, leaf = [], ml.first_leaf
        while leaf is not None:
            chain.append(leaf.key)
            leaf = leaf.local_right
        t = ml.table
        out.append((chain, ml.leaf_count,
                    None if ml.last_leaf is None else ml.last_leaf.key,
                    t.capacity,
                    [s and s[0] for s in t._t1], [s and s[0] for s in t._t2],
                    list(t._stash), list(t._pending)))
    return out


def _next_leaves(sl: PIMSkipList) -> list:
    s = sl.struct
    return [[None if x is None else x.key for x in u.next_leaf]
            for u in [s.upper_leaf_sentinel, *s.iter_level(s.h_low)]]


@pytest.mark.parametrize("p,n", [(1, 40), (8, 600), (64, 3000)])
def test_engine_and_reference_oracle_load_identically(p, n):
    items = build_items(n, stride=3)
    sides = {}
    for engine, cls in ENGINES.items():
        sl, seen = _observed_build(cls(num_modules=p, seed=9), items)
        sl.check_integrity()
        sides[engine] = (seen, _layout(sl), _next_leaves(sl),
                         [m.words_used for m in sl.machine.modules])
    assert sides["object"] == sides["columnar"]
    (name, delta), = sides["columnar"][0]
    assert name == "skiplist:build" and delta["rounds"] == 2


def test_a_build_is_two_rounds_and_an_empty_one_none():
    for n in (1, 50, 5000):
        machine = PIMMachine(num_modules=16, seed=2)
        PIMSkipList(machine).build(build_items(n))
        assert machine.metrics.rounds == 2
    machine = PIMMachine(num_modules=16, seed=2)
    PIMSkipList(machine).build([])
    assert machine.metrics.rounds == 0


def test_each_table_is_loaded_at_the_grown_capacity_without_rebuilds():
    """One eager pass: as full as inserting the keys one at a time would
    leave it, nothing pending, and every key found."""
    sl = PIMSkipList(PIMMachine(num_modules=8, seed=4))
    sl.build(build_items(4000))
    for mid in range(8):
        t = sl.struct.mlocal(mid).table
        assert len(t) <= 2 * t.MAX_LOAD * t.capacity
        assert len(t) > t.MAX_LOAD * t.capacity  # not one doubling more
        assert t.pending_size == 0
    assert sl.batch_get([k for k, _ in build_items(4000)]) == \
        [v for _, v in build_items(4000)]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_restore_under_drop_and_dup_is_exact(engine):
    """The handlers' effects are order-free, so a stage whose envelopes
    are dropped, duplicated and re-sent loads what a clean network does:
    the same contents, tables and ``next_leaf`` pointers."""
    items = build_items(700, stride=5)
    chk = Checkpoint("skiplist", "skiplist", items)
    clean = PIMSkipList(ENGINES[engine](num_modules=8, seed=3))
    restore_structure(chk, clean)
    lossy = PIMSkipList(ENGINES[engine](num_modules=8, seed=3))
    chaos = lossy.machine.install_fault_plan(
        FaultPlan(FaultSpec(drop=0.2, dup=0.2), seed=11))
    assert restore_structure(chk, lossy) == len(items)
    lossy.check_integrity()
    assert checkpoint_structure(lossy).payload == items
    assert _layout(lossy) == _layout(clean)
    assert _next_leaves(lossy) == _next_leaves(clean)
    stats = chaos.stats.as_dict()
    assert stats["drops"] and stats["dups"] and stats["retransmissions"]


def test_lsm_build_writes_its_run_in_one_round():
    machine = PIMMachine(num_modules=8, seed=5)
    lsm = PIMLSMStore(machine, block_size=16)
    items = build_items(300, stride=7)
    lsm.build(items)
    assert machine.metrics.rounds == 1
    assert lsm.run_size == 300 and lsm.delta.size == 0
    assert checkpoint_structure(lsm).payload == items
    stored = dict(items)
    assert lsm.batch_get([7, 8, 14]) == [stored[7], None, stored[14]]
    with pytest.raises(ValueError, match="empty"):
        lsm.build([(10 ** 9, 0)])
    with pytest.raises(ValueError, match="sorted unique"):
        PIMLSMStore(PIMMachine(num_modules=8, seed=5)).build([(2, 0), (1, 0)])


@DETERMINISTIC
@given(p=st.sampled_from([1, 2, 8, 64]),
       keys=st.lists(st.integers(-10 ** 6, 10 ** 6), unique=True,
                     max_size=300),
       kind=st.sampled_from(["skiplist", "lsm"]))
def test_build_capture_restore_round_trips(p, keys, kind):
    items = [(k, str(k)) for k in sorted(keys)]
    cls = PIMSkipList if kind == "skiplist" else PIMLSMStore
    source = cls(PIMMachine(num_modules=p, seed=1))
    source.build(items)
    chk = checkpoint_structure(source)
    assert chk.payload == items
    target = cls(PIMMachine(num_modules=p, seed=2))
    assert restore_structure(chk, target) == len(items)
    assert checkpoint_structure(target).payload == items
    if kind == "skiplist":
        source.check_integrity()
        target.check_integrity()
    probe = [k for k, _ in items[::7]] + [10 ** 7]
    assert target.batch_get(probe) == [str(k) for k in probe[:-1]] + [None]
