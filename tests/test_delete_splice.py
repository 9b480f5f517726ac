"""Batched Delete's splice as index columns (``ops_delete._splice_lower``).

The splice is billed by formula (Theorem 4.5), so how the host builds
and contracts the copied nodes is free -- as long as the stage it
returns, the contraction's rounds and work, every charge and the
contraction RNG's stream stay what the dict-and-method-call build with
one ``getrandbits(1)`` per live row produced.  ``_reference_splice``
below is that build, kept as the executable spec.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ops_delete
from repro.core.node import NEG_INF, UPPER, Node
from repro.core.ops_write import write_stage
from repro.ops import Broadcast, Columns
from repro.sim.cpu import CPUSide, WorkDepth
from repro.sim.metrics import Metrics

P = 8
FN = "t:write_ptr"


def _reference_splice(sl, marked):
    """The dict build, the per-row coin loop and the link filter, as
    ``_splice_lower`` ran them before the columns.  Returns the stage
    and the contraction's ``(rounds, work)``."""
    cpu = sl.machine.cpu
    by_nid: Dict[int, Node] = {}
    original_right: Dict[int, Optional[int]] = {}
    entries = []
    for node, left, right in marked:
        by_nid[node.nid] = node
        if left is not None:
            by_nid.setdefault(left.nid, left)
        if right is not None:
            by_nid.setdefault(right.nid, right)
        entries.append((node.nid, left.nid if left else None,
                        right.nid if right else None))
        original_right[node.nid] = right.nid if right else None
        if left is not None:
            original_right.setdefault(left.nid, node.nid)

    ident: list = []
    is_marked: List[bool] = []
    lcol: List[int] = []
    rcol: List[int] = []
    rows: Dict[int, int] = {}

    def add(nid, m):
        rows[nid] = len(ident)
        ident.append(nid)
        is_marked.append(m)
        lcol.append(-1)
        rcol.append(-1)
        return rows[nid]

    for nid, _, _ in entries:
        if nid in rows:
            raise ValueError(f"duplicate ident {nid!r}")
        add(nid, True)
    for nid, lf, rt in entries:
        row = rows[nid]
        if lf is not None:
            lrow = rows.get(lf)
            if lrow is None:
                lrow = add(lf, False)
            lcol[row] = lrow
            rcol[lrow] = row
        if rt is not None:
            rrow = rows.get(rt)
            if rrow is None:
                rrow = add(rt, False)
            rcol[row] = rrow
            lcol[rrow] = row

    rng = sl.machine.spawn_rng(0x11C7)
    words = 4 * len(by_nid)
    with cpu.region(words):
        live = [row for row, m in enumerate(is_marked) if m]
        coin = [0] * len(is_marked)
        rounds = work = 0
        while live:
            rounds += 1
            for row in live:
                coin[row] = rng.getrandbits(1)
            work += len(live)
            to_splice, waiting = [], []
            for row in live:
                if coin[row]:
                    lf = lcol[row]
                    if lf < 0 or not is_marked[lf] or not coin[lf]:
                        to_splice.append(row)
                        continue
                waiting.append(row)
            for row in to_splice:
                lf, rt = lcol[row], rcol[row]
                if lf >= 0:
                    rcol[lf] = rt
                if rt >= 0:
                    lcol[rt] = lf
            live = waiting
        links = [(ident[row], ident[rcol[row]] if rcol[row] >= 0 else None)
                 for row, m in enumerate(is_marked) if not m]
    total = len(by_nid)
    logt = max(1.0, math.log2(total + 1))
    cpu.charge_wd(WorkDepth(max(total, work), rounds + logt))

    nodes, fields, values = [], [], []
    writes = 0
    for a_nid, b_nid in links:
        if original_right.get(a_nid, b_nid) == b_nid:
            continue
        a = by_nid[a_nid]
        b = by_nid[b_nid] if b_nid is not None else None
        nodes.append(a)
        fields.append("right")
        values.append(b)
        if b is not None:
            nodes.append(b)
            fields.append("left")
            values.append(a)
        writes += 1
    cpu.charge_wd(WorkDepth(writes + 1, logt))
    return write_stage(sl, nodes, fields, values), (rounds, work)


def _fake_structure(seed: int):
    """What the splice reads of a structure: the CPU side, the spawned
    contraction RNG (kept, to compare its state afterwards) and the
    write function's id."""
    metrics = Metrics(num_modules=P)
    rngs: list = []

    def spawn_rng(salt):
        rngs.append(random.Random(seed ^ salt))
        return rngs[-1]

    machine = SimpleNamespace(
        cpu=CPUSide(metrics, shared_memory_words=1 << 20),
        spawn_rng=spawn_rng)
    return SimpleNamespace(machine=machine, fn_write_ptr=FN), metrics, rngs


def _shape(stage):
    """A stage element by element, nodes by identity."""
    out = []
    for el in stage:
        if el.__class__ is Columns:
            out.append(("cols", el.fn, list(el.dests),
                        [list(map(id, el.cols[0])), list(el.cols[1]),
                         [None if v is None else id(v)
                          for v in el.cols[2]]]))
        else:
            assert el.__class__ is Broadcast
            node, field, value = el.args
            out.append(("bcast", el.fn, id(node), field,
                        None if value is None else id(value)))
    return out


def _run_both(marked, seed=0x5EED):
    """Run the reference and the column splice on the same input; the
    column splice's ``(rounds, work)`` is read off ``contract_rows``."""
    ref_sl, ref_metrics, ref_rngs = _fake_structure(seed)
    ref_stage, ref_cost = _reference_splice(ref_sl, marked)

    sl, metrics, rngs = _fake_structure(seed)
    seen = []
    real = ops_delete.contract_rows

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    ops_delete.contract_rows = spy
    try:
        stage = ops_delete._splice_lower(
            sl, [n for n, _, _ in marked], [lf for _, lf, _ in marked],
            [rt for _, _, rt in marked])
    finally:
        ops_delete.contract_rows = real
    assert _shape(stage) == _shape(ref_stage)
    assert seen == [ref_cost]
    for name in ("cpu_work", "cpu_depth", "shared_mem_peak",
                 "shared_mem_in_use"):
        assert getattr(metrics, name) == getattr(ref_metrics, name), name
    assert rngs[0].getstate() == ref_rngs[0].getstate()
    return stage, ref_cost


def _level_list(marks: List[bool], owners: List[int], sentinel: bool):
    """One level's nodes, linked left to right, headed by a replicated
    sentinel when ``sentinel``; returns ``(nodes, marked rows)`` with the
    sentinel never marked."""
    nodes = [Node(NEG_INF, 1, UPPER)] if sentinel else []
    nodes += [Node(i, 1, o) for i, o in enumerate(owners)]
    for a, b in zip(nodes, nodes[1:]):
        a.right = b
        b.left = a
    flags = ([False] if sentinel else []) + marks
    return nodes, [(n, n.left, n.right)
                   for n, f in zip(nodes, flags) if f]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(),
       marks=st.lists(st.booleans(), min_size=1, max_size=48),
       sentinel=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**30))
def test_columns_equal_the_dict_build(data, marks, sentinel, seed):
    """Random lists, marked runs anywhere (touching either end, behind
    the sentinel), replies in any order."""
    if not any(marks):
        marks[data.draw(st.integers(0, len(marks) - 1))] = True
    owners = data.draw(st.lists(st.integers(0, P - 1), min_size=len(marks),
                                max_size=len(marks)))
    _, marked = _level_list(marks, owners, sentinel)
    marked = data.draw(st.permutations(marked))
    _run_both(marked, seed)


@pytest.mark.parametrize("sentinel", [False, True])
def test_every_node_marked(sentinel):
    _, marked = _level_list([True] * 30, [i % P for i in range(30)],
                            sentinel)
    stage, _ = _run_both(marked)
    if sentinel:  # the sentinel's right goes to None: one broadcast
        assert [el.__class__ for el in stage] == [Broadcast]
        assert stage[0].args[1:] == ("right", None)
    else:
        assert stage == []


def test_a_run_behind_the_sentinel():
    nodes, marked = _level_list([True] * 5 + [False] * 3, [1] * 8, True)
    stage, _ = _run_both(marked)
    # the sentinel's right and the survivor's left: a broadcast, a row
    assert _shape(stage)[0][:4] == ("bcast", FN, id(nodes[0]), "right")


def test_one_marked_node():
    nodes, marked = _level_list([False, True, False], [3, 4, 5], False)
    stage, (rounds, work) = _run_both(marked)
    assert rounds == work
    assert _shape(stage) == [("cols", FN, [3, 5], [
        [id(nodes[0]), id(nodes[2])], ["right", "left"],
        [id(nodes[2]), id(nodes[0])]])]


def test_a_duplicate_marked_node_raises_before_any_write():
    nodes, marked = _level_list([False, True, True, False], [0] * 4, False)
    twice = marked + marked[:1]
    sl, metrics, rngs = _fake_structure(0)
    with pytest.raises(ValueError, match="marked twice"):
        ops_delete._splice_lower(
            sl, [n for n, _, _ in twice], [lf for _, lf, _ in twice],
            [rt for _, _, rt in twice])
    assert (metrics.cpu_work, metrics.cpu_depth, metrics.shared_mem_peak,
            rngs) == (0, 0, 0, [])
    ref_sl, _, _ = _fake_structure(0)
    with pytest.raises(ValueError):
        _reference_splice(ref_sl, twice)
    # nothing was written: the list is as built
    assert [n.right for n in nodes[:-1]] == nodes[1:]
