"""The skip list's write group: Successor keys riding an Upsert batch.

``PIMSkipList.apply_group([("upsert", pairs), ("successor", keys)])``
must answer exactly what the sequential oracle answers running the
Upsert and then the Successor batch, leave a sound structure, and run
the same rounds -- and draw the same random modules -- on the engine and
on the per-task reference oracle.  When the keys do not ride the
Upsert's search (``ops_successor.rides``), or the Upsert inserts nothing
(no search to ride), the group *is* the two batches run one after
another, down to the next RNG draw.  (What riding saves is a count of
search stages; on a structure of a handful of keys a stage's rounds are
not the rule's proxy, so the round comparisons live in
``tests/test_read_groups.py``'s grid, 8 <= P <= 64 over 64 P keys.)
"""

from hypothesis import given, strategies as st

from repro import PIMMachine, PIMSkipList
from repro.core.ops_successor import rides
from repro.sim.machine import ReferencePIMMachine
from repro.verify.oracle import SequentialOracle
from tests.conftest import DETERMINISTIC


@st.composite
def write_groups(draw):
    """``(P, items, pairs, riders)``: items on multiples of 3; an Upsert
    of fresh and stored keys (sometimes stored keys only: no insert, no
    search), possibly empty; riders with duplicates, inserted keys, and
    keys below and past everything stored."""
    p = draw(st.sampled_from([1, 2, 8, 64]))
    n = draw(st.integers(0, 40))
    items = [(3 * i, i) for i in range(n)]
    key = st.integers(-5, 3 * n + 5)
    if n and draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from([k for k, _ in items]),
                             max_size=12))
    else:
        keys = draw(st.lists(key, max_size=24))
    pairs = [(k, draw(st.integers(0, 9))) for k in keys]
    rider = st.one_of(key, st.sampled_from([-100, 10 ** 6]),
                      *([st.sampled_from(keys)] if keys else []))
    riders = draw(st.lists(rider, max_size=30))
    return p, items, pairs, riders


def _run(machine_cls, p, items, call):
    sl = PIMSkipList(machine_cls(num_modules=p, seed=p + 1))
    sl.build(items)
    before = sl.machine.snapshot()
    got = call(sl)
    sl.check_integrity()
    return got, sl.machine.delta_since(before), sl.machine.rng.random()


@DETERMINISTIC
@given(write_groups())
def test_a_write_group_is_the_oracles_upsert_then_successor(case):
    p, items, pairs, riders = case
    group = [("upsert", pairs), ("successor", riders)]
    want = SequentialOracle(items).apply_group(group)
    joined = _run(PIMMachine, p, items, lambda sl: sl.apply_group(group))
    assert joined[0] == want
    assert _run(ReferencePIMMachine, p, items,
                lambda sl: sl.apply_group(group)) == joined
    inserted = len({k for k, _ in pairs} - {k for k, _ in items})
    sl = PIMSkipList(PIMMachine(num_modules=p, seed=p + 1))
    if riders and inserted and rides(sl.struct, inserted, len(riders)):
        return
    assert _run(PIMMachine, p, items, lambda sl: [
        sl.apply_batch(op, payload) for op, payload in group]) == joined
