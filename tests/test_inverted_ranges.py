"""An inverted range pair ``(lo, hi)`` with ``hi < lo`` covers no key.

The conformance surface answers it ``[]``, as the sequential oracle
does, on every ordered map -- through ``apply_batch`` and through a
structure's ``apply_group`` -- while the other pairs of the batch get
their answers.  Served, one tenant's inverted pair is one empty answer:
the other tenants of the tick are answered and the server keeps running.
"""

import asyncio

import pytest

from repro import PIMMachine, PIMSkipList
from repro.serve import Server
from repro.verify.adapters import DEFAULT_IMPLS, build_implementations
from repro.verify.oracle import SequentialOracle
from repro.workloads import build_items

ITEMS = [(k, k // 2) for k in range(0, 40, 2)]
BATCH = [(10, 5), (4, 8), (9, 9), (30, 26)]


@pytest.mark.parametrize("name", [n for n in DEFAULT_IMPLS
                                  if n != "fine_grained"])
def test_every_ordered_map_answers_an_inverted_pair_empty(name):
    [adapter] = build_implementations([name], seed=3, items=ITEMS,
                                      num_modules=4)
    want = SequentialOracle(ITEMS).apply_batch("range", BATCH)
    assert want == [[], [(4, 2), (6, 3), (8, 4)], [], []]
    assert adapter.impl.apply_batch("range", BATCH) == want
    assert adapter.impl.apply_batch("range", [(7, 3)]) == [[]]
    if hasattr(adapter.impl, "apply_group"):
        assert adapter.impl.apply_group(
            [("successor", [5]), ("range", BATCH)]) == [[(6, 3)], want]


def test_one_tenants_inverted_range_leaves_the_server_running():
    def skiplist():
        return PIMSkipList(PIMMachine(num_modules=8, seed=7))

    live = skiplist()
    live.build(build_items(200, stride=2))
    server = Server(live, skiplist)

    async def session():
        await server.start()
        # A bounded wait: a batch that raises out of the scheduler never
        # resolves the futures of the requests it had taken.
        got = await asyncio.wait_for(asyncio.gather(
            server.submit("a", "range", [(10, 5)]),
            server.submit("b", "range", [(4, 8)]),
            server.submit("c", "range", [(20, 16), (398, 500)])), 30)
        got.append(await server.submit("a", "get", [10]))
        await server.stop()
        return got

    assert asyncio.run(session()) == [
        [[]], [[(4, 4), (6, 6), (8, 8)]],
        [[], [(398, 398), (400, 400)]], [10]]
    status = server.status()
    assert status["failure"] is None
    assert [e.op for e in server.journal] == ["range", "get"]
