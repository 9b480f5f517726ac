"""Experiment MODEL: Fig. 1 / §2.1 -- the machine model's mechanics.

Direct measurements of the model's accounting rules on synthetic message
patterns: h-relations are maxima not sums, bulk-synchronous rounds cost
log P synchronization, module-to-module offloads route through two
rounds, and the shared-memory cap M behaves as the small CPU-side cache.
"""

import pytest

from repro.sim.config import MachineConfig, default_shared_memory_words
from repro.sim.errors import SharedMemoryExceeded
from repro.sim.machine import PIMMachine

from conftest import report


def _echo(bct, chunks):
    for mid, (x,), tag, _size in bct.rows(chunks):
        bct.work[mid] += 1
        bct.reply(mid, x, tag)


def test_h_relation_accounting(benchmark):
    """One spread round vs one concentrated round of the same 64 msgs."""
    rows = []
    for pattern in ("spread", "concentrated"):
        m = PIMMachine(num_modules=16, seed=0)
        m.register("echo", _echo)
        for i in range(64):
            dest = i % 16 if pattern == "spread" else 0
            m.send(dest, "echo", (i,))
        m.drain()
        rows.append([pattern, m.metrics.messages, m.metrics.io_time,
                     m.metrics.rounds])
    report(
        "MODEL-a: h-relation = max per module, not total (64 msgs, P=16)",
        ["pattern", "messages", "IO time", "rounds"],
        rows,
        notes="identical message counts; concentrated pattern pays 16x"
              " the IO time.",
    )
    assert rows[0][1] == rows[1][1]
    assert rows[1][2] == 16 * rows[0][2]

    def run():
        m = PIMMachine(num_modules=16, seed=0)
        m.register("echo", _echo)
        for i in range(64):
            m.send(i % 16, "echo", (i,))
        m.drain()

    benchmark(run)


def test_offload_chain_rounds(benchmark):
    """A k-hop module-to-module chain costs k rounds and 2k IO."""
    hops = 10

    def h_chain(bct, chunks):
        for mid, (left,), _tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            if left == 0:
                bct.reply(mid, "done")
            else:
                bct.sent[mid] += 1
                bct.stage_rows("chain", [((mid + 1) % bct.num_modules,
                                          (left - 1,), None, 1)])

    m = PIMMachine(num_modules=8, seed=0)
    m.register("chain", h_chain)
    m.send(0, "chain", (hops,))
    m.drain()
    report(
        "MODEL-b: k-hop offload chain (k=10, P=8)",
        ["rounds", "IO time", "sync cost"],
        [[m.metrics.rounds, m.metrics.io_time, m.metrics.sync_cost]],
        notes="each hop = 1 round; sync cost = rounds * log2 P.",
    )
    assert m.metrics.rounds == hops + 1
    assert m.metrics.sync_cost == pytest.approx((hops + 1) * 3.0)

    def run():
        mm = PIMMachine(num_modules=8, seed=0)
        mm.register("chain", h_chain)
        mm.send(0, "chain", (hops,))
        mm.drain()

    benchmark(run)


def test_shared_memory_model(benchmark):
    """M defaults to Theta(P log^2 P) and is enforceable."""
    rows = []
    for p in (8, 64, 512):
        m_words = default_shared_memory_words(p)
        rows.append([p, m_words, m_words / p])
    report(
        "MODEL-c: default M = 32 P ceil(log2 P)^2",
        ["P", "M (words)", "M/P"],
        rows,
        notes="paper: M independent of n, at most Theta(P log^2 P).",
    )
    machine = PIMMachine(config=MachineConfig(
        num_modules=4, shared_memory_words=100,
        enforce_shared_memory=True))
    machine.cpu.alloc(100)
    with pytest.raises(SharedMemoryExceeded):
        machine.cpu.alloc(1)
    machine.cpu.free(100)

    benchmark(lambda: default_shared_memory_words(1024))
