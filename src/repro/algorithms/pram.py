"""A Valiant-style PRAM emulation layer on the PIM model (paper §2.2).

§2.2 recalls that an EREW PRAM step can be emulated on a distributed
machine by hashing the shared memory's cells across the processors --
"However, these emulations are impractical because all accessed memory
incurs maximal data movement (i.e., across the network between the CPU
cores and the PIM memory), which is the exact opposite of the goal of
having processing-in-memory."

This module makes that argument measurable.  :class:`PRAMEmulation`
hashes virtual shared-memory cells to PIM modules and executes each PRAM
step as bulk-synchronous gather-compute-scatter rounds: every read and
every write of every virtual processor is one network message.  Running
a textbook PRAM algorithm (e.g. the pointer-doubling prefix sum in
:meth:`prefix_sum`) through the layer and comparing against the native
formulation (CPU-side scan over one gather,
:func:`native_prefix_sum`) shows the emulation paying
``Theta(n log n)`` messages where the native algorithm pays ``Theta(n)``
-- with *every* emulated access remote, as the paper says.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.balls.hashing import KeyLevelHash
from repro.collectives import Collectives
from repro.ops import Broadcast, run_batch
from repro.sim.machine import PIMMachine


class PRAMEmulation:
    """Shared-memory cells hashed across the PIM modules.

    One instance models an EREW PRAM with an addressable memory of
    arbitrary integer cells.  :meth:`write_many` / :meth:`read_many`
    perform one bulk-synchronous exchange each; :meth:`step` is a full
    PRAM super-step (parallel reads, CPU-side compute per virtual
    processor, parallel writes).
    """

    def __init__(self, machine: PIMMachine, name: str = "pram") -> None:
        self.machine = machine
        self.name = name
        self.hash = KeyLevelHash(
            machine.num_modules,
            seed=machine.spawn_rng(0x6E4A).getrandbits(32),
        )
        for module in machine.modules:
            module.state.setdefault(name, {})
        if f"{name}:write" not in machine._handlers:
            machine.register(f"{name}:write", self._write_body)
            machine.register(f"{name}:read", self._read_body)

    def _write_body(self, bct, chunks) -> None:
        modules = bct.machine.modules
        for mid, (addr, value), _tag, _size in bct.rows(chunks):
            module = modules[mid]
            bct.work[mid] += 1
            cells = module.state[self.name]
            if addr not in cells:
                module.alloc_words(1)
            cells[addr] = value

    def _read_body(self, bct, chunks) -> None:
        modules = bct.machine.modules
        for mid, (addr,), tag, _size in bct.rows(chunks):
            bct.work[mid] += 1
            bct.reply(mid, ("cell", addr,
                            modules[mid].state[self.name].get(addr)), tag)

    def owner(self, addr: int) -> int:
        return self.hash.module_of(("pram", addr))

    # -- bulk memory operations (one round each) -------------------------

    def write_many(self, writes: Sequence[Tuple[int, Any]]) -> None:
        """Parallel exclusive writes: one message per write."""
        run_batch(self.machine, f"{self.name}:write_many",
                  _write_many_route(self, writes))

    def read_many(self, addrs: Sequence[int]) -> List[Any]:
        """Parallel exclusive reads: one message each way per read."""
        return run_batch(self.machine, f"{self.name}:read_many",
                         _read_many_route(self, addrs))

    # -- PRAM super-step ---------------------------------------------------

    def step(self, procs: Sequence[Tuple[Sequence[int],
                                         Callable[..., Sequence[Tuple[int, Any]]]]],
             ) -> None:
        """One EREW PRAM step for a set of virtual processors.

        Each processor is ``(read_addrs, compute)``; ``compute`` receives
        the read values and returns the writes ``[(addr, value), ...]``.
        All reads happen, then all computes (charged O(1) CPU work each,
        O(1) depth in parallel), then all writes -- the BSP emulation
        schedule.
        """
        flat_addrs: List[int] = []
        spans: List[Tuple[int, int]] = []
        for addrs, _ in procs:
            spans.append((len(flat_addrs), len(addrs)))
            flat_addrs.extend(addrs)
        values = self.read_many(flat_addrs)
        writes: List[Tuple[int, Any]] = []
        for (off, k), (_, compute) in zip(spans, procs):
            writes.extend(compute(*values[off:off + k]))
        self.machine.cpu.charge(len(procs),
                                max(1.0, math.log2(len(procs) + 1)))
        self.write_many(writes)

    # -- a textbook PRAM algorithm -----------------------------------------

    def prefix_sum(self, values: Sequence[float], base: int = 0,
                   ) -> List[float]:
        """Inclusive prefix sum by pointer doubling: ``ceil(log2 n)``
        PRAM steps, each touching all ``n`` cells remotely.

        Stores inputs at addresses ``base..base+n-1``, returns the
        prefix sums (also left in memory).
        """
        n = len(values)
        self.write_many([(base + i, v) for i, v in enumerate(values)])
        stride = 1
        while stride < n:
            procs = []
            for i in range(n - 1, stride - 1, -1):
                def make(i=i):
                    def compute(a, b):
                        return [(base + i, a + b)]
                    return compute
                procs.append(([base + i, base + i - stride], make()))
            self.step(procs)
            stride *= 2
        return self.read_many([base + i for i in range(n)])


def native_prefix_sum(machine: PIMMachine, parts: Sequence[Sequence[float]],
                      name: str = "npsum") -> List[List[float]]:
    """The PIM-native formulation: local scans + one exscan of the sums.

    ``parts[i]`` is module ``i``'s resident slice.  Costs: O(n/P) PIM
    time, O(P) messages for the combine (plus the final verification
    gather), O(1) rounds -- versus the emulation's Theta(n log n)
    messages.
    """
    p = machine.num_modules
    if len(parts) != p:
        raise ValueError("need one part per module")
    fn_scan = f"{name}:scan"
    fn_shift = f"{name}:shift"
    fn_dump = f"{name}:dump"
    if fn_scan not in machine._handlers:
        def scan(bct, chunks):
            modules = bct.machine.modules
            for mid, _args, tag, _size in bct.rows(chunks):
                state = modules[mid].state[name]
                acc = 0.0
                out = []
                for x in state["part"]:
                    acc += x
                    out.append(acc)
                bct.work[mid] += len(out) + 1
                state["scan"] = out
                bct.reply(mid, ("sum", mid, acc), tag)

        def shift(bct, chunks):
            modules = bct.machine.modules
            for mid, (offset,), _tag, _size in bct.rows(chunks):
                state = modules[mid].state[name]
                state["scan"] = [x + offset for x in state["scan"]]
                bct.work[mid] += len(state["scan"]) + 1

        def dump(bct, chunks):
            modules = bct.machine.modules
            for mid, _args, tag, _size in bct.rows(chunks):
                scan = modules[mid].state[name]["scan"]
                bct.work[mid] += 1
                bct.reply(mid, ("scan", mid, scan), tag, max(1, len(scan)))

        machine.register(fn_scan, scan)
        machine.register(fn_shift, shift)
        machine.register(fn_dump, dump)

    for mid, part in enumerate(parts):
        machine.modules[mid].state.setdefault(name, {})["part"] = list(part)

    return run_batch(machine, f"{name}:prefix_sum",
                     _native_prefix_sum_route(machine, fn_scan, fn_shift,
                                              fn_dump))


def _write_many_route(pram: PRAMEmulation,
                      writes: Sequence[Tuple[int, Any]]):
    fn_write = f"{pram.name}:write"
    yield [(pram.owner(addr), fn_write, (addr, value), None)
           for addr, value in writes]


def _read_many_route(pram: PRAMEmulation, addrs: Sequence[int]):
    fn_read = f"{pram.name}:read"
    replies = yield [(pram.owner(addr), fn_read, (addr,), i)
                     for i, addr in enumerate(addrs)]
    out: List[Any] = [None] * len(addrs)
    for r in replies:
        out[r.tag] = r.payload[2]
    return out


def _native_prefix_sum_route(machine: PIMMachine, fn_scan: str,
                             fn_shift: str, fn_dump: str):
    p = machine.num_modules
    replies = yield [Broadcast(fn_scan, ())]
    sums = [0.0] * p
    for r in replies:
        _, mid, total = r.payload
        sums[mid] = total
    acc = 0.0
    offsets = []
    for total in sums:
        offsets.append(acc)
        acc += total
    machine.cpu.charge(2 * p, 2 * max(1.0, math.log2(p)))
    yield [(mid, fn_shift, (off,), None)
           for mid, off in enumerate(offsets)]
    replies = yield [Broadcast(fn_dump, ())]
    out: List[List[float]] = [[] for _ in range(p)]
    for r in replies:
        _, mid, scan = r.payload
        out[mid] = scan
    return out
