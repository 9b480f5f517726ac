"""Collective operations over per-module value slots."""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.ops import Broadcast, run_batch
from repro.sim.machine import PIMMachine


class Collectives:
    """A collective-communication context on a PIM machine.

    Each module holds one *slot* (an arbitrary value) per context.  The
    collectives move and combine slots with the model's costs:

    - :meth:`scatter` / :meth:`gather`: CPU <-> modules, ``h`` = the
      largest per-module payload;
    - :meth:`broadcast`: one (possibly fat) message per module;
    - :meth:`reduce` / :meth:`allreduce`: gather local values, combine on
      the CPU with an ``O(P)``-work, ``O(log P)``-depth tree;
    - :meth:`exscan`: exclusive prefix across module ids -- gather,
      CPU scan, scatter;
    - :meth:`alltoall`: module-to-module exchange of a payload matrix;
      ``h`` = the max over modules of (words sent + received), matching
      the h-relation definition exactly;
    - :meth:`map_slots`: run a local function on every slot (PIM work
      charged per module via the function's returned cost).
    """

    def __init__(self, machine: PIMMachine, name: str = "coll") -> None:
        self.machine = machine
        self.name = name
        self.num_modules = machine.num_modules
        for module in machine.modules:
            module.state.setdefault(name, {"slot": None, "inbox": []})
        # Handlers are stateless w.r.t. this instance (all state lives in
        # the modules), so re-creating a context with the same name on
        # the same machine is allowed.
        if f"{name}:put" not in machine._handlers:
            for fn, body in self._bodies().items():
                machine.register(f"{name}:{fn}", body)

    # -- batch bodies --------------------------------------------------------

    def _bodies(self) -> Dict[str, Any]:
        name = self.name
        fn_recv_piece = f"{name}:recv_piece"

        def rows(bct, chunks):
            """``(mid, args, tag, state)`` per row, in slot order: the
            replies fill lists and counters the CPU side reads in
            arrival order, and the forwarded pieces reach each inbox in
            the per-task loop's order."""
            modules = bct.machine.modules
            for mid, args, tag, _size in bct.rows_in_slot_order(chunks):
                yield mid, args, tag, modules[mid].state[name]

        def put(bct, chunks):
            for mid, (value,), _tag, st in rows(bct, chunks):
                bct.work[mid] += 1
                st["slot"] = value

        def get(bct, chunks):
            for mid, _args, tag, st in rows(bct, chunks):
                bct.work[mid] += 1
                bct.reply(mid, ("slot", mid, st["slot"]), tag,
                          _words(st["slot"]))

        def apply(bct, chunks):
            for mid, (fn,), _tag, st in rows(bct, chunks):
                out, cost = fn(mid, st["slot"])
                bct.work[mid] += max(1, cost)
                st["slot"] = out

        def send_row(bct, chunks):
            # all-to-all phase 1: each module forwards its row pieces.
            out = []
            for mid, (row,), _tag, _st in rows(bct, chunks):
                bct.work[mid] += len(row) + 1
                for dest, piece in row.items():
                    if piece:
                        out.append((dest, (piece,), None, _words(piece)))
                        bct.sent[mid] += _words(piece)
            bct.stage_rows(fn_recv_piece, out)

        def recv_piece(bct, chunks):
            for mid, (piece,), _tag, st in rows(bct, chunks):
                bct.work[mid] += max(1, _words(piece))
                st["inbox"].append(piece)

        def collect_inbox(bct, chunks):
            for mid, _args, tag, st in rows(bct, chunks):
                inbox = st["inbox"]
                bct.work[mid] += len(inbox) + 1
                st["inbox"] = []
                bct.reply(mid, ("inbox", mid, inbox), tag,
                          max(1, sum(_words(p) for p in inbox)))

        def hist_count(bct, chunks):
            for mid, (bucket,), _tag, st in rows(bct, chunks):
                bct.work[mid] += 1
                st.setdefault("hist", Counter())[bucket] += 1

        def hist_flush(bct, chunks):
            for mid, _args, tag, st in rows(bct, chunks):
                counts = st.pop("hist", Counter())
                bct.work[mid] += len(counts) + 1
                bct.reply(mid, ("hist", dict(counts)), tag,
                          max(1, len(counts)))

        return {"put": put, "get": get, "apply": apply,
                "send_row": send_row, "recv_piece": recv_piece,
                "collect_inbox": collect_inbox, "hist_count": hist_count,
                "hist_flush": hist_flush}

    # -- data movement -----------------------------------------------------

    def scatter(self, values: Sequence[Any]) -> None:
        """Store ``values[i]`` into module ``i``'s slot."""
        if len(values) != self.num_modules:
            raise ValueError("scatter needs one value per module")
        run_batch(self.machine, f"{self.name}:scatter",
                  _scatter_route(self, values))

    def gather(self) -> List[Any]:
        """Return every module's slot (ordered by module id)."""
        return run_batch(self.machine, f"{self.name}:gather",
                         _gather_route(self))

    def broadcast(self, value: Any) -> None:
        """Store ``value`` into every module's slot."""
        run_batch(self.machine, f"{self.name}:broadcast",
                  _broadcast_route(self, value))

    def map_slots(self, fn: Callable[[int, Any], Any]) -> None:
        """Apply ``fn(mid, slot) -> (new_slot, pim_work)`` on each module."""
        run_batch(self.machine, f"{self.name}:map_slots",
                  _map_slots_route(self, fn))

    # -- combining collectives --------------------------------------------

    def reduce(self, op: Callable[[Any, Any], Any], identity: Any) -> Any:
        """Combine all slots on the CPU (O(P) work, O(log P) depth)."""
        values = self.gather()
        acc = identity
        for v in values:
            acc = op(acc, v)
        self.machine.cpu.charge(self.num_modules,
                                max(1.0, math.log2(self.num_modules)))
        return acc

    def allreduce(self, op: Callable[[Any, Any], Any], identity: Any) -> Any:
        """Reduce, then broadcast the result back to every slot."""
        total = self.reduce(op, identity)
        self.broadcast(total)
        return total

    def exscan(self, op: Callable[[Any, Any], Any], identity: Any,
               ) -> List[Any]:
        """Exclusive prefix over module ids; result lands in each slot.

        Module ``i`` receives ``op(slot_0, ..., slot_{i-1})``.  Two
        rounds: gather + scatter (the CPU scan is O(P)/O(log P)).
        """
        values = self.gather()
        prefixes: List[Any] = []
        acc = identity
        for v in values:
            prefixes.append(acc)
            acc = op(acc, v)
        self.machine.cpu.charge(2 * self.num_modules,
                                2 * max(1.0, math.log2(self.num_modules)))
        self.scatter(prefixes)
        return prefixes

    # -- all-to-all ---------------------------------------------------------

    def alltoall(self, matrix: Sequence[Dict[int, Any]]) -> List[List[Any]]:
        """Exchange ``matrix[i][j]`` from module ``i`` to module ``j``.

        Phase 1 scatters each row to its source module; phase 2 the
        sources forward the pieces (this is the charged exchange: ``h`` =
        max over modules of words sent + received); phase 3 gathers each
        module's inbox back to the CPU for inspection.  Returns the
        received pieces per destination module.
        """
        if len(matrix) != self.num_modules:
            raise ValueError("alltoall needs one row per module")
        return run_batch(self.machine, f"{self.name}:alltoall",
                         _alltoall_route(self, matrix))

    # -- histogram ------------------------------------------------------------

    def histogram(self, records: Sequence[Hashable],
                  placement: Callable[[Hashable], int]) -> Counter:
        """PIM-balanced counting: scatter records by ``placement``, count
        locally, gather the partial counters.

        With a hash placement, Lemma 2.1 makes both the scatter and the
        local work balanced whp for any input distribution.
        """
        return run_batch(self.machine, f"{self.name}:histogram",
                         _histogram_route(self, records, placement))


def _scatter_route(coll: Collectives, values: Sequence[Any]):
    fn_put = f"{coll.name}:put"
    yield ((mid, fn_put, (value,), None, _words(value))
           for mid, value in enumerate(values))


def _gather_route(coll: Collectives):
    replies = yield [Broadcast(f"{coll.name}:get", ())]
    out: List[Any] = [None] * coll.num_modules
    for r in replies:
        _, mid, value = r.payload
        out[mid] = value
    coll.machine.cpu.charge(coll.num_modules,
                            max(1.0, math.log2(coll.num_modules)))
    return out


def _broadcast_route(coll: Collectives, value: Any):
    yield [Broadcast(f"{coll.name}:put", (value,), size=_words(value))]


def _map_slots_route(coll: Collectives, fn: Callable[[int, Any], Any]):
    yield [Broadcast(f"{coll.name}:apply", (fn,))]


def _alltoall_route(coll: Collectives, matrix: Sequence[Dict[int, Any]]):
    fn_send_row = f"{coll.name}:send_row"
    yield ((mid, fn_send_row, (dict(row),), None,
            max(1, sum(_words(v) for v in row.values())))
           for mid, row in enumerate(matrix))
    replies = yield [Broadcast(f"{coll.name}:collect_inbox", ())]
    out: List[List[Any]] = [[] for _ in range(coll.num_modules)]
    for r in replies:
        _, mid, inbox = r.payload
        out[mid] = inbox
    return out


def _histogram_route(coll: Collectives, records: Sequence[Hashable],
                     placement: Callable[[Hashable], int]):
    fn_count = f"{coll.name}:hist_count"
    fn_flush = f"{coll.name}:hist_flush"
    yield ((placement(rec), fn_count, (rec,), None) for rec in records)
    replies = yield [Broadcast(fn_flush, ())]
    total: Counter = Counter()
    for r in replies:
        total.update(r.payload[1])
    coll.machine.cpu.charge(
        len(records) // max(1, coll.num_modules) + coll.num_modules,
        max(1.0, math.log2(len(records) + 2)),
    )
    return total


def _words(value: Any) -> int:
    """Accounted message size of a payload, in constant-size units."""
    if value is None:
        return 1
    if isinstance(value, (list, tuple, set, frozenset)):
        return max(1, len(value))
    if isinstance(value, dict):
        return max(1, len(value))
    return 1
