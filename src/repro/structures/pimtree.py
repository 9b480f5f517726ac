"""A skew-resistant successor index on the PIM model ("PIM-tree").

The paper's skip list keeps its *upper part* replicated everywhere and
hashes lower-part nodes across modules, which balances **uniform**
batches -- but an adversarial batch of distinct keys whose search paths
converge (Zipf reads, same-successor probes) funnels the lower-part
walk into the few modules that own the hot path.  The authors'
follow-up index (PIM-tree, PVLDB 2022) fixes exactly that with two
mechanisms, both reproduced here on our simulator:

- **push-pull search**: at every tree level the CPU chooses, per node,
  between *pushing* the queries to the node's home module (one message
  per query, good when the group is small) and *pulling* the node's
  summary (fences + child ids) to the CPU side (one message of size
  ~fan-out, good when many queries pile onto one node).  The decision
  is a pure load comparison: pull when the group size reaches
  ``pull_threshold`` (default ``(fanout + 1) // 2``, the break-even
  point between ``2q`` pushed words and ``F + q`` pulled words).  The
  same rule applies at the leaf level with the leaf capacity in place
  of the fan-out.
- **shadow subtrees**: an upper-level node that keeps getting pulled is
  *hot*; after ``promote_threshold`` pulls its summary is broadcast to
  every module (a shadow replica), and from then on queries for it are
  sprayed round-robin across all ``P`` replicas -- the hot spot is gone
  and the pull traffic with it.  Shadow replicas are refreshed whenever
  the node changes (splits under it); disabling that refresh is the
  registered storage fault ``pimtree_shadow_stale``, which the
  differential stack must catch.

Layout.  Sorted leaves of at most ``leaf_size`` pairs live in module
state, placed by a seeded hash; interior nodes (fence keys + child
ids) also live on seeded home modules.  The CPU keeps the *root*
resident plus an authoritative **mirror** of every interior node: the
mirror plans structural maintenance (B+-style splits, bottom-up), and
every changed node is re-pushed wholesale to its home module -- search
traffic, however, always goes through the module copies (push, pull,
or shadow), so the read path is honestly charged.  A CPU directory of
``leaf -> (owner, next, size)`` supports chained range scans and
skipping emptied leaves.  Leaves are never merged (deletes leave empty
leaves behind; the directory skips them) -- the same tombstone-flavored
residual the LSM foil accepts.

Conformance: the full ``apply_batch`` surface (get / successor /
upsert / delete / range) with the repository-wide semantics --
successor is non-strict (smallest key >= probe), ranges are inclusive
and ascending, upsert duplicates collapse to the last occurrence.
"""

from __future__ import annotations

import bisect
import math
from itertools import repeat
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.balls.hashing import KeyLevelHash, stable_hash
from repro.core.skiplist import READ_OPS, group_payloads
from repro.cpuside.semisort import group_positions
from repro.ops import Broadcast, Columns, run_batch
from repro.sim.fastpath import COLS
from repro.sim.machine import PIMMachine
from repro.sim.task import Reply

#: The module-side functions, each registered as ``<tree name>:<function>``.
_FUNCTIONS = ("nd_store", "nd_step", "nd_pull", "sh_store", "sh_step",
              "sh_dump", "lf_store", "lf_get", "lf_succ", "lf_scan",
              "lf_write", "lf_del", "lf_pull")


def _log2(n: int) -> float:
    return max(1.0, math.log2(n)) if n > 1 else 1.0


def _chunks(seq: Sequence, cap: int) -> List[list]:
    """Split ``seq`` into the fewest balanced chunks of at most ``cap``."""
    n = len(seq)
    k = max(1, -(-n // cap))
    base, extra = divmod(n, k)
    out, start = [], 0
    for j in range(k):
        size = base + (1 if j < extra else 0)
        out.append(list(seq[start:start + size]))
        start += size
    return out


class _Node:
    """One interior node: ``fences[i]`` separates ``children[i]``.

    ``fences`` are subtree-minimum separators (``fences[0]`` is only
    nominal: child 0 also covers everything below it), so routing is
    ``bisect_right(fences, key) - 1`` clamped at 0.  ``kind`` says what
    the children are (``"leaf"`` or ``"node"``).
    """

    __slots__ = ("fences", "children", "kind")

    def __init__(self, fences: List, children: List[int], kind: str) -> None:
        self.fences = fences
        self.children = children
        self.kind = kind


# ----------------------------------------------------------------------
# read kernels: one per read function, over a run of ``(module, tag,
# *args)`` rows.  ``stores[module]`` is that module's node, shadow or
# leaf store; each row charges ``work[module]``, counts its reply's size
# into ``sent[module]`` and passes the reply to ``out``.
# ----------------------------------------------------------------------

#: ``max(1, int(log2(n + 1)))``, a ``bisect`` over ``n`` entries, by the
#: bit length of ``n + 1``: the same integers for every ``n`` below
#: ``2**47``.
_LOG_WORK = tuple(max(1, bits - 1) for bits in range(64))


def _step_kernel(stores, rows, work, sent, out) -> None:
    """``nd_step`` / ``sh_step``: a key one level down the node the
    module holds (its home copy or a shadow replica)."""
    right = bisect.bisect_right
    for mid, tag, nid, key, qid in rows:
        fences, children, kind = stores[mid][nid]
        i = right(fences, key) - 1
        work[mid] += _LOG_WORK[(len(children) + 1).bit_length()]
        sent[mid] += 1
        out(Reply(("step", qid, children[i if i > 0 else 0], kind), tag,
                  mid))


def _get_kernel(stores, rows, work, sent, out) -> None:
    """``lf_get``: a key's value in its leaf, or a miss."""
    left = bisect.bisect_left
    for mid, tag, lid, key in rows:
        leaf = stores[mid][lid]
        n = len(leaf)
        i = left(leaf, (key,))
        hit = i < n and leaf[i][0] == key
        work[mid] += _LOG_WORK[(n + 1).bit_length()]
        sent[mid] += 1
        out(Reply(("lget", key, leaf[i][1] if hit else None, hit), tag, mid))


def _succ_kernel(stores, rows, work, sent, out) -> None:
    """``lf_succ``: the leaf's first item at or above a key, if any."""
    left = bisect.bisect_left
    for mid, tag, lid, key, qid in rows:
        leaf = stores[mid][lid]
        n = len(leaf)
        i = left(leaf, (key,))
        work[mid] += _LOG_WORK[(n + 1).bit_length()]
        sent[mid] += 1
        out(Reply(("lsucc", qid, leaf[i] if i < n else None), tag, mid))


def _scan_kernel(stores, rows, work, sent, out) -> None:
    """``lf_scan``: the leaf's items in ``[lo, hi]`` and its last key; one
    message unit an item."""
    left = bisect.bisect_left
    for mid, tag, lid, lo, hi, qid in rows:
        leaf = stores[mid][lid]
        n = len(leaf)
        i = j = left(leaf, (lo,))
        while j < n and leaf[j][0] <= hi:
            j += 1
        work[mid] += j - i + _LOG_WORK[(n + 1).bit_length()]
        sent[mid] += max(1, j - i)
        out(Reply(("lscan", qid, lid, tuple(leaf[i:j]),
                   leaf[-1][0] if n else None), tag, mid))


class PIMTree:
    """Skew-resistant ordered map: push-pull search + shadow subtrees."""

    #: Batch ops replayable through :meth:`apply_batch`.
    BATCH_CAPS = frozenset({"get", "successor", "upsert", "delete", "range"})

    def __init__(self, machine: PIMMachine, name: str = "pimtree",
                 leaf_size: int = 16, fanout: int = 16,
                 pull_threshold: Optional[int] = None,
                 leaf_pull_threshold: Optional[int] = None,
                 promote_threshold: int = 4) -> None:
        self.machine = machine
        self.name = name
        self.leaf_size = max(2, leaf_size)
        self.fanout = max(2, fanout)
        self.pull_threshold = (pull_threshold if pull_threshold is not None
                               else max(2, (self.fanout + 1) // 2))
        self.leaf_pull_threshold = (
            leaf_pull_threshold if leaf_pull_threshold is not None
            else max(2, (self.leaf_size + 1) // 2))
        self.promote_threshold = max(1, promote_threshold)
        self.hash = KeyLevelHash(
            machine.num_modules,
            seed=machine.spawn_rng(stable_hash(name) & 0xFFFF)
            .getrandbits(32))
        # CPU-resident root + authoritative mirror of interior nodes.
        self.root = _Node([], [], "leaf")
        self.nodes: Dict[int, _Node] = {}
        self.node_owner: Dict[int, int] = {}
        self.parent: Dict[int, Optional[int]] = {}  # leaf/node id -> nid|root
        # Leaf directory (CPU metadata, maintained exactly).
        self.leaf_owner: Dict[int, int] = {}
        self.leaf_next: Dict[int, Optional[int]] = {}
        self.leaf_len: Dict[int, int] = {}
        self.first_leaf: Optional[int] = None
        # Shadow-subtree state.
        self.shadows: Set[int] = set()
        self.pull_counts: Dict[int, int] = {}
        self._promo_queue: List[int] = []
        #: The ``pimtree_shadow_stale`` fault flips this off: shadowed
        #: nodes keep serving their stale replicas after splits.
        self._shadow_invalidation = True
        #: CPU-side search-traffic counters (not machine metrics).
        self.stats: Dict[str, int] = {
            "push_msgs": 0, "pull_msgs": 0, "shadow_msgs": 0,
            "promotions": 0,
        }
        self.size = 0
        self.height = 0  # interior levels below the root
        self._next_id = 0
        #: Function ids, formatted once.
        self._fn = {f: f"{name}:{f}" for f in _FUNCTIONS}
        if any(fn in machine._handlers for fn in self._fn.values()) or any(
                name in module.state for module in machine.modules):
            raise ValueError(
                f"PIMTree: the name {name!r} is taken on this machine")
        for module in machine.modules:
            module.state[name] = {"leaf": {}, "node": {}, "shadow": {}}
        handlers, chunked = self._handlers()
        machine.register_all(handlers)
        for fn, batch_handler in chunked.items():
            machine.register_batch(fn, batch_handler)

    # ------------------------------------------------------------------
    # handlers (module-resident nodes, shadow replicas, leaves)
    # ------------------------------------------------------------------

    def _handlers(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(handlers, chunked)``: every function's slot handler, and
        the batch handlers of the five read functions.

        A read function is one kernel over a run of rows (``_step_kernel``
        serves ``nd_step`` and ``sh_step``, then ``_get_kernel``,
        ``_succ_kernel``, ``_scan_kernel``).  Its batch handler runs the
        kernel over each chunk -- a column chunk column-wise, straight
        from ``dests`` and ``cols``, a row chunk row by row -- and its
        slot handler (fault plans, qrqw, access tracing,
        :class:`~repro.sim.machine.ReferencePIMMachine`) over the task's
        one row.  The stores, writes, deletes and ``nd_pull`` /
        ``lf_pull`` stay in slots: the CPU side sums the pull replies'
        non-integer ``log2`` charges in arrival order, and slots run
        before chunks, module ascending, so that order is the per-task
        loop's."""
        name, fn = self.name, self._fn

        def nstate(ctx):
            return ctx.module.state[name]["node"]

        def sstate(ctx):
            return ctx.module.state[name]["shadow"]

        def lstate(ctx):
            return ctx.module.state[name]["leaf"]

        def read_pair(store, kernel):
            def scalar(ctx, *args, tag=None):
                work, sent, got = [0], [0], []
                kernel((ctx.module.state[name][store],), ((0, tag) + args,),
                       work, sent, got.append)
                ctx.charge(work[0])
                ctx.reply(got[0].payload, tag=tag, size=sent[0])

            def chunk(bct, chunks):
                modules = bct.machine.modules
                for ch in chunks:
                    if ch.kind == COLS:
                        mids = ch.counts
                        rows = zip(ch.dests, repeat(None), *ch.cols)
                    else:
                        rows = [(mid, tag) + args
                                for mid, args, tag, _size in bct.rows_of(ch)]
                        mids = {row[0] for row in rows}
                    kernel({mid: modules[mid].state[name][store]
                            for mid in mids},
                           rows, bct.work, bct.sent, bct.replies.append)

            return scalar, chunk

        def _store_node(store, nid, fences, children, kind, module):
            old = store.get(nid)
            if old is not None:
                module.free_words(2 * len(old[1]))
            store[nid] = (list(fences), list(children), kind)
            module.alloc_words(2 * len(children))

        def h_nd_store(ctx, nid, fences, children, kind, tag=None):
            ctx.charge(len(children) + 1)
            _store_node(nstate(ctx), nid, fences, children, kind, ctx.module)

        def h_nd_pull(ctx, nid, tag=None):
            fences, children, kind = nstate(ctx)[nid]
            ctx.charge(len(children) + 1)
            ctx.reply(("pull", nid, tuple(fences), tuple(children), kind),
                      size=max(1, len(children)), tag=tag)

        def h_sh_store(ctx, nid, fences, children, kind, tag=None):
            ctx.charge(len(children) + 1)
            _store_node(sstate(ctx), nid, fences, children, kind, ctx.module)

        def h_sh_dump(ctx, tag=None):
            shadows = sstate(ctx)
            ctx.charge(len(shadows) + 1)
            dump = tuple(sorted(
                (nid, tuple(f), tuple(c), k)
                for nid, (f, c, k) in shadows.items()))
            ctx.reply(("shdump", ctx.module.mid, dump),
                      size=max(1, len(dump)), tag=tag)

        def h_lf_store(ctx, lid, items, tag=None):
            leaves = lstate(ctx)
            ctx.charge(len(items) + 1)
            old = leaves.get(lid)
            if old is not None:
                ctx.module.free_words(2 * len(old))
            leaves[lid] = [tuple(p) for p in items]
            ctx.module.alloc_words(2 * len(items))

        def h_lf_write(ctx, lid, pairs, tag=None):
            leaves = lstate(ctx)
            leaf = leaves[lid]
            ctx.charge(len(leaf) + len(pairs) + 1)
            merged = dict(leaf)
            merged.update(pairs)
            new = sorted(merged.items())
            grown = len(new) - len(leaf)
            if grown > 0:
                ctx.module.alloc_words(2 * grown)
            leaves[lid] = new
            ctx.reply(("lwrote", lid, len(new)), tag=tag)

        def h_lf_del(ctx, lid, keys, tag=None):
            leaves = lstate(ctx)
            leaf = leaves[lid]
            ctx.charge(len(leaf) + len(keys) + 1)
            drop = set(keys)
            new = [p for p in leaf if p[0] not in drop]
            removed = len(leaf) - len(new)
            if removed:
                ctx.module.free_words(2 * removed)
            leaves[lid] = new
            ctx.reply(("ldel", lid, len(new), removed), tag=tag)

        def h_lf_pull(ctx, lid, tag=None):
            leaf = lstate(ctx)[lid]
            ctx.charge(len(leaf) + 1)
            ctx.reply(("lpull", lid, tuple(leaf)),
                      size=max(1, len(leaf)), tag=tag)

        handlers = {
            fn["nd_store"]: h_nd_store,
            fn["nd_pull"]: h_nd_pull,
            fn["sh_store"]: h_sh_store,
            fn["sh_dump"]: h_sh_dump,
            fn["lf_store"]: h_lf_store,
            fn["lf_write"]: h_lf_write,
            fn["lf_del"]: h_lf_del,
            fn["lf_pull"]: h_lf_pull,
        }
        chunked = {}
        for f, store, kernel in (("nd_step", "node", _step_kernel),
                                 ("sh_step", "shadow", _step_kernel),
                                 ("lf_get", "leaf", _get_kernel),
                                 ("lf_succ", "leaf", _succ_kernel),
                                 ("lf_scan", "leaf", _scan_kernel)):
            handlers[fn[f]], chunked[fn[f]] = read_pair(store, kernel)
        return handlers, chunked

    # ------------------------------------------------------------------
    # CPU-side helpers
    # ------------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _note_pull(self, nid: int) -> None:
        count = self.pull_counts.get(nid, 0) + 1
        self.pull_counts[nid] = count
        if (count >= self.promote_threshold and nid not in self.shadows
                and nid not in self._promo_queue):
            self._promo_queue.append(nid)

    def _next_nonempty(self, lid: Optional[int]) -> Optional[int]:
        """First leaf at/after ``lid`` in the chain with items (CPU walk
        over the directory; emptied leaves are skipped for free-ish)."""
        hops = 0
        while lid is not None and self.leaf_len.get(lid, 0) == 0:
            lid = self.leaf_next.get(lid)
            hops += 1
        if hops:
            self.machine.cpu.charge(float(hops), 1.0)
        return lid

    def _descend(self, machine: PIMMachine, keys: Sequence[Hashable]):
        """Route every query -- query ``qid`` is ``keys[qid]`` -- to its
        covering leaf id.

        The push-pull walk: per level, per node, ship the queries or
        pull the node by the load rule; hot nodes answer from shadow
        replicas sprayed across all modules.  A level's stage is the
        pulls, as rows in node order, then one :class:`Columns` element
        each for the ``sh_step`` and the ``nd_step`` messages.  The
        frontier stays grouped by node from one level to the next (in
        reply order within a node, which nothing charged depends on).
        A generator (used via ``yield from``); returns the leaf ids,
        indexed by ``qid``.  Ends with a shadow promotion broadcast when
        this batch's pulls made nodes hot.
        """
        p, fn, stats = machine.num_modules, self._fn, self.stats
        done: List[Optional[int]] = [None] * len(keys)
        root = self.root
        if not root.children:
            return done
        machine.cpu.charge(
            len(keys) * max(1.0, math.log2(len(root.children) + 1)),
            _log2(len(keys)))
        # nid -> ([qid], [key]): the queries at that node.
        frontier: Dict[int, Tuple[List[int], List[Any]]] = {}

        def route(fences, children, kind, qids) -> None:
            """Queries one level down a node the CPU side holds."""
            for qid in qids:
                i = bisect.bisect_right(fences, keys[qid]) - 1
                child = children[i if i > 0 else 0]
                if kind == "leaf":
                    done[qid] = child
                    continue
                grp = frontier.get(child)
                if grp is None:
                    frontier[child] = ([qid], [keys[qid]])
                else:
                    grp[0].append(qid)
                    grp[1].append(keys[qid])

        route(root.fences, root.children, root.kind, range(len(keys)))
        while frontier:
            stage: List = []
            pulled: Dict[int, List[int]] = {}
            # dests, nids, keys, qids of the sprayed and the pushed steps
            spray: Tuple[list, list, list, list] = ([], [], [], [])
            push: Tuple[list, list, list, list] = ([], [], [], [])
            for nid in sorted(frontier):
                qids, gkeys = frontier[nid]
                g = len(qids)
                if nid in self.shadows:
                    cols, dests = spray, [(nid + qid) % p for qid in qids]
                    stats["shadow_msgs"] += g
                elif g >= self.pull_threshold:
                    stage.append((self.node_owner[nid], fn["nd_pull"],
                                  (nid,), None))
                    pulled[nid] = qids
                    stats["pull_msgs"] += 1
                    self._note_pull(nid)
                    continue
                else:
                    cols, dests = push, [self.node_owner[nid]] * g
                    stats["push_msgs"] += g
                cols[0].extend(dests)
                cols[1].extend([nid] * g)
                cols[2].extend(gkeys)
                cols[3].extend(qids)
            for f, cols in (("sh_step", spray), ("nd_step", push)):
                if cols[0]:
                    stage.append(Columns(fn[f], cols[0], cols[1:]))
            replies = yield stage
            frontier = {}
            for r in replies:
                payload = r.payload
                if payload[0] == "step":
                    # ``route``'s grouping, inlined: a reply per pushed
                    # query.
                    _, qid, child, kind = payload
                    if kind == "leaf":
                        done[qid] = child
                        continue
                    grp = frontier.get(child)
                    if grp is None:
                        frontier[child] = ([qid], [keys[qid]])
                    else:
                        grp[0].append(qid)
                        grp[1].append(keys[qid])
                    continue
                _, nid, fences, children, kind = payload
                qids = pulled[nid]
                machine.cpu.charge(
                    len(qids) * max(1.0, math.log2(len(children) + 1)),
                    _log2(len(qids)))
                route(fences, children, kind, qids)
        promos = self._drain_promos()
        if promos:
            yield promos
        return done

    def _drain_promos(self) -> List[Broadcast]:
        """Shadow promotions queued by this batch's pulls, as one
        broadcast stage (replicas usable from the next batch on)."""
        msgs: List[Broadcast] = []
        for nid in self._promo_queue:
            node = self.nodes.get(nid)
            if node is None:
                continue
            msgs.append(Broadcast(
                self._fn["sh_store"],
                (nid, tuple(node.fences), tuple(node.children), node.kind),
                None, max(1, len(node.children))))
            self.shadows.add(nid)
            self.stats["promotions"] += 1
            self.stats["shadow_msgs"] += self.machine.num_modules
        self._promo_queue = []
        return msgs

    # ------------------------------------------------------------------
    # structural maintenance (planned on the CPU mirror)
    # ------------------------------------------------------------------

    def _plan_splits(self, contents: Dict[int, Sequence]) -> Tuple[List, Set[int]]:
        """B+-style bottom-up splits for the oversize pulled leaves.

        Mutates the CPU mirror and directory; returns ``(store_msgs,
        changed_nids)`` -- the whole-node/leaf rewrites to push in one
        stage, plus the interior nodes whose module (and shadow) copies
        went stale.
        """
        fn, cpu = self._fn, self.machine.cpu
        msgs: List = []
        changed: Set[int] = set()
        touched_parents: Set[Optional[int]] = set()
        for lid in sorted(contents):
            items = contents[lid]
            chunks = _chunks(items, self.leaf_size)
            cpu.charge(len(items) + len(self.root.children),
                       _log2(len(items)))
            old_next = self.leaf_next[lid]
            self.leaf_len[lid] = len(chunks[0])
            msgs.append((self.leaf_owner[lid], fn["lf_store"],
                         (lid, tuple(chunks[0])), None,
                         max(1, len(chunks[0]))))
            pid = self.parent.get(lid)
            node = self.root if pid is None else self.nodes[pid]
            pos = node.children.index(lid)
            prev = lid
            for j, chunk in enumerate(chunks[1:], start=1):
                nlid = self._new_id()
                owner = self.hash.module_of(("leaf", nlid))
                self.leaf_owner[nlid] = owner
                self.leaf_len[nlid] = len(chunk)
                self.leaf_next[prev] = nlid
                prev = nlid
                self.parent[nlid] = pid
                node.fences.insert(pos + j, chunk[0][0])
                node.children.insert(pos + j, nlid)
                msgs.append((owner, fn["lf_store"],
                             (nlid, tuple(chunk)), None,
                             max(1, len(chunk))))
            self.leaf_next[prev] = old_next
            if pid is not None:
                changed.add(pid)
            touched_parents.add(pid)
        # Cascade interior overflows bottom-up.
        pending: Set[int] = {pid for pid in touched_parents
                             if pid is not None}
        while pending:
            nxt: Set[int] = set()
            for nid in sorted(pending):
                if len(self.nodes[nid].children) > self.fanout:
                    self._split_node(nid, changed, nxt)
            pending = nxt
        while len(self.root.children) > self.fanout:
            self._split_root(changed)
        for nid in sorted(changed):
            node = self.nodes[nid]
            msgs.append((self.node_owner[nid], fn["nd_store"],
                         (nid, tuple(node.fences), tuple(node.children),
                          node.kind), None, max(1, len(node.children))))
        stale_shadows = sorted(changed & self.shadows)
        if self._shadow_invalidation:
            for nid in stale_shadows:
                node = self.nodes[nid]
                msgs.append(Broadcast(
                    fn["sh_store"],
                    (nid, tuple(node.fences), tuple(node.children),
                     node.kind), None, max(1, len(node.children))))
                self.stats["shadow_msgs"] += self.machine.num_modules
        return msgs, changed

    def _split_node(self, nid: int, changed: Set[int],
                    cascade: Set[int]) -> None:
        node = self.nodes[nid]
        self.machine.cpu.charge(float(len(node.children)),
                                _log2(len(node.children)))
        fchunks = _chunks(node.fences, self.fanout)
        cchunks = _chunks(node.children, self.fanout)
        node.fences, node.children = fchunks[0], cchunks[0]
        changed.add(nid)
        pid = self.parent.get(nid)
        pnode = self.root if pid is None else self.nodes[pid]
        pos = pnode.children.index(nid)
        for j in range(1, len(cchunks)):
            nnid = self._new_id()
            self.nodes[nnid] = _Node(fchunks[j], cchunks[j], node.kind)
            self.node_owner[nnid] = self.hash.module_of(("node", nnid))
            self.parent[nnid] = pid
            for child in cchunks[j]:
                self.parent[child] = nnid
            pnode.fences.insert(pos + j, fchunks[j][0])
            pnode.children.insert(pos + j, nnid)
            changed.add(nnid)
        if pid is not None:
            changed.add(pid)
            cascade.add(pid)

    def _split_root(self, changed: Set[int]) -> None:
        root = self.root
        self.machine.cpu.charge(float(len(root.children)),
                                _log2(len(root.children)))
        fchunks = _chunks(root.fences, self.fanout)
        cchunks = _chunks(root.children, self.fanout)
        fences, children = [], []
        for fch, cch in zip(fchunks, cchunks):
            nnid = self._new_id()
            self.nodes[nnid] = _Node(fch, cch, root.kind)
            self.node_owner[nnid] = self.hash.module_of(("node", nnid))
            self.parent[nnid] = None
            for child in cch:
                self.parent[child] = nnid
            changed.add(nnid)
            fences.append(fch[0])
            children.append(nnid)
        self.root = _Node(fences, children, "node")
        self.height += 1

    # ------------------------------------------------------------------
    # public batched surface
    # ------------------------------------------------------------------

    def build(self, items: Sequence[Tuple[Hashable, Any]]) -> None:
        """Bulk-load sorted-deduplicated ``items`` into an empty tree."""
        if self.first_leaf is not None:
            raise ValueError("build requires an empty tree")
        run_batch(self.machine, f"{self.name}:build",
                  _build_route(self, items))

    def _read(self, reads: Sequence[Tuple[str, Sequence]]) -> List[list]:
        parts = [_READ_PARTS[op](self, payload) for op, payload in reads]
        suffix = parts[0].suffix if len(parts) == 1 else "batch_reads"
        return run_batch(self.machine, f"{self.name}:{suffix}",
                         _read_route(self, parts))

    def batch_get(self, keys: Sequence[Hashable]) -> List[Optional[Any]]:
        return self._read([("get", keys)])[0]

    def batch_successor(self, keys: Sequence[Hashable],
                        ) -> List[Optional[Tuple[Hashable, Any]]]:
        return self._read([("successor", keys)])[0]

    def batch_range(self, ops: Sequence[Tuple[Hashable, Hashable]],
                    ) -> List[List[Tuple[Hashable, Any]]]:
        return self._read([("range", ops)])[0]

    def batch_upsert(self, pairs: Sequence[Tuple[Hashable, Any]]) -> None:
        run_batch(self.machine, f"{self.name}:batch_upsert",
                  _upsert_route(self, pairs))

    def batch_delete(self, keys: Sequence[Hashable]) -> None:
        run_batch(self.machine, f"{self.name}:batch_delete",
                  _delete_route(self, keys))

    def apply_batch(self, op: str, payload: Sequence) -> Optional[list]:
        """Uniform batch dispatch (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_batch`)."""
        if op == "get":
            return self.batch_get(list(payload)) if payload else []
        if op == "successor":
            return self.batch_successor(list(payload)) if payload else []
        if op == "upsert":
            if payload:
                self.batch_upsert(list(payload))
            return None
        if op == "delete":
            if payload:
                self.batch_delete(list(payload))
            return None
        if op == "range":
            return self.batch_range(list(payload)) if payload else []
        raise ValueError(f"apply_batch: unknown op {op!r}")

    #: Classes whose batches share one tick's :meth:`apply_group` call:
    #: all three reads start with the same descent.
    TICK_GROUPS = (frozenset({"get", "successor", "range"}),)

    def apply_group(self, batches: Sequence[Tuple[str, Sequence]],
                    ) -> List[list]:
        """One tick's read batches in one call (contract: see
        :meth:`repro.core.skiplist.PIMSkipList.apply_group`; no group
        here holds a write): the non-empty ones descend once, as one
        op."""
        if not READ_OPS.issuperset(group_payloads(batches)):
            raise ValueError("apply_group: a PIM-tree group is reads only")
        live = [(op, list(payload)) for op, payload in batches if payload]
        results = iter(self._read(live) if live else ())
        return [next(results) if payload else [] for _, payload in batches]

    def check_integrity(self) -> None:
        """Assert the structural invariants, dumping module state:

        - the leaf chain covers every directory leaf exactly once, its
          concatenation is strictly increasing, per-leaf sizes match
          the directory, and the total matches ``self.size``;
        - every interior node's module copy equals the CPU mirror;
        - every module holds a shadow replica for exactly the promoted
          nodes, each equal to the mirror (a stale replica -- the
          ``pimtree_shadow_stale`` fault -- fails here).
        """
        run_batch(self.machine, f"{self.name}:check_integrity",
                  _integrity_route(self))


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------

def _build_route(tree: PIMTree, items: Sequence[Tuple[Hashable, Any]]):
    machine = tree.machine
    merged: Dict[Hashable, Any] = {}
    for k, v in items:
        merged[k] = v
    items = sorted(merged.items())
    n = len(items)
    if not items:
        return None
    machine.cpu.charge(n * _log2(n), _log2(n))
    fn = tree._fn
    msgs: List = []
    level: List[Tuple[Any, int]] = []  # (min key, id)
    prev: Optional[int] = None
    for chunk in _chunks(items, tree.leaf_size):
        lid = tree._new_id()
        owner = tree.hash.module_of(("leaf", lid))
        tree.leaf_owner[lid] = owner
        tree.leaf_len[lid] = len(chunk)
        tree.leaf_next[lid] = None
        if prev is None:
            tree.first_leaf = lid
        else:
            tree.leaf_next[prev] = lid
        prev = lid
        level.append((chunk[0][0], lid))
        msgs.append((owner, fn["lf_store"], (lid, tuple(chunk)),
                     None, max(1, len(chunk))))
    kind = "leaf"
    while len(level) > tree.fanout:
        up: List[Tuple[Any, int]] = []
        for chunk in _chunks(level, tree.fanout):
            nid = tree._new_id()
            node = _Node([f for f, _ in chunk], [c for _, c in chunk],
                         kind)
            tree.nodes[nid] = node
            tree.node_owner[nid] = tree.hash.module_of(("node", nid))
            for _, child in chunk:
                tree.parent[child] = nid
            up.append((chunk[0][0], nid))
            msgs.append((tree.node_owner[nid], fn["nd_store"],
                         (nid, tuple(node.fences), tuple(node.children),
                          node.kind), None, max(1, len(node.children))))
        level = up
        kind = "node"
        tree.height += 1
    tree.root = _Node([f for f, _ in level], [c for _, c in level],
                      kind)
    for _, child in level:
        tree.parent[child] = None
    tree.size = n
    yield msgs
    return None


class _KeysPart:
    """A point-key share of a read op: the distinct keys descend, and
    their answers fan back out to every position that asked."""

    def __init__(self, tree: PIMTree, keys: Sequence[Hashable]) -> None:
        self.tree = tree
        self.keys = keys

    def queries(self, machine) -> List[Hashable]:
        self.groups = group_positions(machine.cpu, self.keys)
        return sorted(self.groups)

    def empty(self) -> List[Optional[Any]]:
        return [None] * len(self.keys)

    def fan_out(self, machine, answers: Dict[Any, Any]) -> List[Any]:
        out = self.empty()
        for key, idxs in self.groups.items():
            for i in idxs:
                out[i] = answers[key]
        machine.cpu.charge(float(len(out)), _log2(len(out)))
        return out

    def hop(self, by_leaf: Dict[int, List[Any]], fn: str,
            echo: bool = False):
        """One leaf stage over ``{leaf: keys}``, leaves ascending: a
        group that reaches the leaf pull threshold pulls its leaf (a
        row), every other group's keys go to ``fn`` as one
        :class:`Columns` element -- ``(lid, key)``, and the key again as
        the query id when ``echo``.  Returns ``(stage, pulled)``,
        ``pulled`` holding each pulled leaf's keys."""
        tree = self.tree
        stage: List = []
        pulled: Dict[int, List[Any]] = {}
        dests: List[int] = []
        lids: List[int] = []
        keys: List[Any] = []
        for lid in sorted(by_leaf):
            grp = by_leaf[lid]
            if len(grp) >= tree.leaf_pull_threshold:
                stage.append((tree.leaf_owner[lid], tree._fn["lf_pull"],
                              (lid,), None))
                pulled[lid] = grp
                tree.stats["pull_msgs"] += 1
            else:
                dests.extend([tree.leaf_owner[lid]] * len(grp))
                lids.extend([lid] * len(grp))
                keys.extend(grp)
        if dests:
            stage.append(Columns(tree._fn[fn], dests,
                                 (lids, keys, keys) if echo else (lids, keys)))
            tree.stats["push_msgs"] += len(dests)
        return stage, pulled


def _by_leaf(pairs) -> Dict[int, List[Any]]:
    """``{leaf: [key, ...]}`` of ``(key, leaf)`` pairs, in pair order."""
    out: Dict[int, List[Any]] = {}
    for key, lid in pairs:
        grp = out.get(lid)
        if grp is None:
            out[lid] = [key]
        else:
            grp.append(key)
    return out


class _GetPart(_KeysPart):
    """Get's share of a read op: one leaf stage."""

    suffix = "batch_get"
    reply_kind = "lget"

    def leaves(self, machine, distinct, lids):
        tree = self.tree
        values: Dict[Any, Any] = {}
        by_leaf = _by_leaf(zip(distinct, lids))
        for lid in [lid for lid in by_leaf if tree.leaf_len.get(lid, 0) == 0]:
            for key in by_leaf.pop(lid):
                values[key] = None
        stage, pulled = self.hop(by_leaf, "lf_get")
        if stage:
            replies = yield stage
            for r in replies:
                if r.payload[0] == "lget":
                    values[r.payload[1]] = r.payload[2]  # None on a miss
                else:
                    _, lid, items = r.payload
                    probe_keys = pulled[lid]
                    machine.cpu.charge(
                        len(probe_keys) * max(1.0,
                                              math.log2(len(items) + 1)),
                        _log2(len(probe_keys)))
                    for key in probe_keys:
                        i = bisect.bisect_left(items, (key,))
                        hit = i < len(items) and items[i][0] == key
                        values[key] = items[i][1] if hit else None
        return self.fan_out(machine, values)


class _SuccessorPart(_KeysPart):
    """Successor's share of a read op: one leaf stage per hop along the
    leaf chain."""

    suffix = "batch_successor"
    reply_kind = "lsucc"

    def leaves(self, machine, distinct, lids):
        tree = self.tree
        found: Dict[Any, Optional[Tuple[Hashable, Any]]] = {}
        # key -> the leaf currently probed, in key order (``distinct`` is
        # sorted, and every hop keeps the order).
        pending: Dict[Any, int] = {}
        for key, lid in zip(distinct, lids):
            lid = tree._next_nonempty(lid)
            if lid is None:
                found[key] = None
            else:
                pending[key] = lid
        while pending:
            stage, pulled = self.hop(_by_leaf(pending.items()), "lf_succ",
                                     echo=True)
            replies = yield stage
            resolved: Dict[Any, Optional[Tuple[Hashable, Any]]] = {}
            for r in replies:
                if r.payload[0] == "lsucc":
                    _, key, hit = r.payload
                    resolved[key] = tuple(hit) if hit is not None else None
                else:
                    _, lid, items = r.payload
                    grp = pulled[lid]
                    machine.cpu.charge(
                        len(grp) * max(1.0, math.log2(len(items) + 1)),
                        _log2(len(grp)))
                    for key in grp:
                        i = bisect.bisect_left(items, (key,))
                        resolved[key] = (tuple(items[i]) if i < len(items)
                                         else None)
            nxt: Dict[Any, int] = {}
            for key, lid in pending.items():
                hit = resolved[key]
                if hit is not None:
                    found[key] = hit
                    continue
                # Every item here is < key; any later non-empty leaf's
                # minimum exceeds this leaf's range, so it answers.
                follow = tree._next_nonempty(tree.leaf_next.get(lid))
                if follow is None:
                    found[key] = None
                else:
                    nxt[key] = follow
            pending = nxt
        return self.fan_out(machine, found)


class _RangePart:
    """Range's share of a read op: every op's low key in, the chained
    leaf scans frontier-parallel (one stage per hop across all ops)."""

    suffix = "batch_range"
    reply_kind = "lscan"

    def __init__(self, tree: PIMTree,
                 ops: Sequence[Tuple[Hashable, Hashable]]) -> None:
        self.tree = tree
        self.ops = ops

    def queries(self, machine) -> List[Hashable]:
        return [lo for lo, _hi in self.ops]

    def empty(self) -> List[List[Tuple[Hashable, Any]]]:
        return [[] for _ in self.ops]

    def leaves(self, machine, _lows, lids):
        tree, ops = self.tree, self.ops
        fn_scan = tree._fn["lf_scan"]
        out = self.empty()
        # op index -> leaf currently scanned.
        active: Dict[int, int] = {}
        for i, lid in enumerate(lids):
            lid = tree._next_nonempty(lid)
            if lid is not None:
                active[i] = lid
        while active:
            idxs = sorted(active)
            scan_lids = [active[i] for i in idxs]
            tree.stats["push_msgs"] += len(idxs)
            replies = yield [Columns(
                fn_scan, [tree.leaf_owner[lid] for lid in scan_lids],
                (scan_lids, [ops[i][0] for i in idxs],
                 [ops[i][1] for i in idxs], idxs))]
            nxt: Dict[int, int] = {}
            for r in replies:
                _, i, lid, items, last = r.payload
                out[i].extend(tuple(p) for p in items)
                hi = ops[i][1]
                if last is None or last > hi:
                    continue
                follow = tree._next_nonempty(tree.leaf_next.get(lid))
                if follow is not None:
                    nxt[i] = follow
            active = nxt
        total = sum(len(rows) for rows in out)
        machine.cpu.charge(total + len(ops), _log2(total + len(ops)))
        return out


_READ_PARTS = {"get": _GetPart, "successor": _SuccessorPart,
               "range": _RangePart}


def _lockstep(parts: Sequence[Any], phases: Sequence):
    """Advance leaf-phase generators together, one shared stage per hop.

    Phase ``i`` is ``parts[i]``'s leaf phase.  Each phase yields its
    hop's stage and is sent back its own replies, in arrival order; a
    hop's stage is the phases' elements in phase order.  A row (a pull)
    is tagged with its phase's index, and its reply echoes the tag; a
    :class:`Columns` element passes through untagged, and its replies
    go to the phase whose ``reply_kind`` their payload names -- one
    phase at most, as a read group holds each read class at most once.
    Returns the phases' return values.  Used via ``yield from``.
    """
    results: List[Any] = [None] * len(phases)
    by_kind = {part.reply_kind: i for i, part in enumerate(parts)}
    # phase -> the replies it is owed (``None`` starts a generator)
    owed: Dict[int, Optional[List]] = dict.fromkeys(range(len(phases)))
    while True:
        stages: Dict[int, List] = {}
        for i, got in owed.items():
            try:
                stages[i] = phases[i].send(got)
            except StopIteration as stop:
                results[i] = stop.value
        if not stages:
            return results
        replies = yield [
            item if item.__class__ is Columns
            else (item[0], item[1], item[2], i)
            for i, stage in stages.items() for item in stage]
        owed = {i: [] for i in stages}
        for r in replies:
            owed[by_kind[r.payload[0]] if r.tag is None else r.tag].append(r)


def _read_route(tree: PIMTree, parts: Sequence[Any]):
    """Read batches -- one part each of Get / Successor / Range -- on one
    descent: the parts' queries route to their leaves together
    (:meth:`PIMTree._descend` over their union), then every part runs
    its leaf phase, a hop's stages shared (:func:`_lockstep`).  With one
    part this is that read op alone, named as it always was."""
    machine = tree.machine
    queries = [part.queries(machine) for part in parts]
    if tree.first_leaf is None:
        return [part.empty() for part in parts]
    target = yield from tree._descend(
        machine, [q for qs in queries for q in qs])
    phases, base = [], 0
    for part, qs in zip(parts, queries):
        phases.append(part.leaves(machine, qs, target[base:base + len(qs)]))
        base += len(qs)
    return (yield from _lockstep(parts, phases))


def _upsert_route(tree: PIMTree, pairs: Sequence[Tuple[Hashable, Any]]):
    machine = tree.machine
    merged: Dict[Hashable, Any] = {}
    for k, v in pairs:
        merged[k] = v
    machine.cpu.charge(2.0 * len(pairs), _log2(len(pairs)))
    if not merged:
        return None
    if tree.first_leaf is None:
        # Bootstrap: the first upsert bulk-loads the empty tree.
        yield from _build_route(tree, sorted(merged.items()))
        return None
    fn = tree._fn
    distinct = sorted(merged)
    target = yield from tree._descend(machine, distinct)
    by_leaf: Dict[int, List[Tuple[Hashable, Any]]] = {}
    for qid, key in enumerate(distinct):
        by_leaf.setdefault(target[qid], []).append((key, merged[key]))
    msgs = [(tree.leaf_owner[lid], fn["lf_write"],
             (lid, tuple(by_leaf[lid])), None,
             max(1, len(by_leaf[lid])))
            for lid in sorted(by_leaf)]
    replies = yield msgs
    oversize: List[int] = []
    for r in replies:
        _, lid, new_len = r.payload
        tree.size += new_len - tree.leaf_len[lid]
        tree.leaf_len[lid] = new_len
        if new_len > tree.leaf_size:
            oversize.append(lid)
    if oversize:
        replies = yield [(tree.leaf_owner[lid], fn["lf_pull"],
                          (lid,), None) for lid in sorted(oversize)]
        contents = {r.payload[1]: r.payload[2] for r in replies}
        store_msgs, _changed = tree._plan_splits(contents)
        yield store_msgs
    return None


def _delete_route(tree: PIMTree, keys: Sequence[Hashable]):
    machine = tree.machine
    groups = group_positions(machine.cpu, keys)
    if not groups or tree.first_leaf is None:
        return None
    fn = tree._fn
    distinct = sorted(groups)
    target = yield from tree._descend(machine, distinct)
    by_leaf: Dict[int, List[Hashable]] = {}
    for qid, key in enumerate(distinct):
        lid = target[qid]
        if tree.leaf_len.get(lid, 0) == 0:
            continue  # nothing to delete there
        by_leaf.setdefault(lid, []).append(key)
    msgs = [(tree.leaf_owner[lid], fn["lf_del"],
             (lid, tuple(by_leaf[lid])), None,
             max(1, len(by_leaf[lid])))
            for lid in sorted(by_leaf)]
    if msgs:
        replies = yield msgs
        for r in replies:
            _, lid, new_len, removed = r.payload
            tree.leaf_len[lid] = new_len
            tree.size -= removed
    return None


def _integrity_route(tree: PIMTree):
    machine, fn = tree.machine, tree._fn
    msgs: List = [(owner, fn["lf_pull"], (lid,), None)
                  for lid, owner in sorted(tree.leaf_owner.items())]
    msgs.extend((tree.node_owner[nid], fn["nd_pull"], (nid,), None)
                for nid in sorted(tree.nodes))
    msgs.append(Broadcast(fn["sh_dump"], (), None, 1))
    replies = yield msgs
    leaves: Dict[int, tuple] = {}
    nodes: Dict[int, tuple] = {}
    shadow_dumps: Dict[int, tuple] = {}
    for r in replies:
        if r.payload[0] == "lpull":
            leaves[r.payload[1]] = r.payload[2]
        elif r.payload[0] == "pull":
            _, nid, fences, children, kind = r.payload
            nodes[nid] = (fences, children, kind)
        else:
            _, mid, dump = r.payload
            shadow_dumps[mid] = dump
    # Leaf chain: complete, ordered, sizes exact, total exact.
    assert set(leaves) == set(tree.leaf_owner), \
        f"leaf dump {sorted(leaves)} != directory " \
        f"{sorted(tree.leaf_owner)}"
    seen: List[int] = []
    lid = tree.first_leaf
    prev_key = None
    total = 0
    while lid is not None:
        seen.append(lid)
        items = leaves[lid]
        assert len(items) == tree.leaf_len[lid], \
            f"leaf {lid}: {len(items)} items != directory " \
            f"{tree.leaf_len[lid]}"
        for k, _v in items:
            assert prev_key is None or k > prev_key, \
                f"leaf {lid}: key {k!r} <= predecessor {prev_key!r}"
            prev_key = k
        total += len(items)
        lid = tree.leaf_next[lid]
    assert sorted(seen) == sorted(tree.leaf_owner), \
        f"chain visits {sorted(seen)} != directory " \
        f"{sorted(tree.leaf_owner)}"
    assert total == tree.size, \
        f"{total} chained items != size {tree.size}"
    # Interior module copies match the CPU mirror.
    assert set(nodes) == set(tree.nodes), \
        f"node dump {sorted(nodes)} != mirror {sorted(tree.nodes)}"
    for nid, (fences, children, kind) in nodes.items():
        mirror = tree.nodes[nid]
        assert (list(fences) == list(mirror.fences)
                and list(children) == list(mirror.children)
                and kind == mirror.kind), \
            f"node {nid}: module copy {fences}/{children}/{kind} != " \
            f"mirror {mirror.fences}/{mirror.children}/{mirror.kind}"
    # Shadow replicas: present on every module, none stray, each
    # bit-equal to the mirror.
    for mid in range(machine.num_modules):
        dump = dict()
        for nid, fences, children, kind in shadow_dumps.get(mid, ()):
            dump[nid] = (fences, children, kind)
        assert set(dump) == set(tree.shadows), \
            f"module {mid}: shadow set {sorted(dump)} != promoted " \
            f"{sorted(tree.shadows)}"
        for nid, (fences, children, kind) in dump.items():
            mirror = tree.nodes[nid]
            assert (list(fences) == list(mirror.fences)
                    and list(children) == list(mirror.children)
                    and kind == mirror.kind), \
                f"module {mid}: stale shadow of node {nid}: " \
                f"{fences}/{children} != mirror " \
                f"{mirror.fences}/{mirror.children}"
    return None
