"""Single-operation executions (the paper's per-§4 warm-up paragraphs).

Each point-operation section of the paper first describes how *one*
operation executes before giving the batched algorithm; these functions
implement exactly those descriptions, with their stated costs:

- :func:`get_one` / :func:`update_one` -- hash shortcut: O(1) messages,
  O(1) whp PIM work (§4.1);
- :func:`successor_one` / :func:`predecessor_one` -- the naive search:
  O(log n) whp PIM work, O(log P) whp messages (§4.2);
- :func:`upsert_one` / :func:`delete_one` -- delegate to the batched
  pipelines with a batch of one (§4.3/§4.4 describe the same steps; a
  singleton batch degenerates to them, minus the batch-only staging).

They are conveniences for interactive use and small tests; throughput
work should always be batched (that is the model's whole point).
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from repro.core import ops_delete, ops_upsert
from repro.core.ops_search import search_message, walk_columns
from repro.core.structure import SkipListStructure
from repro.ops import run_batch
from repro.sim.task import reply_rows


def _one_shot_route(msg):
    """A single-message op: one stage, its replies."""
    return (yield [msg])


def get_one(sl: SkipListStructure, key: Hashable) -> Optional[Any]:
    """Get(key) via the hash shortcut: exactly 2 messages."""
    msg = (sl.leaf_owner(key), f"{sl.name}:pt_get", (key,), None)
    [(_src, _tag, (_kind, _key, value))] = reply_rows(run_batch(
        sl.machine, f"{sl.name}:get_one", _one_shot_route(msg)))
    return value


def update_one(sl: SkipListStructure, key: Hashable, value: Any) -> bool:
    """Update(key, value); returns whether the key existed."""
    msg = (sl.leaf_owner(key), f"{sl.name}:pt_update", (key, value), None)
    [(_src, _tag, (_kind, _key, found))] = reply_rows(run_batch(
        sl.machine, f"{sl.name}:update_one", _one_shot_route(msg)))
    return found


def _search_one(sl: SkipListStructure, key: Hashable):
    msg = search_message(sl, key, opid=0)
    replies = run_batch(sl.machine, f"{sl.name}:search_one",
                        _one_shot_route(msg))
    (_, preds, rights), _path = walk_columns(replies)
    return (preds[0], rights[0]) if preds else (None, None)


def successor_one(sl: SkipListStructure, key: Hashable,
                  ) -> Optional[Tuple[Hashable, Any]]:
    """Successor(key): the naive single search from the root."""
    pred, right = _search_one(sl, key)
    if pred is None:
        return None
    if not pred.is_sentinel and pred.key == key:
        return (pred.key, pred.value)
    if right is not None:
        return (right.key, right.value)
    return None


def predecessor_one(sl: SkipListStructure, key: Hashable,
                    ) -> Optional[Tuple[Hashable, Any]]:
    """Predecessor(key): the naive single search from the root."""
    pred, _right = _search_one(sl, key)
    if pred is None or pred.is_sentinel:
        return None
    return (pred.key, pred.value)


def upsert_one(sl: SkipListStructure, key: Hashable, value: Any) -> bool:
    """Upsert(key, value); returns True when a new key was inserted."""
    stats = ops_upsert.batch_upsert(sl, [(key, value)])
    return stats.inserted == 1


def delete_one(sl: SkipListStructure, key: Hashable) -> bool:
    """Delete(key); returns whether the key existed."""
    stats = ops_delete.batch_delete(sl, [key])
    return stats.deleted == 1
