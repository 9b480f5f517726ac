"""The pivot-free batched search on the paper's own structure (§4.2).

"PIM-imbalanced batch execution": send every query's search into the
structure at once, each stepping one node per round.  Correct -- but an
adversarial same-successor batch funnels all ``B = P log^2 P`` searches
through the same ``O(log P)`` lower-part nodes, so single nodes see
``Theta(B)`` contention, one module does ``Theta(B)`` of the work, and IO
time degenerates to ``Theta(B)`` (no parallelism).  The Fig. 3 / Lemma
4.2 benchmark contrasts this directly with the two-stage pivot algorithm.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.core.ops_search import search_message, walk_columns
from repro.core.structure import SkipListStructure
from repro.ops import run_batch


def _naive_route(sl: SkipListStructure, keys: Sequence[Hashable]):
    """One stage carrying every query; contention is the whole point."""
    replies = yield [search_message(sl, key, opid=i)
                     for i, key in enumerate(keys)]
    results: List[Optional[Tuple[Any, Any]]] = [None] * len(keys)
    (opids, preds, rights), _path = walk_columns(replies)
    for opid, pred, right in zip(opids, preds, rights):
        results[opid] = (pred, right)
    return results


def naive_batch_search(sl: SkipListStructure, keys: Sequence[Hashable]):
    """All searches at once, no pivots, no hints.  Returns (pred, right)
    pairs aligned with ``keys``."""
    return run_batch(sl.machine, f"{sl.name}:naive_batch_search",
                     _naive_route(sl, keys))


def naive_batch_successor(sl: SkipListStructure, keys: Sequence[Hashable],
                          ) -> List[Optional[Tuple[Hashable, Any]]]:
    """Successor semantics over :func:`naive_batch_search`."""
    out: List[Optional[Tuple[Hashable, Any]]] = []
    for key, (pred, right) in zip(keys, naive_batch_search(sl, keys)):
        if not pred.is_sentinel and pred.key == key:
            out.append((pred.key, pred.value))
        elif right is not None:
            out.append((right.key, right.value))
        else:
            out.append(None)
    return out
