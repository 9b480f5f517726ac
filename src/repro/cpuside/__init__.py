"""CPU-side parallel substrate.

The paper's batched algorithms rely on a handful of shared-memory parallel
primitives with known work/depth bounds in the binary-forking model it
cites (Blelloch et al. [9]):

- parallel map / filter / reduce / scan (:mod:`repro.cpuside.primitives`);
- comparison sorting with ``O(n log n)`` expected work and ``O(log n)``
  whp depth (:mod:`repro.cpuside.sort`);
- semisorting / grouping by hash with ``O(n)`` expected work and
  ``O(log n)`` whp depth, used to deduplicate batches
  (:mod:`repro.cpuside.semisort`);
- randomized parallel list contraction with ``O(n)`` expected work and
  ``O(log n)`` whp depth, used by batched Delete to splice runs of deleted
  nodes out of the horizontal linked lists
  (:mod:`repro.cpuside.list_contraction`; batched Delete builds its index
  columns itself and calls :func:`contract_rows`).

Each primitive *executes* the real computation (sequentially, in Python)
and *charges* the canonical work/depth of the parallel algorithm to the
machine's CPU-side accountant -- the same separation the paper's analysis
uses (real results, model costs).

Because the charge is a formula of ``n`` alone, how the host computes
the result is free to change.  The batch routes use the *index-stable*
forms, which do a generic primitive's work without a Python call per
key and charge exactly what it charges:

- :func:`sort_positions` -- the positions ``0..n-1`` ordered by their
  keys, ties by position: ``parallel_sort`` of ``range(n)`` keyed by
  ``(keys[i], i)``;
- :func:`group_positions` -- the positions of each distinct key, keys in
  first-occurrence order: ``group_by`` of ``range(n)`` keyed by
  ``keys[i]``;
- :func:`dedup_last` -- ``(key, value)`` pairs deduplicated, the last
  value winning: the last member of each ``group_by`` group.

The generic forms stay as the reference the property tests compare them
with (``tests/test_cpuside.py``).
"""

from repro.cpuside.list_contraction import contract_rows
from repro.cpuside.primitives import (
    pfilter,
    pflatten,
    pmap,
    preduce,
    pscan_exclusive,
    ppack,
)
from repro.cpuside.semisort import (
    dedup,
    dedup_last,
    group_by,
    group_positions,
    semisort,
)
from repro.cpuside.sort import merge_sorted, parallel_sort, sort_positions

__all__ = [
    "contract_rows",
    "dedup",
    "dedup_last",
    "group_by",
    "group_positions",
    "merge_sorted",
    "parallel_sort",
    "pfilter",
    "pflatten",
    "pmap",
    "ppack",
    "preduce",
    "pscan_exclusive",
    "semisort",
    "sort_positions",
]
