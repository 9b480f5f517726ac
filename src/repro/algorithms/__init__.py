"""Additional PIM-model algorithms (the paper's future-work direction).

- :mod:`repro.algorithms.sorting` -- distributed sample sort across the
  PIM modules, plus the intro's "sorting up to M numbers without
  incurring any network communication" fast path.
- :mod:`repro.algorithms.pram` -- a Valiant-style PRAM emulation layer
  (§2.2): shared-memory cells hashed across modules, each PRAM step
  executed as gather-compute-scatter rounds.  Running algorithms through
  it quantifies the paper's argument that such emulations are
  "impractical because all accessed memory incurs maximal data
  movement".
- :mod:`repro.algorithms.bfs` -- level-synchronous BFS over a
  hash-distributed graph (one bulk-synchronous round per level).
"""

from repro.algorithms.bfs import PIMGraph
from repro.algorithms.pram import PRAMEmulation
from repro.algorithms.sorting import pim_sample_sort, sort_within_cache

__all__ = [
    "PIMGraph",
    "PRAMEmulation",
    "pim_sample_sort",
    "sort_within_cache",
]
