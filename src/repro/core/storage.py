"""The one inert name left of the skip list's second storage.

The linked :class:`~repro.core.node.Node` graph is the skip list's only
storage; there is nothing to select.  (DESIGN.md section 13 records what
the second one was and why it went.)
"""

#: Inert: read by nothing.  A second, array-backed storage used to be
#: selectable through this environment variable; setting it changes
#: nothing.  The name stays importable because the frozen end-to-end
#: benchmark (``benchmarks/e2e/bench_e2e.py``) imports it to report the
#: environment it ran in.
STORAGE_ENV_VAR = "REPRO_STRUCT_STORAGE"
