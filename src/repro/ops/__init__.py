"""The batched-operation pipeline: an op is a name and a route generator.

See :mod:`repro.ops.pipeline` for the route protocol and the
:func:`run_batch` driver that every batched op in the repository runs
through.
"""

from repro.ops.pipeline import (Broadcast, Columns, backoff_rounds,
                                batch_epoch, collector_paused, run_batch)

__all__ = ["Broadcast", "Columns", "backoff_rounds", "batch_epoch",
           "collector_paused", "run_batch"]
