"""The batched-operation pipeline layer (plan/route/execute/aggregate).

See :mod:`repro.ops.pipeline` for the :class:`BatchOp` protocol and the
:func:`run_batch` driver that every batched op in the repository runs
through.
"""

from repro.ops.pipeline import (BatchOp, Broadcast, Columns, batch_epoch,
                                cached_handlers, run_batch)

__all__ = ["BatchOp", "Broadcast", "Columns", "batch_epoch",
           "cached_handlers", "run_batch"]
