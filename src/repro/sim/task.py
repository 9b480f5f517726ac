"""Tasks and messages.

A CPU core offloads work to a PIM core with a ``TaskSend`` instruction that
names a PIM-module id and a task (function id + arguments).  The network
routes the task to the module's queue.  Tasks specify where to put their
return value; in the simulator, return values come back to the CPU side as
:class:`Reply` objects from :meth:`repro.sim.machine.PIMMachine.step`.

Messages have a ``size`` in constant-size message units: the model's
messages carry a constant number of words, so a payload of ``k`` words is
accounted as ``k`` messages (used e.g. when a pivot search streams its
lower-part path back to shared memory).

The one value class here is :class:`Reply`, a plain ``__slots__`` class
rather than a dataclass: the round engine creates replies at very high
rates, and the per-instance dict plus dataclass machinery showed up as a
measurable share of simulator wall time.  Outgoing messages have no
value class: the engine stages them as chunks of ``(dest, args, tag,
size)`` rows (see :mod:`repro.sim.fastpath`).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

CPU_SIDE = -1
"""Pseudo module id for the CPU side (the shared memory)."""


class Reply:
    """A task's return value, written back to CPU-side shared memory.

    ``payload`` is the returned value, ``tag`` echoes the originating
    task's tag, and ``src`` is the module that produced the reply.

    A **column reply** answers a run of messages at once: ``src`` is the
    list of modules that replied, a row per message, and ``payload`` is
    the reply kind followed by one list per field, as long as ``src``.
    The PIM-tree's read kernels reply this way, one per kernel call, and
    so do the skip list's walk (a ``"done"`` and a ``"path"`` reply at
    most per body call; :func:`repro.core.ops_search.walk_columns` reads
    them) and its hash-shortcut point bodies.  Its rows are charged as
    the messages they are; only the host holds them together, and
    :func:`reply_rows` spells them out one by one.
    """

    __slots__ = ("payload", "tag", "src")

    def __init__(self, payload: Any, tag: Any = None,
                 src: int = CPU_SIDE) -> None:
        self.payload = payload
        self.tag = tag
        self.src = src

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Reply):
            return NotImplemented
        return (self.payload == other.payload and self.tag == other.tag
                and self.src == other.src)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Reply(payload={self.payload!r}, tag={self.tag!r}, "
                f"src={self.src})")


def reply_rows(replies: Iterable[Reply]) -> List[Tuple[Any, Any, Any]]:
    """Each reply as ``(src, tag, payload)`` rows, what one reply per
    message would read: a column reply (its ``src`` a list) expands
    into the rows it holds, ``(src[i], tag, (kind, col[i], ...))``, and
    any other reply is its one row.  A column reply whose columns are
    not as long as its ``src`` raises ``ValueError``."""
    rows: List[Tuple[Any, Any, Any]] = []
    for r in replies:
        src = r.src
        if src.__class__ is list:
            kind, *cols = r.payload
            if any(len(col) != len(src) for col in cols):
                raise ValueError(f"a column reply's columns are not as "
                                 f"long as its src: {r!r}")
            tag = r.tag
            rows.extend((mid, tag, (kind,) + row)
                        for mid, row in zip(src, zip(*cols)))
        else:
            rows.append((src, r.tag, r.payload))
    return rows
