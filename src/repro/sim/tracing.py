"""Execution tracing: per-round access counts and round logs.

The contention argument at the heart of the paper's pivot-based Successor
algorithm (Lemma 4.2: *no node is accessed more than 3 times in each phase
of stage 1*) is a statement about per-round access multiplicity.  The
simulator can record, for every bulk-synchronous round, how many tasks
touched each traced object, so tests and benchmarks can verify the lemma
directly and exhibit the Θ(batch) contention of the naive algorithm.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import (Hashable, Iterator, List, Sequence, Tuple, Union,
                    overload)


@dataclass
class RoundLog:
    """Accounting for one bulk-synchronous round."""

    # ``dataclass(slots=True)`` spelled by hand: pyproject still admits
    # python 3.9, which lacks the keyword.  No field has a default, so
    # the explicit tuple is all the decorator would have generated.
    __slots__ = ("index", "h", "messages", "pim_work_max", "tasks_executed")

    index: int
    h: int
    messages: int
    pim_work_max: float
    tasks_executed: int


class AccessTrace:
    """Records per-round access counts for traced objects.

    Batch bodies call :meth:`repro.sim.fastpath.BatchRound.touch` with a
    hashable object key; the trace accumulates a ``Counter`` per round.
    Tracing is enabled via ``MachineConfig(trace_accesses=True)``; when
    disabled, nothing is recorded and no memory is used.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._rounds: List[Counter] = []
        self._current: Counter = Counter()

    def touch(self, obj: Hashable, count: int = 1) -> None:
        """Record ``count`` accesses to ``obj`` in the current round."""
        if self.enabled:
            self._current[obj] += count

    def end_round(self) -> None:
        """Seal the current round's counter (called by the machine)."""
        if self.enabled:
            self._rounds.append(self._current)
            self._current = Counter()

    # -- queries --------------------------------------------------------

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    def round_counter(self, i: int) -> Counter:
        """Access counter for round ``i`` (0-indexed)."""
        return self._rounds[i]

    def max_contention_per_round(self) -> List[int]:
        """For each round, the maximum access count on any single object."""
        return [max(c.values()) if c else 0 for c in self._rounds]

    def max_contention(self, start_round: int = 0, end_round: int = None) -> int:
        """Max per-object access count over rounds ``[start, end)``."""
        per_round = self.max_contention_per_round()[start_round:end_round]
        return max(per_round) if per_round else 0

    def total_accesses(self) -> Counter:
        """Aggregate access counts over all rounds."""
        total: Counter = Counter()
        for c in self._rounds:
            total.update(c)
        return total

    def reset(self) -> None:
        self._rounds = []
        self._current = Counter()


class RoundLogView(Sequence[RoundLog]):
    """Read-only sequence over a :class:`Tracer`'s round columns.

    Indexing, slicing and iteration materialize :class:`RoundLog`
    records on demand (a slice is a plain list of them); ``len`` and
    equality with any other sequence of ``RoundLog`` need no
    materialization beyond the comparison itself.  The view is live:
    rounds logged after it was taken show through it.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Tuple[array, ...]) -> None:
        self._columns = columns  # in RoundLog field order

    def __len__(self) -> int:
        return len(self._columns[0])

    @overload
    def __getitem__(self, i: int) -> RoundLog: ...

    @overload
    def __getitem__(self, i: slice) -> List[RoundLog]: ...

    def __getitem__(self, i: Union[int, slice],
                    ) -> Union[RoundLog, List[RoundLog]]:
        cells = [column[i] for column in self._columns]
        if isinstance(i, slice):
            return list(map(RoundLog, *cells))
        return RoundLog(*cells)

    def __iter__(self) -> Iterator[RoundLog]:
        return map(RoundLog, *self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RoundLogView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"RoundLogView({list(self)!r})"


class Tracer:
    """Aggregates the machine's trace state: round logs + access trace.

    Rounds live in five parallel typed columns -- 40 bytes a round and
    nothing the garbage collector tracks, so a long-running machine's
    log costs memory but no collection time.  :attr:`rounds` is the
    record-shaped view of them.
    """

    def __init__(self, trace_accesses: bool = False) -> None:
        self._index = array("q")
        self._h = array("q")
        self._messages = array("q")
        self._pim_work_max = array("d")
        self._tasks = array("q")
        self._columns = (self._index, self._h, self._messages,
                         self._pim_work_max, self._tasks)
        self.access = AccessTrace(enabled=trace_accesses)

    @property
    def rounds(self) -> RoundLogView:
        return RoundLogView(self._columns)

    def log_round(self, index: int, h: int, messages: int,
                  pim_work_max: float, tasks: int) -> None:
        self._index.append(index)
        self._h.append(h)
        self._messages.append(messages)
        self._pim_work_max.append(pim_work_max)
        self._tasks.append(tasks)
        self.access.end_round()

    def reset(self) -> None:
        for column in self._columns:
            del column[:]  # in place: views taken earlier stay live
        self.access.reset()
