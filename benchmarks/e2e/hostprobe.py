"""A reference computation that says how fast the host is right now.

The sandbox this benchmark runs in is a few virtual CPUs of a shared
host, and the speed it gives a single-threaded Python program drifts by
tens of percent over seconds to minutes (no steal time shows; the same
instructions simply take longer).  Whole runs land in slow spells, so no
statistic taken over one run's own timings removes it (README, "Noise
floor"), and longer runs do not average it out (its autocorrelation is
still 0.3 after a minute).

What does cancel it is a reference measured *during* the run.  Every
``EVERY`` seconds of the run the benchmark stops the clock, runs one
``burst`` -- a fixed piece of interpreter work over a fixed heap of the
benchmark's own -- and starts the clock again.  The time spent in bursts
is taken out of every duration the benchmark reports, and the mean burst
time of a phase (its slowest fiftieth left out: a burst is under a
millisecond, and one 100 ms stall inside it would outweigh all the rest),
over the time a burst takes on the reference host (``NOMINAL_S``), is
that phase's ``slowdown``.  Host times are reported divided by it:
seconds *at the reference host's speed*.  A slow spell that stretches
the program by a fifth stretches the bursts by about as much, and the
quotient stays put.

The burst is pure Python over objects the repo's code never sees, so no
change to the program under test can move it; two commits measured with
the same benchmark files are divided by the same kind of number.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from typing import Callable, List

__all__ = ["HostProbe"]


class _Cell:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = 3 * key
        self.hits = 0

    def visit(self, x: int):
        self.hits += 1
        return self.key, self.value + x


class HostProbe:
    """See the module docstring.  The burst does what the program under
    test mostly does -- dictionary look-ups, method calls, attribute
    stores, small allocations.  About half its time goes on ``COLD``
    visits to random places of a heap (~35 MB) no cache holds, half on
    ``HOT`` visits to a corner of it the core's own cache does: a loud
    neighbour slows the two kinds of work differently, the program is a
    mixture of both, and the blend followed it better than either alone
    (README, "Noise floor")."""

    #: Mean burst time on the reference host: this sandbox in a calm
    #: minute.  Only fixes the scale; comparisons never depend on it.
    NOMINAL_S = 0.75e-3

    CELLS = 1 << 18
    COLD = 300         # visits per burst anywhere in the heap ...
    HOT = 1200         # ... and within its first HOT_CELLS cells
    HOT_CELLS = 1 << 10
    EVERY = 0.02       # seconds of run between bursts (~4 % of a run)

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        rng = random.Random(0)
        self.clock = clock
        self._index = {key: _Cell(key) for key in range(self.CELLS)}
        # Long enough that a cold cell comes round again only after
        # several seconds of run.
        self._cold = array("I", (rng.randrange(self.CELLS)
                                 for _ in range(self.COLD << 9)))
        self._hot = array("I", (rng.randrange(self.HOT_CELLS)
                                for _ in range(self.HOT << 4)))
        self._at = 0
        self.samples: List[float] = []  # seconds per burst, oldest first
        self.spent = 0.0                # seconds inside bursts so far
        self.due = 0.0                  # clock time the next burst is due

    def burst(self) -> None:
        """One sample.  Garbage collection is held off while it runs: a
        full collection landing inside a millisecond sample would be the
        program's cost showing up in the yardstick."""
        index = self._index
        at = self._at
        self._at = at + 1
        cold = at % (len(self._cold) // self.COLD) * self.COLD
        hot = at % (len(self._hot) // self.HOT) * self.HOT
        keys = (self._cold[cold:cold + self.COLD]
                + self._hot[hot:hot + self.HOT])
        collecting = gc.isenabled()
        gc.disable()
        start = self.clock()
        seen = [index[key].visit(key) for key in keys]
        tally = {}
        for key, value in seen:
            tally[key & 255] = value
        end = self.clock()
        if collecting:
            gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self.due = end + self.EVERY

    def slowdown(self, since: int = 0) -> float:
        """Mean burst time of ``samples[since:]``, the slowest fiftieth
        left out, over the nominal.  The few-millisecond preemptions
        that hit some bursts stay in: the program is hit by them at the
        same rate, and leaving them out under-corrected loud spells."""
        taken = sorted(self.samples[since:])
        kept = taken[:len(taken) - len(taken) // 50]
        return sum(kept) / len(kept) / self.NOMINAL_S
