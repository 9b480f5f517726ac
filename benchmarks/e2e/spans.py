"""Outside-in span recorder for the traced benchmark run.

The benchmark wraps the public entry points of each layer *on the live
instances* (``server.admission.admit``, ``machine.drain``, ...) so that
every call becomes a span: name, start, end, parent, and the scheduler
tick (or batch index) it belongs to.  Nothing under ``src/`` changes,
other instances of the same classes are untouched, and an untraced run
installs nothing.

A layer's **self time** is its span's duration minus the part covered
by child spans.  Spans nest strictly (every wrapped entry point is a
synchronous call), so a parent stack is enough: when a span closes, its
duration is added to its parent's child time, and each interval of the
timed phase is charged to exactly one name.  Summing every self time
and the un-spanned remainder therefore gives the wall time exactly.

The interpreter's full garbage collections are timed too
(``gc.callbacks``), as an overlay: a collection lands inside whichever
span happened to be open and is part of that span's time.
"""

from __future__ import annotations

import gc
import json
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Recorder", "Total"]


class Total:
    """Per-name aggregate: call count, inclusive seconds, self seconds."""

    __slots__ = ("n", "inclusive", "self_s")

    def __init__(self) -> None:
        self.n = 0
        self.inclusive = 0.0
        self.self_s = 0.0


class Recorder:
    """Record spans around wrapped calls; see the module docstring.

    ``tick`` is the shared identifier stamped on every span: the serve
    workloads set it to the scheduler tick of the batch being executed,
    the batch workloads to the batch index.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.tick = 0
        self.totals: Dict[str, Total] = {}
        #: Kept spans: ``(id, parent id or -1, name, start, end, tick)``.
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.root_s = 0.0  # summed duration of parentless spans
        self.gc_full_n = 0   # full (generation 2) collections ...
        self.gc_full_s = 0.0  # ... and the time inside them
        self._gc_start = 0.0
        self._stack: List[list] = []  # open spans: [id, child seconds]
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any]] = []
        self._reclassed: Dict[int, type] = {}  # id(instance) -> subclass

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up's spans)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.totals.clear()
        self.spans.clear()
        self.root_s = 0.0
        self.gc_full_n = 0
        self.gc_full_s = 0.0
        self._next_id = 0

    # -- recording --------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             keep: bool = True, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span named ``name``.

        The span closes even when ``fn`` raises.  ``keep=False``
        aggregates the span into :attr:`totals` without storing it
        (per-request spans would dwarf the batch-level ones).
        """
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = Total()
            total.n += 1
            total.inclusive += duration
            total.self_s += duration - frame[1]
            if parent is None:
                self.root_s += duration
            else:
                parent[1] += duration
            if keep:
                self.spans.append(
                    (span_id, -1 if parent is None else parent[0], name,
                     start, end, self.tick))

    def watch_gc(self) -> None:
        """Time full collections until :meth:`uninstall`."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if info["generation"] == 2:
            if phase == "start":
                self._gc_start = self.clock()
            else:
                self.gc_full_n += 1
                self.gc_full_s += self.clock() - self._gc_start

    # -- instance-level wrappers -----------------------------------------

    def wrap(self, owner: Any, attr: str,
             name: Union[str, Callable[..., str]], *,
             keep: bool = True) -> None:
        """Make calls of ``owner.attr(...)`` spans, on this ``owner`` only.

        ``name`` is the span name, or a function of the call's arguments
        (without ``self``) returning it.  :meth:`uninstall` undoes it.
        """
        original = getattr(type(owner), attr)
        call = self.call
        if callable(name):
            namer = name

            def method(self_: Any, *args: Any, **kwargs: Any) -> Any:
                return call(namer(*args, **kwargs), original, self_, *args,
                            keep=keep, **kwargs)
        else:
            def method(self_: Any, *args: Any, **kwargs: Any) -> Any:
                return call(name, original, self_, *args, keep=keep, **kwargs)
        self.override(owner, attr, method)

    def override(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`.

        A module attribute or an attribute the instance already holds is
        simply reassigned.  A *method* is overridden in a subclass made
        for this one instance (``owner.__class__`` is switched to it,
        ``replacement`` takes ``self``): adding a new key to an
        instance's ``__dict__`` instead would cost CPython its inline
        attribute caches for that object -- measured at +17 % on the
        round engine's hot loop, which is not an overhead a tracer may
        add to the layer it is timing.
        """
        if isinstance(owner, types.ModuleType) or attr in vars(owner):
            self._installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
            return
        traced = self._reclassed.get(id(owner))
        if traced is None:
            base = type(owner)
            traced = type("Traced" + base.__name__, (base,), {})
            self._reclassed[id(owner)] = traced
            self._installed.append((owner, "__class__", base))
            owner.__class__ = traced
        setattr(traced, attr, replacement)

    def uninstall(self) -> None:
        """Undo every :meth:`wrap` / :meth:`override`, newest first, and
        :meth:`watch_gc`."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._installed:
            owner, attr, previous = self._installed.pop()
            setattr(owner, attr, previous)
        self._reclassed.clear()

    # -- reading ------------------------------------------------------------

    def total(self, name: str) -> Total:
        return self.totals.get(name) or Total()

    def self_sum(self) -> float:
        """Σ self time over every name (equals :attr:`root_s`)."""
        return sum(t.self_s for t in self.totals.values())

    def write_jsonl(self, path: str, origin: float,
                    header: Optional[dict] = None) -> None:
        """Write the kept spans, one JSON object per line, times in
        seconds relative to ``origin`` (the start of the timed phase)."""
        with open(path, "w") as f:
            if header is not None:
                f.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end, tick in self.spans:
                f.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "tick": tick}) + "\n")
