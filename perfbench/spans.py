"""Span recorder for the traced run.

Wraps public functions of the program from outside (no file under
``src/`` changes): each call becomes one span with a name, a start, an
end and the span that was open when it began.  Spans are kept in memory
as flat columns and folded into per-name totals by :meth:`fold`.

Self time is a span's duration minus the part of that interval its
child spans cover.  Children of one parent may overlap when they ran on
different threads (the cluster client's scatter-gather fan-out), so the
covered part is the union of the child intervals, not their sum.

Thread rule: a span opened on a thread with no open span of its own is
parented to the innermost open span of the thread that created the
recorder.  The load generator is one closed-loop caller, so the only
other threads are the fan-out branches of the call it is waiting on.
"""

from __future__ import annotations

import functools
import threading
from array import array
from time import perf_counter_ns

import numpy as np


class SpanRecorder:
    """In-memory span store with per-name folding."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        #: name -> [calls, total_ns, self_ns], accumulated over folds
        self.totals: dict[str, list[int]] = {}
        #: free-form counters recorded at the same boundaries
        self.counts: dict[str, float] = {}

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function or a class's plain
        method) by a span-recording wrapper.  ``on_result(recorder,
        result)`` runs after the call for counters taken from results."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        nid = self._name_id(name)
        rec = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = rec._stack()
            if stack:
                parent = stack[-1]
            elif rec._owner_stack:
                parent = rec._owner_stack[-1]
            else:
                parent = -1
            with rec._lock:
                ends = rec._end
                idx = len(ends)
                rec._name.append(nid)
                rec._parent.append(parent)
                rec._start.append(perf_counter_ns())
                ends.append(0)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                # the column this span started in, even if a fold has
                # since swapped in fresh ones
                ends[idx] = perf_counter_ns()
            if on_result is not None:
                on_result(rec, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        """Drop every span and total recorded so far (set-up traffic)."""
        self._clear()
        self.totals.clear()
        self.counts.clear()

    def _clear(self) -> None:
        self._name = array("H")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")

    # ------------------------------------------------------------ folding

    def fold(self, drop_open: bool = False) -> None:
        """Derive self times of the stored spans, add them to
        :attr:`totals` and drop the spans.  Call when no span is open
        (between requests or experiment runs); with ``drop_open`` spans
        still open are left out instead (server threads at teardown)."""
        with self._lock:
            columns = (self._name, self._parent, self._start, self._end)
            self._clear()
        n = len(columns[2])
        if n == 0:
            return
        name = np.frombuffer(columns[0], dtype=np.uint16)
        parent = np.frombuffer(columns[1], dtype=np.int64)
        start = np.frombuffer(columns[2], dtype=np.int64)
        end = np.frombuffer(columns[3], dtype=np.int64).copy()
        done = end != 0
        if not done.all():
            if not drop_open:
                raise RuntimeError("fold() called with spans still open")
            end = np.where(done, end, start)
        dur = end - start
        covered = child_coverage(parent, start, end, n)
        self_ns = dur - covered
        for nid in np.unique(name[done]):
            mask = (name == nid) & done
            slot = self.totals.setdefault(self.names[nid], [0, 0, 0])
            slot[0] += int(mask.sum())
            slot[1] += int(dur[mask].sum())
            slot[2] += int(self_ns[mask].sum())

    def calls(self, *names: str) -> int:
        """Total calls over ``names``."""
        return sum(self.totals.get(n, (0, 0, 0))[0] for n in names)

    def total_us(self, *names: str) -> float:
        """Summed duration over ``names`` in microseconds."""
        return sum(self.totals.get(n, (0, 0, 0))[1] for n in names) / 1e3

    def self_us(self, *names: str) -> float:
        """Summed self time over ``names`` in microseconds."""
        return sum(self.totals.get(n, (0, 0, 0))[2] for n in names) / 1e3

    def self_per_call_us(self, *names: str, per: str | None = None) -> float:
        """Self time of ``names`` per call of ``per`` (default: per call
        of ``names`` themselves); 0 when never called."""
        calls = self.calls(per) if per is not None else self.calls(*names)
        return self.self_us(*names) / calls if calls else 0.0

    def table(self) -> dict[str, dict[str, float]]:
        """Per-name totals for writing out."""
        return {n: {"calls": c, "total_us": t / 1e3, "self_us": s / 1e3}
                for n, (c, t, s) in sorted(self.totals.items())}


def child_coverage(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
                   n: int) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children are sorted by ``(parent, start)``; within one parent a
    running maximum of the earlier children's ends gives each child the
    part of its interval no earlier sibling covered.  Parents are kept
    apart by offsetting each group by more than the whole time range.
    """
    covered = np.zeros(n, dtype=np.int64)
    has_parent = (parent >= 0) & (parent < n)
    if not has_parent.any():
        return covered
    p = parent[has_parent]
    s = start[has_parent]
    e = end[has_parent]
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    base = min(int(start.min()), 0)
    span = int(end.max()) - base + 1
    group = np.cumsum(np.concatenate(([0], (np.diff(p) != 0).astype(np.int64))))
    offset = group * span
    s_off = s - base + offset
    e_off = e - base + offset
    prev_end = np.concatenate(([0], np.maximum.accumulate(e_off)[:-1]))
    gain = e_off - np.maximum(s_off, prev_end)
    np.add.at(covered, p, np.maximum(gain, 0))
    return covered
