"""Outside-in span tracer for the traced benchmark run.

Functions are wrapped from outside the program: each wrapper records one
span (name, start, end, parent) in memory, and nothing inside ``src/``
changes. A layer's self time is its span's duration minus the part of
that interval its child spans cover. Timed runs install no wrapper.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder.

    Spans are stored column-wise (name id, parent index, start, end) in
    typed arrays, so a pass with a million calls stays a few tens of MB.
    The parent of a span is the span open when it started, or -1.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop every recorded span in place, so installed wrappers keep working."""
        for col in (self.name_id, self.parent, self.start, self.end):
            del col[:]
        self._stack[:] = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def id_of(self, name: str) -> int:
        """Id of a span name, or -1 when no span of that name was declared."""
        return self._ids.get(name, -1)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` statement as one span."""
        idx = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self.intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        # The body inlines _open/_close: the wrapper runs on every call of
        # the hottest functions, so it avoids two extra Python calls.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Bind ``owner.attr`` to ``replacement`` until ``restore()``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans to an ``.npz`` file (names plus the four columns)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes below zero.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = [0.0] * start.size
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    cur, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p != cur:
            cur, reach = p, s[p]
        lo = max(s[i], reach)
        hi = min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.array(covered)


def nearest(parent, is_root) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self with ``is_root``; -1 if none."""
    parent = np.asarray(parent, dtype=np.int64)
    is_root = np.asarray(is_root, dtype=bool)
    out = np.where(is_root, np.arange(parent.size), -1)
    cur = np.where(is_root, -1, parent)
    live = cur >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        anc = cur[idx]
        hit = is_root[anc]
        out[idx[hit]] = anc[hit]
        cur[idx[hit]] = -1
        miss = idx[~hit]
        cur[miss] = parent[cur[miss]]
        live = cur >= 0
    return out
