"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around each call it makes
into a quadmodel layer and around every call of the callables it hands to
the simulators; nothing inside the program is patched. A span holds a name,
start and end (perf_counter_ns), the index of the enclosing span and the id
of the operation it belongs to. Spans stay in memory in flat arrays and are
exported once, when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns

import numpy as np

SETUP_OP = -1   # spans recorded while the workload is set up
PROBE_OP = -2   # spans of the layer probe (workerops.probe) use this id and below


class NullTracer:
    """Untraced runs: calls go straight through, callables stay unwrapped."""

    enabled = False
    op = SETUP_OP

    def call(self, name, fn, *args):
        return fn(*args)

    def wrap(self, name, fn):
        return fn


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.ops = array("i")
        self._stack: list[int] = []
        self.op = SETUP_OP

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn):
        call = self.call
        return lambda *args: call(name, fn, *args)

    def export(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.ops, dtype=np.int32).copy(),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover. Overlapping children are merged first, and the parts of a
    child outside its parent's interval are not subtracted."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0, 0
    for i in order.tolist():
        p = int(parent[i])
        s, e = max(int(start[i]), int(start[p])), min(int(end[i]), int(end[p]))
        if e <= s:
            continue
        if p != cur:
            if cur >= 0:
                covered[cur] += hi - lo
            cur, lo, hi = p, s, e
        elif s > hi:
            covered[cur] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] += hi - lo
    return (end - start) - covered
