"""In-memory span recording and self-time arithmetic for the traced run.

A span is one call across a layer boundary: its name, start and end
(``perf_counter_ns``), the span that was open when it started (its
parent) and the benchmark op it belongs to.  Spans are kept in flat
typed arrays, so a traced run of a few million spans stays small, and
are written out once when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children of one parent may overlap each other or
stick out of the parent; only the union of their intervals, clipped to the
parent, is subtracted.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["SpanRecorder", "self_times", "name_seconds"]


class SpanRecorder:
    """Spans of one traced run, kept as columns until :meth:`columns`."""

    def __init__(self):
        #: span-name table: ``layer:name`` per name id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self._stack: List[int] = []
        #: op id stamped on spans opened now; -1 outside any op
        self.op_id = -1

    def name(self, layer: str, name: str) -> int:
        """Id of span name ``layer:name`` (registered on first use)."""
        key = f"{layer}:{name}"
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def enter(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as NumPy columns (copies; the recorder stays usable)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span plus the name table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Self time of every span, in the units of ``start``/``end``.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Integer inputs give exact integer results.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    children = np.flatnonzero(parent >= 0)
    if children.size == 0:
        return duration
    # children grouped by parent, each group ordered by start
    children = children[np.lexsort((start[children], parent[children]))]
    owner = parent[children]
    lo = np.maximum(start[children], start[owner])
    hi = np.maximum(np.minimum(end[children], end[owner]), lo)
    # Shift each group into its own disjoint time window, so one running
    # maximum over all groups never carries an end across a group boundary.
    base = int(start.min())
    width = int(max(end.max(), start.max())) - base + 1
    group = np.cumsum(np.r_[0, owner[1:] != owner[:-1]])
    shift = group * width - base
    lo = lo + shift
    hi = hi + shift
    reach = np.maximum.accumulate(hi)
    before = np.r_[np.iinfo(np.int64).min, reach[:-1]]
    covered = hi - np.maximum(lo, before)
    np.maximum(covered, 0, out=covered)
    cover = np.zeros(start.size, dtype=np.int64)
    np.add.at(cover, owner, covered)
    return duration - cover


def name_seconds(cols: Dict[str, np.ndarray], names: Sequence[str],
                 own: bool = False) -> Dict[str, float]:
    """Seconds per span name (self time with ``own``, else duration) over
    the spans that belong to an op."""
    ns = (self_times(cols["start"], cols["end"], cols["parent"]) if own
          else cols["end"] - cols["start"])
    in_op = cols["op"] >= 0
    by_name = np.bincount(cols["name_id"][in_op], weights=ns[in_op],
                          minlength=len(names))
    return {name: float(by_name[nid]) * 1e-9 for nid, name in enumerate(names)}
