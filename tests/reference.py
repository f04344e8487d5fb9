"""Quadratic references that the tests compare the package against.

Each is the direct, obviously correct phrasing of one decision the package
makes faster: crossing of two middle segments, positive-area overlap of two
rectangles, the crossing-graph edge list over all pairs, and a report-and-remove
store that scans every live segment.
"""

from __future__ import annotations

from rectilink.crossing import StoredSegment
from rectilink.geometry import Orientation, Rect


def crosses(a: StoredSegment, b: StoredSegment) -> bool:
    """Segments of opposite axes that cross (closed intervals on both sides)."""
    if a.axis is b.axis:
        return False
    return b.lo <= a.fixed <= b.hi and a.lo <= b.fixed <= a.hi


def rects_cross(a: Rect, b: Rect) -> bool:
    """Opposite orientations and positive-area intersection."""
    if a.orientation is b.orientation:
        return False
    return (
        min(a.xmax, b.xmax) > max(a.xmin, b.xmin)
        and min(a.ymax, b.ymax) > max(a.ymin, b.ymin)
    )


def edges_quadratic(rects, nh: int) -> list[tuple[int, int]]:
    """Crossing-graph edges (h, v) by direct area tests over all pairs, sorted."""
    edges = []
    for h in range(nh):
        for v in range(nh, len(rects)):
            if rects_cross(rects[h], rects[v]):
                edges.append((h, v))
    return edges


class ScanCrossingStore:
    """The contract of ``rectilink.crossing.CrossingStore``, by scanning every live segment."""

    def __init__(self, axis: Orientation):
        self.axis = axis
        self._live: dict[int, StoredSegment] = {}

    @classmethod
    def reset(cls, segments, axis: Orientation) -> "ScanCrossingStore":
        store = cls(axis)
        for seg in segments:
            if seg.axis is not axis:
                raise ValueError(f"segment axis {seg.axis} does not match store axis {axis}")
            if seg.owner in store._live:
                raise ValueError(f"duplicate owner id {seg.owner}")
            store._live[seg.owner] = seg
        return store

    def __len__(self) -> int:
        return len(self._live)

    def pop_crossing(self, query: StoredSegment) -> list[StoredSegment]:
        if query.axis is self.axis:
            raise ValueError("query must have the axis opposite to the store")
        popped = [seg for seg in self._live.values() if crosses(seg, query)]
        for seg in popped:
            del self._live[seg.owner]
        popped.sort(key=lambda s: (s.fixed, s.owner))
        return popped
