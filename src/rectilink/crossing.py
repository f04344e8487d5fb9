"""Report-and-remove store for orthogonal segment crossing queries.

A store holds axis-parallel segments of one axis.  ``pop_crossing`` takes a
segment of the opposite axis, returns every live stored segment crossing it
(closed-interval semantics on both sides) and removes them, so each segment is
reported at most once until ``restore`` puts it back.  :class:`CrossingStore`
is the one implementation; the engine ``diameter_fast`` builds one per axis
with ``reset`` and, after every round of queries, restores what the round
popped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from sortedcontainers import SortedList

from .geometry import Orientation

_LOW = float("-inf")
_HIGH = float("inf")


@dataclass(frozen=True)
class StoredSegment:
    """Segment at ``fixed`` on its axis, spanning ``[lo, hi]`` on the other."""

    axis: Orientation
    fixed: int
    lo: int
    hi: int
    owner: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"degenerate segment: lo={self.lo} >= hi={self.hi}")


class CrossingStore:
    """Segment tree over the interval axis with per-node orderings by fixed coordinate.

    Each segment lives in the O(log n) tree nodes covering its interval; a
    query walks the root-to-leaf path of its fixed coordinate and pops the
    matching fixed-coordinate range at every node.
    """

    def __init__(self, axis: Orientation):
        self.axis = axis
        self._coords: list[int] = []
        self._size = 0
        self._nodes: list[SortedList] = []
        self._live: dict[int, StoredSegment] = {}
        self._node_ids: dict[int, list[int]] = {}

    @classmethod
    def reset(cls, segments, axis: Orientation) -> "CrossingStore":
        """Fresh store of ``axis`` over ``segments`` (bulk build)."""
        segments = list(segments)
        store = cls(axis)
        store._coords = sorted({seg.lo for seg in segments} | {seg.hi for seg in segments})
        store._size = max(2 * len(store._coords) - 1, 0)
        store._nodes = [None] * (2 * store._size)
        store.restore(segments)
        return store

    def __len__(self) -> int:
        return len(self._live)

    def _leaf_of_coord(self, value: int) -> int:
        pos = bisect_left(self._coords, value)
        if pos == len(self._coords) or self._coords[pos] != value:
            raise ValueError(f"coordinate {value} is not an endpoint of the segments the store was built over")
        return 2 * pos

    def _cover(self, lo: int, hi: int) -> list[int]:
        left = self._leaf_of_coord(lo) + self._size
        right = self._leaf_of_coord(hi) + self._size + 1
        nodes = []
        while left < right:
            if left & 1:
                nodes.append(left)
                left += 1
            if right & 1:
                right -= 1
                nodes.append(right)
            left >>= 1
            right >>= 1
        return nodes

    def restore(self, segments) -> None:
        """Attach ``segments``, which the store was built over, so that queries report them again."""
        for seg in segments:
            if seg.axis is not self.axis:
                raise ValueError(f"segment axis {seg.axis} does not match store axis {self.axis}")
            if seg.owner in self._live:
                raise ValueError(f"duplicate owner id {seg.owner}")
            ids = self._cover(seg.lo, seg.hi)
            key = (seg.fixed, seg.owner)
            for node in ids:
                if self._nodes[node] is None:
                    self._nodes[node] = SortedList()
                self._nodes[node].add(key)
            self._live[seg.owner] = seg
            self._node_ids[seg.owner] = ids

    def pop_crossing(self, query: StoredSegment) -> list[StoredSegment]:
        """Return and remove every live segment crossing ``query``."""
        if query.axis is self.axis:
            raise ValueError("query must have the axis opposite to the store")
        if not self._coords or query.fixed < self._coords[0] or query.fixed > self._coords[-1]:
            return []
        pos = bisect_left(self._coords, query.fixed)
        if pos < len(self._coords) and self._coords[pos] == query.fixed:
            leaf = 2 * pos
        else:
            leaf = 2 * pos - 1
        node = leaf + self._size
        owners = []
        while node >= 1:
            bucket = self._nodes[node] if node < len(self._nodes) else None
            if bucket:
                hits = list(bucket.irange((query.lo, _LOW), (query.hi, _HIGH)))
                owners.extend(owner for _, owner in hits)
            node >>= 1
        popped = []
        for owner in owners:
            seg = self._live.pop(owner)
            key = (seg.fixed, seg.owner)
            for nid in self._node_ids.pop(owner):
                self._nodes[nid].remove(key)
            popped.append(seg)
        popped.sort(key=lambda s: (s.fixed, s.owner))
        return popped
