"""Quadratic references that the tests compare the package against.

Each is the direct, obviously correct phrasing of one decision the package
makes faster: crossing of two middle segments, positive-area overlap of two
rectangles, the crossing-graph edge list over all pairs, a report-and-remove
store that scans every live segment, the edge-scan engines as boolean
cover matrices, one byte per pair, and the matmul engines as products of
rows packed into Python integers, one set bit at a time.
"""

from __future__ import annotations

import numpy as np

from rectilink.crossing import StoredSegment
from rectilink.geometry import Orientation, Rect
from rectilink.graph import OrientedGraph


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
        store.restore(segments)
        return store

    def restore(self, segments) -> None:
        for seg in segments:
            if seg.axis is not self.axis:
                raise ValueError(f"segment axis {seg.axis} does not match store axis {self.axis}")
            if seg.owner in self._live:
                raise ValueError(f"duplicate owner id {seg.owner}")
            self._live[seg.owner] = seg

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


_EDGE_CHUNK = 512


def _edge_covers(graph: OrientedGraph, far: np.ndarray):
    """Chunks of edges against every edge: (first edge index, cover matrix).

    Edge (a, a') covers edge (b, b') when a-b and a'-b' are both far
    (straight) or a-b' and a'-b are (crossed).
    """
    edges = np.asarray(graph.edges)
    e0, e1 = edges[:, 0], edges[:, 1]
    for start in range(0, len(edges), _EDGE_CHUNK):
        a0, a1 = e0[start : start + _EDGE_CHUNK], e1[start : start + _EDGE_CHUNK]
        yield start, (far[np.ix_(a0, e0)] & far[np.ix_(a1, e1)]) | (far[np.ix_(a0, e1)] & far[np.ix_(a1, e0)])


def diameter_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Scan pairs of graph edges for two far pairs covering each other; return them as (i, i', j, j')."""
    for start, hit in _edge_covers(graph, far):
        if hit.any():
            r, c = np.argwhere(hit)[0]
            (i, ip), (j, jp) = graph.edges[[start + r, c]].tolist()
            return (i, ip, j, jp) if far[i, j] and far[ip, jp] else (i, ip, jp, j)
    return None


def radius_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int] | None:
    """For every edge, search an edge whose two far conditions both hold; return the first without one."""
    for start, hit in _edge_covers(graph, far):
        covered = hit.any(axis=1)
        if not covered.all():
            return tuple(graph.edges[start + int(np.argmin(covered))].tolist())
    return None


class BitMatrix:
    """Square boolean matrix with rows packed into Python integers."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: list[int], ncols: int):
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_bool(cls, array: np.ndarray) -> "BitMatrix":
        arr = np.asarray(array, dtype=bool)
        packed = np.packbits(arr, axis=1, bitorder="little")
        rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return cls(rows, arr.shape[1])


def bool_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Thresholded boolean product: output bit (i, j) set iff some k links them."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} columns vs {b.nrows} rows")
    out = []
    for row in a.rows:
        acc = 0
        bits = row
        while bits:
            low = bits & -bits
            acc |= b.rows[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return BitMatrix(out, b.ncols)


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _far_products(graph: OrientedGraph, far: np.ndarray) -> tuple[BitMatrix, BitMatrix, BitMatrix, BitMatrix]:
    """Crossing bits ``cross``, packed ``far``, ``mid = cross·far`` and ``prod = far·mid``.

    ``prod[i, i']`` is set iff some edge (j, j') has i-j and i'-j' far.
    """
    rows = [0] * graph.m
    for i, j in graph.edges.tolist():
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    cross = BitMatrix(rows, graph.m)
    far_bits = BitMatrix.from_bool(far)
    mid = bool_product(cross, far_bits)
    return cross, far_bits, mid, bool_product(far_bits, mid)


def diameter_matmul(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Boolean matrix-product phrasing of the diameter witness condition."""
    cross, far_bits, mid, prod = _far_products(graph, far)
    for i in range(graph.m):
        both = cross.rows[i] & prod.rows[i]
        if both:
            break
    else:
        return None
    ip = _lowest(both)
    bits = far_bits.rows[i]  # the lowest j far from i with mid[j, ip] set
    while not (mid.rows[_lowest(bits)] >> ip) & 1:
        bits &= bits - 1
    j = _lowest(bits)
    jp = _lowest(cross.rows[j] & far_bits.rows[ip])  # far is symmetric
    return (i, ip, j, jp)


def radius_matmul(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int] | None:
    """Boolean matrix-product phrasing of the radius witness condition."""
    cross, _, _, prod = _far_products(graph, far)
    for i in range(graph.m):
        missed = cross.rows[i] & ~prod.rows[i]
        if missed:
            ip = _lowest(missed)
            return (i, ip) if i < graph.nh else (ip, i)
    return None
