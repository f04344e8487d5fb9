"""Quadratic references that the tests compare the package against.

Each is the direct, obviously correct phrasing of one decision the package
makes faster: the parser one point and one edge at a time, the
decomposition sweep over one list of intervals bisected by key, the
all-pairs table as a scipy search from every rectangle, and as one from the
horizontal ones with the min-plus step as one ``np.minimum.reduceat`` over
the CSR groups of a block of vertical rectangles, its summary in one pass
over the table, the far relation packed from the table, the bit transpose
one byte per bit, the middle segments and overlay faces one
rectangle object at a time (and the crossing-store engine on those
segments, with the store of segment objects and per-node ``SortedList``s it
was written for), crossing of two middle segments, positive-area overlap of
two rectangles, the crossing-graph edge list over all pairs, a
report-and-remove store that scans every live segment, the edge-scan
engines as boolean cover matrices, one byte per pair, the matmul engines as
products of rows packed into Python integers, one set bit at a time, the
fallback over every pair of faces at once, the domain validator as per-line
pair loops and a dense horizontal-by-vertical contact matrix, and the
cut-grid oracle as its inside flags from one loop over the ring edges and a
fixpoint iteration of a turn-cost relaxation, one source at a time, with
its faces merged by a union-find over grid runs, and the random domain
generator with its flood fills and 3x3 scans one cell at a time.
"""

from __future__ import annotations

import functools
import json
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from sortedcontainers import SortedList

from rectilink import geometry, metrics
from rectilink.errors import InstanceFormatError, InvalidDomainError, OutsidePointError, UnknownChoiceError
from rectilink.generator import GenParams
from rectilink.geometry import COORD_LIMIT, SCALE, Domain, Orientation, Point, Rect, blocks
from rectilink.graph import Levels, OrientedGraph
from rectilink.metrics import FALLBACK, DiameterResult, RadiusResult, generic_pair_in_box
from rectilink.oracle import GridModel

DistanceMatrix = np.ndarray  # (m, m), entry = hop distance + 1


# The parser as it read each ring into a tuple of point tuples, one point at
# a time: the reference for every parse error's text and order.


@dataclass(frozen=True)
class Ring:
    """Closed rectilinear vertex loop; the edge after the last vertex wraps to the first."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self):
        """Yield directed edges (p, q)."""
        pts = self.vertices
        for k in range(len(pts)):
            yield pts[k], pts[(k + 1) % len(pts)]

    def signed_area2(self) -> int:
        """Twice the signed area (positive for counterclockwise)."""
        total = 0
        for (x1, y1), (x2, y2) in self.edges():
            total += x1 * y2 - x2 * y1
        return total

    def reversed(self) -> "Ring":
        return Ring(tuple(reversed(self.vertices)))


def domain_of(outer: Ring, holes) -> Domain:
    """The :class:`Domain` arrays of an outer ring and its holes, already oriented."""
    rings = [outer, *holes]
    vertices = np.array([v for r in rings for v in r.vertices], dtype=np.int64).reshape(-1, 2)
    return Domain(vertices, np.cumsum([0] + [len(r) for r in rings]))


def rings(domain: Domain) -> list[Ring]:
    """The domain's rings as :class:`Ring` objects, the outer one first."""
    s = domain.starts.tolist()
    return [Ring(tuple(map(tuple, domain.vertices[a:b].tolist()))) for a, b in zip(s[:-1], s[1:])]


class _SizedInt:
    """Stands in for an int past 256 bits in an echoed value: its size, not its digits."""

    def __init__(self, value: int):
        self.bits = value.bit_length()

    def __repr__(self) -> str:
        return f"<int of {self.bits} bits>"


def _sized(value):
    """``value`` with every int past 256 bits replaced by its size."""
    if isinstance(value, list):
        return [_sized(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_sized(v) for v in value)
    if isinstance(value, dict):
        return {_sized(k): _sized(v) for k, v in value.items()}
    if isinstance(value, int) and not isinstance(value, bool) and value.bit_length() > 256:
        return _SizedInt(value)
    return value


def echo(value) -> str:
    """The whole ``repr`` of ``value`` with its huge ints sized, cut to 80 characters and an ellipsis when longer."""
    text = repr(_sized(value))
    return text if len(text) <= 80 else text[:80] + "…"


def _parse_ring(obj, label: str) -> Ring:
    if not isinstance(obj, (list, tuple)) or len(obj) < 3:
        raise InstanceFormatError(f"{label}: expected a list of at least 3 points")
    pts = []
    for item in obj:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in item)
        ):
            raise InstanceFormatError(f"{label}: points must be [int, int] pairs, got {echo(item)}")
        x, y = item
        if abs(x) * SCALE > COORD_LIMIT or abs(y) * SCALE > COORD_LIMIT:
            raise InstanceFormatError(f"{label}: coordinate overflow at {echo(item)}")
        pts.append((x * SCALE, y * SCALE))
    if len(pts) > 1 and pts[0] == pts[-1]:  # tolerate explicitly closed rings
        pts.pop()
    if len(pts) < 4:
        raise InstanceFormatError(f"{label}: a rectilinear ring needs at least 4 vertices")
    ring = Ring(tuple(pts))
    for p, q in ring.edges():
        if p == q:
            raise InstanceFormatError(f"{label}: zero-length edge at {p}")
        if p[0] != q[0] and p[1] != q[1]:
            raise InstanceFormatError(f"{label}: non-rectilinear edge {p} -> {q}")
    return ring


def parse_domain(text) -> Domain:
    """Parse an instance document (JSON text or an already-decoded dict).

    Instance format: ``{"outer": [[x, y], ...], "holes": [[[x, y], ...], ...]}``
    with integer coordinates in any ring orientation.  Coordinates are doubled,
    the outer ring is normalized counterclockwise and holes clockwise.
    """
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except ValueError as exc:  # malformed, or an integer literal past the interpreter's digit limit
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = text
    if not isinstance(data, dict) or "outer" not in data:
        raise InstanceFormatError('instance must be an object with an "outer" ring')
    outer = _parse_ring(data["outer"], "outer")
    if outer.signed_area2() < 0:
        outer = outer.reversed()
    hole_objs = data.get("holes") or []
    if not isinstance(hole_objs, (list, tuple)):
        raise InstanceFormatError(f'"holes" must be a list of rings, got {echo(hole_objs)}')
    holes = []
    for k, ring_obj in enumerate(hole_objs):
        hole = _parse_ring(ring_obj, f"holes[{k}]")
        if hole.signed_area2() > 0:
            hole = hole.reversed()
        holes.append(hole)
    return domain_of(outer, holes)


# The decomposition sweep as it kept the open intervals in one list of
# [lo, hi, birth] lists, bisected with a key: the reference for every box
# and every sweep error's text.


def _sweep_rects(events):
    """Interval-set sweep shared by both decompositions.

    ``events`` are (coord, lo, hi, opens) with one boundary edge each,
    pre-sorted by coord.  Yields (lo, hi, birth, death) slabs.
    """
    intervals: list[list[int]] = []  # [lo, hi, birth], sorted by lo
    out = []
    for coord, lo, hi, opens in events:
        if opens:
            li = bisect_right(intervals, lo, key=lambda iv: iv[0]) - 1
            left = intervals[li] if li >= 0 and intervals[li][1] == lo else None
            ri = bisect_left(intervals, hi, key=lambda iv: iv[0])
            right = intervals[ri] if ri < len(intervals) and intervals[ri][0] == hi else None
            start = li if left is not None else li + 1
            stop = ri + 1 if right is not None else ri
            inside = left is None and li >= 0 and intervals[li][1] > lo  # the edge starts inside an interval
            if inside or stop - start != (left is not None) + (right is not None):  # or one starts inside the edge
                raise InvalidDomainError([f"sweep: opening edge [{lo}, {hi}] at {coord} overlaps the cross-section"])
            new_lo, new_hi = lo, hi
            if left is not None:
                out.append((left[0], left[1], left[2], coord))
                new_lo = left[0]
            if right is not None:
                out.append((right[0], right[1], right[2], coord))
                new_hi = right[1]
            intervals[start:stop] = [[new_lo, new_hi, coord]]
        else:
            li = bisect_right(intervals, lo, key=lambda iv: iv[0]) - 1
            if li < 0 or intervals[li][1] < hi:
                raise InvalidDomainError([f"sweep: closing edge [{lo}, {hi}] at {coord} matches no interval"])
            iv = intervals[li]
            out.append((iv[0], iv[1], iv[2], coord))
            pieces = []
            if iv[0] < lo:
                pieces.append([iv[0], lo, coord])
            if hi < iv[1]:
                pieces.append([hi, iv[1], coord])
            intervals[li : li + 1] = pieces
    if intervals:
        raise InvalidDomainError(["sweep: unterminated intervals (domain is not closed)"])
    return out


def opposite(orient: Orientation) -> Orientation:
    return Orientation.VERTICAL if orient is Orientation.HORIZONTAL else Orientation.HORIZONTAL


@functools.cache
def reference_table(graph: OrientedGraph) -> DistanceMatrix:
    """Undirected scipy search from every one of the m sources, over the edge list; read-only, once per graph."""
    h, v = graph.edges.T
    sparse = csr_matrix((np.ones(2 * graph.chi, dtype=np.uint8), (np.r_[h, v], np.r_[v, h])), shape=(graph.m, graph.m))
    dm = shortest_path(sparse, method="D", directed=False, unweighted=True).astype(np.uint16) + 1
    dm.flags.writeable = False
    return dm


def table_reduceat(graph: OrientedGraph, chunk: int) -> DistanceMatrix:
    """The table from a scipy search out of the horizontal sources, its transpose and one min-plus step."""
    m, nh = graph.m, graph.nh
    dm = np.empty((m, m), dtype=np.uint16)
    dm[:nh] = reference_table(graph)[:nh]
    dm[nh:, :nh] = dm[:nh, nh:].T
    # Horizontal neighbours grouped by vertical rectangle, as the min-plus step reads them.
    offset, neighbours = graph.indptr[nh:], graph.indices
    for a, b in blocks(offset, chunk):
        block = dm[neighbours[offset[a] : offset[b]], nh:]
        nearest = np.minimum.reduceat(block, offset[a:b] - offset[a], axis=0)
        dm[nh + a : nh + b, nh:] = nearest + 1
    np.fill_diagonal(dm, 1)
    return dm


@dataclass(frozen=True)
class TableSummary:
    ordiam: int
    orrad: int
    diam_pair: tuple[int, int]
    center_rect: int


def summarize_table(dm: DistanceMatrix) -> TableSummary:
    """Extremes of a distance table with witnesses, from one pass over it: the first maximum in row-major order."""
    row_max = dm.max(axis=1)
    i = int(np.argmax(row_max))
    return TableSummary(
        ordiam=int(row_max[i]),
        orrad=int(row_max.min()),
        diam_pair=(i, int(np.argmax(dm[i]))),
        center_rect=int(np.argmin(row_max)),
    )


def packed(far: np.ndarray) -> np.ndarray:
    """A boolean (m, m) far relation in the engines' layout: row x's column j at bit j of uint64 words."""
    m = len(far)
    bits = np.zeros((m, -(-m // 64)), dtype=np.uint64)
    bits.view(np.uint8)[:, : -(-m // 8)] = np.packbits(far, axis=1, bitorder="little")
    return bits


def unpacked(bits: np.ndarray) -> np.ndarray:
    """The boolean (m, m) far relation of packed words."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=len(bits), bitorder="little").view(bool)


def transpose_bits(bits: np.ndarray, ncols: int) -> np.ndarray:
    """The bit rows ``bits`` over ``ncols`` columns transposed: unpacked one byte per bit, ``.T``, packed into words."""
    out = np.zeros((ncols, -(-len(bits) // 64)), dtype=np.uint64)
    flat = np.unpackbits(bits.view(np.uint8), axis=1, count=ncols, bitorder="little")
    out.view(np.uint8)[:, : -(-len(bits) // 8)] = np.packbits(flat.T, axis=1, bitorder="little")
    return out


def levels_table(levels: Levels) -> DistanceMatrix:
    """The package's distances as a uint8 table, ``1 + sum of far(t)`` for ``t`` from 2 to the package's ordiam.

    ``dm[x, y]`` counts the thresholds it reaches, so every entry is exact.
    ``far(2)`` holds every pair but the diagonal, so the sum starts at 3.
    """
    m = levels.graph.m
    dm = np.full((m, m), 2, dtype=np.uint8)
    np.fill_diagonal(dm, 1)
    for t in range(3, levels.extreme("diameter")[0] + 1):
        dm += unpacked(levels.far(t))
    return dm


# The crossing store as segment objects in per-node ``SortedList``s, which
# ``diameter_fast`` below runs on.

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


def crosses(a: StoredSegment, b: StoredSegment) -> bool:
    """Segments of opposite axes that cross (closed intervals on both sides)."""
    if a.axis is b.axis:
        return False
    return b.lo <= a.fixed <= b.hi and a.lo <= b.fixed <= a.hi


def graph_rects(hdec, vdec) -> tuple[Rect, ...]:
    """The crossing graph's rectangles as objects: ``hdec``'s, then ``vdec``'s renumbered after them."""
    nh = len(hdec)
    return hdec.rects + tuple(Rect(nh + k, r.orientation, r.xmin, r.xmax, r.ymin, r.ymax) for k, r in enumerate(vdec.rects))


def middle_segment(rect: Rect) -> StoredSegment:
    """Axis-parallel segment joining the midpoints of the rectangle's short sides.

    Exact because all domain coordinates are doubled on ingest.  Two
    decomposition rectangles of opposite orientation overlap properly if and
    only if their middle segments cross.
    """
    if rect.orientation is Orientation.HORIZONTAL:
        return StoredSegment(
            axis=Orientation.HORIZONTAL,
            fixed=(rect.ymin + rect.ymax) // 2,
            lo=rect.xmin,
            hi=rect.xmax,
            owner=rect.id,
        )
    return StoredSegment(
        axis=Orientation.VERTICAL,
        fixed=(rect.xmin + rect.xmax) // 2,
        lo=rect.ymin,
        hi=rect.ymax,
        owner=rect.id,
    )


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


def crossings_quadratic(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``geometry.crossings`` by testing every (horizontal, vertical) pair, both intervals closed."""
    y, xlo, xhi = (h[:, k, None] for k in range(3))
    x, ylo, yhi = (v[None, :, k] for k in range(3))
    return np.argwhere((ylo <= y) & (y <= yhi) & (xlo <= x) & (x <= xhi))


class ScanCrossingStore:
    """The contract of ``rectilink.crossing.CrossingStore``, by scanning every segment not popped this round."""

    @classmethod
    def reset(cls, mids, owners) -> "ScanCrossingStore":
        store = cls()
        rows = np.asarray(mids).reshape(-1, 3).tolist()
        store._segments = {int(owner): tuple(mid) for owner, mid in zip(owners, rows)}
        for fixed, lo, hi in store._segments.values():
            if lo >= hi:
                raise ValueError(f"degenerate segment: lo={lo} >= hi={hi}")
        store._popped = set()
        return store

    def restore(self) -> None:
        self._popped = set()

    def pop_crossing(self, fixed: int, lo: int, hi: int) -> list[int]:
        popped = []
        for owner, (s_fixed, s_lo, s_hi) in self._segments.items():
            if owner not in self._popped and s_lo <= fixed <= s_hi and lo <= s_fixed <= hi:
                popped.append((s_fixed, owner))
        popped.sort()
        self._popped |= {owner for _, owner in popped}
        return [owner for _, owner in popped]


_EDGE_CHUNK = 512


def _edge_covers(graph: OrientedGraph, far: np.ndarray, combine=np.bitwise_or):
    """Chunks of edges against every edge: (first edge index, cover matrix).

    Edge (a, a') covers edge (b, b') when a-b and a'-b' are both far
    (straight) or a-b' and a'-b are (crossed); with ``combine`` set to
    ``np.bitwise_and``, when both pairs of pairs are.
    """
    edges = np.asarray(graph.edges)
    e0, e1 = edges[:, 0], edges[:, 1]
    for start in range(0, len(edges), _EDGE_CHUNK):
        a0, a1 = e0[start : start + _EDGE_CHUNK], e1[start : start + _EDGE_CHUNK]
        yield start, combine(far[np.ix_(a0, e0)] & far[np.ix_(a1, e1)], far[np.ix_(a0, e1)] & far[np.ix_(a1, e0)])


def diameter_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Scan pairs of graph edges for two far pairs covering each other; return them as (i, i', j, j')."""
    for start, hit in _edge_covers(graph, far):
        if hit.any():
            r, c = np.argwhere(hit)[0]
            (i, ip), (j, jp) = graph.edges[[start + r, c]].tolist()
            return (i, ip, j, jp) if far[i, j] and far[ip, jp] else (i, ip, jp, j)
    return None


def radius_edge_scan(graph: OrientedGraph, far: np.ndarray, combine=np.bitwise_or) -> tuple[int, int] | None:
    """For every edge, search an edge whose two far conditions both hold; return the first without one.

    ``combine`` is the cover test's: the engine's OR, or the fallback's AND.
    """
    for start, hit in _edge_covers(graph, far, combine):
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


def intersection_box(rects, a: int, b: int) -> tuple[int, int, int, int]:
    ra, rb = rects[a], rects[b]
    return (
        max(ra.xmin, rb.xmin),
        min(ra.xmax, rb.xmax),
        max(ra.ymin, rb.ymin),
        min(ra.ymax, rb.ymax),
    )


def overlay_faces(rects, edges: np.ndarray) -> list[tuple[int, int, int, int]]:
    """One face box per graph edge, in edge order, over the graph's rectangles as objects."""
    return [intersection_box(rects, h, v) for h, v in edges.tolist()]


def diameter_fast(graph: OrientedGraph, far: np.ndarray, rects) -> tuple[int, int, int, int] | None:
    """The crossing-store engine with its middle segments made one rectangle object at a time, on the object store."""
    mids = [middle_segment(r) for r in rects]
    stores = {
        orient: CrossingStore.reset([seg for seg in mids if seg.axis is orient], axis=orient)
        for orient in (Orientation.HORIZONTAL, Orientation.VERTICAL)
    }
    reverse: dict[int, list[int]] = defaultdict(list)
    provenance: dict[tuple[int, int], int] = {}
    for i in range(graph.m):
        far_ids = np.nonzero(far[i])[0]
        if not len(far_ids):
            continue
        store = stores[opposite(graph.orientation_of(int(far_ids[0])))]
        popped = []
        for j in far_ids:
            for seg in store.pop_crossing(mids[int(j)]):
                reverse[seg.owner].append(i)
                provenance[(i, seg.owner)] = int(j)
                popped.append(seg)
        store.restore(popped)
    for jp in sorted(reverse):
        by_orient: dict[Orientation, list[int]] = defaultdict(list)
        for i in reverse[jp]:
            by_orient[graph.orientation_of(i)].append(i)
        for orient in sorted(by_orient, key=lambda o: o.value):
            store = stores[opposite(orient)]
            popped = []
            for i in sorted(by_orient[orient]):
                for seg in store.pop_crossing(mids[i]):
                    ip = seg.owner
                    if far[ip, jp]:
                        return (i, ip, provenance[(i, jp)], jp)
                    popped.append(seg)
            store.restore(popped)
    return None


# The fallback as it enumerated every pair of faces at once, in chi x chi
# arrays (``overlay_faces`` here is the package's).


def _center(box: np.ndarray) -> Point:
    xmin, xmax, ymin, ymax = box.tolist()
    return ((xmin + xmax) // 2, (ymin + ymax) // 2)


def face_table(graph: OrientedGraph, dm: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of faces at once: the chi x chi four-way minima, 2 where two faces share a rectangle, and that mask."""
    hs, vs = graph.edges[:, 0], graph.edges[:, 1]
    values = np.minimum.reduce(
        [
            dm[np.ix_(hs, hs)],
            dm[np.ix_(hs, vs)],
            dm[np.ix_(vs, hs)],
            dm[np.ix_(vs, vs)],
        ]
    ).astype(np.int64)
    shared = (hs[:, None] == hs[None, :]) | (vs[:, None] == vs[None, :])
    values[shared] = 2
    return values, shared


def small_case_fallback(graph: OrientedGraph, dm: DistanceMatrix, which: str):
    """Exact diameter or radius by enumerating overlay faces.

    Covers the small oriented values the engines cannot decide: each face
    contributes one representative; face pairs sharing a rectangle are capped
    at 2, others use the four-way minimum.  The enumeration is exact for any
    oriented value, so no upper precondition is enforced.
    """
    if which not in ("diameter", "radius"):
        raise UnknownChoiceError(f"unknown fallback target {which!r} (choose from diameter, radius)")
    faces = metrics.overlay_faces(graph)
    values, shared = face_table(graph, dm)

    if which == "diameter":
        flat = int(np.argmax(values))
        a, b = divmod(flat, len(faces))
        value = max(2, int(values[a, b]))
        if a != b and not shared[a, b]:
            pair = (_center(faces[a]), _center(faces[b]))
            witness = tuple(graph.edges[[a, b]].ravel().tolist())
        else:
            biggest = int(np.argmax((faces[:, 1] - faces[:, 0]) * (faces[:, 3] - faces[:, 2])))
            pair = generic_pair_in_box(tuple(faces[biggest].tolist()))
            witness = tuple(graph.edges[biggest].tolist())
        return DiameterResult(value=value, pair=pair, witness_rects=witness, engine=FALLBACK)

    ecc = values.max(axis=1)
    best = int(np.argmin(ecc))
    return RadiusResult(
        value=max(2, int(ecc[best])),
        center=_center(faces[best]),
        witness=("face", tuple(graph.edges[best].tolist())),
        engine=FALLBACK,
    )


def _point_in_ring(p: Point, ring: Ring) -> bool:
    """Even-odd test; undefined for points on the ring itself."""
    px, py = p
    inside = False
    for (x1, y1), (x2, y2) in ring.edges():
        if x1 == x2 and (y1 > py) != (y2 > py):
            if x1 > px:
                inside = not inside
    return inside


def _edge_arrays(domain: Domain):
    """Split all boundary edges into horizontal and vertical arrays.

    Returns (h, v, h_meta, v_meta): h rows are (y, xlo, xhi), v rows are
    (x, ylo, yhi); meta rows are (ring index, edge index, ring length).
    """
    hs, vs, hm, vm = [], [], [], []
    for ri, ring in enumerate(rings(domain)):
        nverts = len(ring)
        for ei, (p, q) in enumerate(ring.edges()):
            if p[1] == q[1]:
                hs.append((p[1], min(p[0], q[0]), max(p[0], q[0])))
                hm.append((ri, ei, nverts))
            else:
                vs.append((p[0], min(p[1], q[1]), max(p[1], q[1])))
                vm.append((ri, ei, nverts))
    return (
        np.array(hs, dtype=np.int64).reshape(-1, 3),
        np.array(vs, dtype=np.int64).reshape(-1, 3),
        hm,
        vm,
    )


def validate(domain: Domain) -> tuple[str, ...]:
    """Check alternation, simplicity, hole containment and general position.

    Returns the violations found; none means the domain is safe for every
    downstream operation.
    """
    violations: list[str] = []
    all_rings = rings(domain)
    outer, holes = all_rings[0], all_rings[1:]

    for ri, ring in enumerate(all_rings):
        name = "outer" if ri == 0 else f"hole {ri - 1}"
        if len(ring) % 2 != 0:
            violations.append(f"alternation: {name} has an odd vertex count")
        axes = [("H" if p[1] == q[1] else "V") for p, q in ring.edges()]
        for k in range(len(axes)):
            if axes[k] == axes[(k + 1) % len(axes)]:
                violations.append(f"alternation: {name} has consecutive {axes[k]} edges at vertex {k + 1}")
                break

    # General position: vertices sharing a coordinate must be edge-joined.
    verts = []  # (x, y, ring, index)
    for ri, ring in enumerate(all_rings):
        for vi, (x, y) in enumerate(ring.vertices):
            verts.append((x, y, ri, vi))

    def adjacent(a, b) -> bool:
        if a[2] != b[2]:
            return False
        size = len(all_rings[a[2]])
        return (a[3] - b[3]) % size in (1, size - 1)

    for axis, key in (("x", 0), ("y", 1)):
        groups: dict[int, list] = {}
        for v in verts:
            groups.setdefault(v[key], []).append(v)
        for coord, group in groups.items():
            if len(group) == 2 and adjacent(group[0], group[1]):
                continue
            if len(group) > 1:
                violations.append(
                    f"general position: {len(group)} vertices share {axis}={coord // SCALE}"
                    " without being joined by an edge"
                )

    h, v, hm, vm = _edge_arrays(domain)

    # Horizontal/horizontal and vertical/vertical contacts (only possible when
    # two edges share a supporting line).
    for arr, meta, axis in ((h, hm, "horizontal"), (v, vm, "vertical")):
        by_line: dict[int, list[int]] = {}
        for idx in range(len(arr)):
            by_line.setdefault(int(arr[idx, 0]), []).append(idx)
        for line, idxs in by_line.items():
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    ia, ib = idxs[a], idxs[b]
                    if arr[ia, 1] <= arr[ib, 2] and arr[ib, 1] <= arr[ia, 2]:
                        violations.append(f"simplicity: two {axis} edges touch on line {line // SCALE}")

    # Horizontal/vertical contacts: allowed only at the shared corner of two
    # consecutive edges of one ring.
    if len(h) and len(v):
        hy = h[:, 0][:, None]
        hx1 = h[:, 1][:, None]
        hx2 = h[:, 2][:, None]
        vx = v[:, 0][None, :]
        vy1 = v[:, 1][None, :]
        vy2 = v[:, 2][None, :]
        touching = (hx1 <= vx) & (vx <= hx2) & (vy1 <= hy) & (hy <= vy2)
        for ia, ib in zip(*np.nonzero(touching)):
            ra, ea, na = hm[ia]
            rb, eb, nb = vm[ib]
            if ra == rb and (ea - eb) % na in (1, na - 1):
                continue
            violations.append(
                f"simplicity: edge contact between a horizontal edge of ring {ra}"
                f" and a vertical edge of ring {rb}"
            )

    # Hole containment and hole/hole nesting (touching is caught above).
    for hi, hole in enumerate(holes):
        probe = hole.vertices[0]
        if not _point_in_ring(probe, outer):
            violations.append(f"containment: hole {hi} is not inside the outer ring")
        for hj, other in enumerate(holes):
            if hi != hj and _point_in_ring(probe, other):
                violations.append(f"containment: hole {hi} lies inside hole {hj}")

    return tuple(violations)


def build_grid(domain: Domain) -> GridModel:
    """Cut grid with exact inside flags (2D parity of vertical-edge crossings)."""
    all_rings = rings(domain)
    xs = np.array(sorted({x for ring in all_rings for x, _ in ring.vertices}), dtype=np.int64)
    ys = np.array(sorted({y for ring in all_rings for _, y in ring.vertices}), dtype=np.int64)
    ncols, nrows = len(xs) - 1, len(ys) - 1
    delta = np.zeros((nrows + 1, ncols + 1), dtype=np.int64)
    for ring in all_rings:
        for p, q in ring.edges():
            if p[0] != q[0]:
                continue
            x = p[0]
            ylo, yhi = min(p[1], q[1]), max(p[1], q[1])
            col_stop = int(np.searchsorted(xs, x))  # affects columns left of the edge
            r1 = int(np.searchsorted(ys, ylo))
            r2 = int(np.searchsorted(ys, yhi))
            delta[r1, 0] += 1
            delta[r1, col_stop] -= 1
            delta[r2, 0] -= 1
            delta[r2, col_stop] += 1
    counts = delta.cumsum(axis=0).cumsum(axis=1)[:nrows, :ncols]
    return GridModel(xs=xs, ys=ys, inside=(counts % 2 == 1))


_INF = np.int64(1) << 40
_MAX_CACHED_SOURCES = 4096


@dataclass(frozen=True)
class Face:
    """One overlay face of :class:`RelaxationGrid`: its box, its representative and the cell that holds it."""

    box: tuple[int, int, int, int]
    rep: Point
    cell: tuple[int, int]


@dataclass(frozen=True)
class _RunAxis:
    """reduceat/repeat bookkeeping for one movement axis."""

    starts: np.ndarray
    lengths: np.ndarray
    order: str  # "C" for row-wise (horizontal), "F" for column-wise


class RelaxationGrid:
    """The cut-grid oracle by Gauss-Seidel relaxation: one ``costs_from`` per face, union-find faces.

    Built from a :class:`rectilink.oracle.GridModel`'s ``xs``, ``ys`` and ``inside``.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, inside: np.ndarray):
        self.xs = xs
        self.ys = ys
        self.inside = inside  # (nrows, ncols) indexed [iy, ix]
        self._h_runs = self._build_runs("C")
        self._v_runs = self._build_runs("F")
        self._cost_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._faces: list[Face] | None = None
        self._face_values: np.ndarray | None = None

    def _build_runs(self, order: str) -> _RunAxis:
        flat = np.ravel(self.inside, order=order)
        nrows, ncols = self.inside.shape
        line = ncols if order == "C" else nrows
        breaks = np.zeros(flat.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = flat[1:] != flat[:-1]
        breaks[::line] = True
        starts = np.nonzero(breaks)[0]
        lengths = np.diff(np.append(starts, flat.size))
        return _RunAxis(starts, lengths, order)

    def _broadcast_min(self, cost: np.ndarray, runs: _RunAxis) -> np.ndarray:
        flat = np.ravel(cost, order=runs.order)
        mins = np.minimum.reduceat(flat, runs.starts)
        return np.reshape(np.repeat(mins, runs.lengths), cost.shape, order=runs.order)

    def cell_of(self, p: Point) -> tuple[int, int]:
        """Cell containing ``p``; on a cut line, any adjacent inside cell."""
        cands_x = self._axis_candidates(self.xs, p[0])
        cands_y = self._axis_candidates(self.ys, p[1])
        nrows, ncols = self.inside.shape
        for iy in cands_y:
            for ix in cands_x:
                if 0 <= iy < nrows and 0 <= ix < ncols and self.inside[iy, ix]:
                    return (iy, ix)
        raise OutsidePointError(f"point {p} is outside the domain")

    @staticmethod
    def _axis_candidates(cuts: np.ndarray, value: int) -> list[int]:
        pos = bisect_left(cuts, value)
        if pos < len(cuts) and cuts[pos] == value:
            return [pos - 1, pos]
        return [pos - 1]

    def costs_from(self, cell: tuple[int, int], cache: bool = True):
        """Per-cell minimum link counts (last segment horizontal / vertical)."""
        if cache and cell in self._cost_cache:
            return self._cost_cache[cell]
        cost_h = np.full(self.inside.shape, _INF, dtype=np.int64)
        cost_v = np.full(self.inside.shape, _INF, dtype=np.int64)
        cost_h[cell] = 1
        cost_v[cell] = 1
        for _ in range(2 * self.inside.size + 4):
            new_h = self._broadcast_min(np.minimum(cost_h, cost_v + 1), self._h_runs)
            new_v = self._broadcast_min(np.minimum(cost_v, new_h + 1), self._v_runs)
            if np.array_equal(new_h, cost_h) and np.array_equal(new_v, cost_v):
                break
            cost_h, cost_v = new_h, new_v
        else:  # pragma: no cover - the relaxation always stabilizes
            raise RuntimeError("turn-cost relaxation did not stabilize")
        if cache and len(self._cost_cache) < _MAX_CACHED_SOURCES:
            self._cost_cache[cell] = (cost_h, cost_v)
        return cost_h, cost_v

    def faces(self) -> list[Face]:
        if self._faces is None:
            self._faces = self._compute_faces()
        return self._faces

    def face_values(self) -> np.ndarray:
        """Read-only link distances between face representatives; 2 on the diagonal."""
        if self._face_values is None:
            faces = self.faces()
            reps, cells = _face_points(faces)
            values = np.array(
                [_prices(self.costs_from(f.cell, cache=False), f.rep, reps, cells) for f in faces]
            )
            np.fill_diagonal(values, 2)
            values.flags.writeable = False
            self._face_values = values
        return self._face_values

    def _merge_labels(self, transposed: bool) -> np.ndarray:
        """Per-cell band labels: grid runs merged across cuts no chord separates."""
        inside = self.inside.T if transposed else self.inside
        nrows, ncols = inside.shape
        flat = np.ravel(inside, order="C")
        breaks = np.zeros(flat.size, dtype=bool)
        breaks[0] = True
        breaks[1:] = flat[1:] != flat[:-1]
        breaks[::ncols] = True
        starts = np.nonzero(breaks)[0]
        lengths = np.diff(np.append(starts, flat.size))
        run_of = np.repeat(np.arange(len(starts)), lengths).reshape(nrows, ncols)

        parent = list(range(len(starts)))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for j in range(1, nrows):
            below = inside[j - 1]
            above = inside[j]
            covered = below | above
            if not covered.any():
                continue
            boundary = below ^ above
            comp_start = covered & np.concatenate(([True], ~covered[:-1]))
            comp_id = np.cumsum(comp_start) - 1
            chord_comps = np.unique(comp_id[boundary])
            chord = covered & np.isin(comp_id, chord_comps)
            for c in np.nonzero(below & above & ~chord)[0]:
                ra, rb = find(int(run_of[j - 1, c])), find(int(run_of[j, c]))
                if ra != rb:
                    parent[rb] = ra
            # Merged stacked runs always share their extent; anything else would
            # put a boundary edge (hence the chord) on this cut line.
        labels = np.fromiter((find(int(r)) for r in run_of.ravel()), dtype=np.int64).reshape(
            nrows, ncols
        )
        return labels.T if transposed else labels

    def _compute_faces(self) -> list[Face]:
        h_labels = self._merge_labels(transposed=False)
        v_labels = self._merge_labels(transposed=True)
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        nrows, ncols = self.inside.shape
        for iy in range(nrows):
            for ix in range(ncols):
                if self.inside[iy, ix]:
                    groups.setdefault((int(h_labels[iy, ix]), int(v_labels[iy, ix])), []).append((iy, ix))
        faces = []
        for key in sorted(groups):
            cells = groups[key]
            iys = [c[0] for c in cells]
            ixs = [c[1] for c in cells]
            box = (
                int(self.xs[min(ixs)]),
                int(self.xs[max(ixs) + 1]),
                int(self.ys[min(iys)]),
                int(self.ys[max(iys) + 1]),
            )
            member_area = sum(
                int(self.xs[ix + 1] - self.xs[ix]) * int(self.ys[iy + 1] - self.ys[iy])
                for iy, ix in cells
            )
            if member_area != (box[1] - box[0]) * (box[3] - box[2]):
                raise AssertionError("face cells do not fill their bounding box")
            rep = ((box[0] + box[1]) // 2, (box[2] + box[3]) // 2)
            faces.append(Face(box=box, rep=rep, cell=self.cell_of(rep)))
        return faces


def _prices(costs, p: Point, points: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Link distances from ``p`` to ``points`` (k x 2), which lie in ``cells`` (k x 2).

    ``costs`` are :meth:`GridModel.costs_from` the cell of ``p``.  A target is 1
    away when the last segment can run straight along the shared coordinate,
    at least 2 otherwise, and 0 when it is ``p``.  Targets in the cell of ``p``
    (cost 1 both ways) are 1 or 2 by the same rule.
    """
    cost_h, cost_v = costs
    ch = cost_h[cells[:, 0], cells[:, 1]]
    cv = cost_v[cells[:, 0], cells[:, 1]]
    raw = np.minimum(ch, cv)
    if raw.max(initial=0) >= _INF:
        q = tuple(points[int(np.argmax(raw))].tolist())
        raise OutsidePointError(f"no path between {p} and {q} (disconnected grid)")
    values = np.maximum(raw, 2)
    values[((ch == 1) & (points[:, 1] == p[1])) | ((cv == 1) & (points[:, 0] == p[0]))] = 1
    values[(points[:, 0] == p[0]) & (points[:, 1] == p[1])] = 0
    return values


def _face_points(faces: list[Face]) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and their cells, as (k x 2) arrays."""
    return (
        np.array([f.rep for f in faces], dtype=np.int64).reshape(-1, 2),
        np.array([f.cell for f in faces], dtype=np.int64).reshape(-1, 2),
    )

# The generator as it walked its masks one cell at a time, with bounds tests
# on every neighbour: the reference for every generated domain.  Only the
# package's parser, validator and ``signed_area2`` are named through
# ``geometry``, since this module's own parser and validator share their names.


def _creates_pinch(mask: np.ndarray, y: int, x: int) -> bool:
    """Would setting (y, x) create a diagonal-contact 2x2 block?"""
    nrows, ncols = mask.shape

    def on(yy, xx):
        return 0 <= yy < nrows and 0 <= xx < ncols and mask[yy, xx]

    for dy in (-1, 1):
        for dx in (-1, 1):
            if on(y + dy, x + dx) and not on(y + dy, x) and not on(y, x + dx):
                return True
    return False


def _grow_polyomino(rng: random.Random, width: int, height: int, cells: int) -> np.ndarray:
    """Tendril-biased random growth: cells touching one inside cell are added
    freely, blob-forming adds happen rarely, so the boundary stays ragged and
    the vertex count grows with the area."""
    mask = np.zeros((height, width), dtype=bool)
    start = (rng.randrange(height), rng.randrange(width))
    mask[start] = True
    frontier = []
    deferred = []

    def push_neighbors(y, x):
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < height and 0 <= xx < width and not mask[yy, xx]:
                frontier.append((yy, xx))

    push_neighbors(*start)
    count = 1
    added_this_pass = True
    accept_all = False
    while count < cells:
        if not frontier:
            if not deferred or not added_this_pass:
                if accept_all or not deferred:
                    break
                accept_all = True
            frontier, deferred = deferred, []
            added_this_pass = False
        y, x = frontier.pop(rng.randrange(len(frontier)))
        if mask[y, x]:
            continue
        if _creates_pinch(mask, y, x):
            deferred.append((y, x))
            continue
        touch = sum(
            1
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= y + dy < height and 0 <= x + dx < width and mask[y + dy, x + dx]
        )
        if touch >= 2 and not accept_all and rng.random() >= 0.08:
            deferred.append((y, x))
            continue
        mask[y, x] = True
        count += 1
        added_this_pass = True
        push_neighbors(y, x)
    return mask


def _fill_enclosed(mask: np.ndarray, keep: np.ndarray | None = None) -> bool:
    """Fill empty regions not connected to the border; True if anything changed.

    Cells flagged in ``keep`` (already punched holes) are never filled.
    """
    nrows, ncols = mask.shape
    outside = np.zeros_like(mask)
    stack = []
    for y in range(nrows):
        for x in range(ncols):
            if (y in (0, nrows - 1) or x in (0, ncols - 1)) and not mask[y, x]:
                stack.append((y, x))
                outside[y, x] = True
    while stack:
        y, x = stack.pop()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < nrows and 0 <= xx < ncols and not mask[yy, xx] and not outside[yy, xx]:
                outside[yy, xx] = True
                stack.append((yy, xx))
    enclosed = ~mask & ~outside
    if keep is not None:
        enclosed &= ~keep
    if enclosed.any():
        mask |= enclosed
        return True
    return False


def _repair_pinches(mask: np.ndarray) -> bool:
    changed = False
    while True:
        a = mask[:-1, :-1]
        b = mask[:-1, 1:]
        c = mask[1:, :-1]
        d = mask[1:, 1:]
        bad1 = a & d & ~b & ~c
        bad2 = b & c & ~a & ~d
        if not bad1.any() and not bad2.any():
            return changed
        changed = True
        ys, xs = np.nonzero(bad1)
        for y, x in zip(ys, xs):
            mask[y, x + 1] = True
        ys, xs = np.nonzero(bad2)
        for y, x in zip(ys, xs):
            mask[y, x] = True


def _connected(mask: np.ndarray) -> bool:
    total = int(mask.sum())
    if total == 0:
        return False
    ys, xs = np.nonzero(mask)
    seen = np.zeros_like(mask)
    stack = [(int(ys[0]), int(xs[0]))]
    seen[stack[0]] = True
    reached = 0
    nrows, ncols = mask.shape
    while stack:
        y, x = stack.pop()
        reached += 1
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < nrows and 0 <= xx < ncols and mask[yy, xx] and not seen[yy, xx]:
                seen[yy, xx] = True
                stack.append((yy, xx))
    return reached == total


def _punch_holes(rng: random.Random, mask: np.ndarray, holes: int, attempts: int = 60):
    """Remove small polyominoes strictly interior to the mask, non-touching."""
    nrows, ncols = mask.shape
    reserved = np.zeros_like(mask)  # hole cells plus their 8-rings
    punched = np.zeros_like(mask)  # hole cells only: never refilled

    def deep_inside(y, x):
        if not (1 <= y < nrows - 1 and 1 <= x < ncols - 1):
            return False
        return bool(mask[y - 1 : y + 2, x - 1 : x + 2].all())

    def eligible_seeds():
        return [
            (y, x)
            for y in range(nrows)
            for x in range(ncols)
            if deep_inside(y, x) and not reserved[y - 1 : y + 2, x - 1 : x + 2].any()
        ]

    def thicken() -> bool:
        """Add a 5x5 patch (sparing punched cells) so a hole has room."""
        spots = [
            (y, x)
            for y in range(2, nrows - 2)
            for x in range(2, ncols - 2)
            if mask[y, x]
        ]
        if not spots:
            return False
        y, x = spots[rng.randrange(len(spots))]
        block = np.zeros_like(mask)
        block[y - 2 : y + 3, x - 2 : x + 3] = True
        mask[:] = mask | (block & ~punched)
        while True:
            changed = _fill_enclosed(mask, keep=punched)
            changed |= _repair_pinches(mask)
            if not changed:
                return True

    for hole_index in range(holes):
        placed = False
        for _ in range(attempts):
            seeds = eligible_seeds()
            if not seeds:
                if not thicken():
                    break
                continue
            seed = seeds[rng.randrange(len(seeds))]
            goal = rng.randint(1, 4)
            hole = np.zeros_like(mask)
            hole[seed] = True
            cells = [seed]
            while len(cells) < goal:
                options = []
                for y, x in cells:
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        yy, xx = y + dy, x + dx
                        if (
                            deep_inside(yy, xx)
                            and not hole[yy, xx]
                            and not reserved[yy - 1 : yy + 2, xx - 1 : xx + 2].any()
                            and not _creates_pinch(hole, yy, xx)
                        ):
                            options.append((yy, xx))
                if not options:
                    break
                pick = options[rng.randrange(len(options))]
                hole[pick] = True
                cells.append(pick)
            candidate = mask & ~hole
            if _connected(candidate):
                mask[:] = candidate
                punched |= hole
                ys, xs = np.nonzero(hole)
                for y, x in zip(ys, xs):
                    reserved[y - 1 : y + 2, x - 1 : x + 2] = True
                placed = True
                break
        if not placed:
            raise ValueError(
                f"could not place hole {hole_index + 1} of {holes}: no interior room left"
            )


def _extract_rings(mask: np.ndarray) -> list[list[tuple[int, int]]]:
    """Boundary loops as corner-vertex lists, interior to the left of each edge."""
    nrows, ncols = mask.shape

    def inside(y, x):
        return 0 <= y < nrows and 0 <= x < ncols and mask[y, x]

    step: dict[tuple[int, int], tuple[int, int]] = {}

    def walk(src, dst):
        if src in step:  # degree-4 lattice point: the mask has a pinch
            raise ValueError("mask has a pinch point; repair failed")
        step[src] = dst

    for y in range(nrows):
        for x in range(ncols):
            if not mask[y, x]:
                continue
            if not inside(y - 1, x):
                walk((x, y), (x + 1, y))
            if not inside(y + 1, x):
                walk((x + 1, y + 1), (x, y + 1))
            if not inside(y, x - 1):
                walk((x, y + 1), (x, y))
            if not inside(y, x + 1):
                walk((x + 1, y), (x + 1, y + 1))

    rings = []
    used: set[tuple[int, int]] = set()
    for start in sorted(step):
        if start in used:
            continue
        loop = [start]
        used.add(start)
        cur = step[start]
        while cur != start:
            loop.append(cur)
            used.add(cur)
            cur = step[cur]
        corners = []
        size = len(loop)
        for k in range(size):
            prev_d = (loop[k][0] - loop[k - 1][0], loop[k][1] - loop[k - 1][1])
            next_d = (loop[(k + 1) % size][0] - loop[k][0], loop[(k + 1) % size][1] - loop[k][1])
            if prev_d != next_d:
                corners.append(loop[k])
        rings.append(corners)
    return rings


def _perturb_rings(rng: random.Random, rings, scale: int | None):
    """Move every maximal edge to its own coordinate on its grid line's band."""
    edges = []  # (axis, line, ring index, edge index)
    for ri, verts in enumerate(rings):
        for ei in range(len(verts)):
            p, q = verts[ei], verts[(ei + 1) % len(verts)]
            if p[0] == q[0]:
                edges.append(("V", p[0], ri, ei))
            else:
                edges.append(("H", p[1], ri, ei))
    groups: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for axis, line, ri, ei in edges:
        groups.setdefault((axis, line), []).append((ri, ei))
    heaviest = max(len(g) for g in groups.values())
    if scale is None:
        scale = 4 * heaviest + 2
    if scale <= 4 * heaviest:
        raise ValueError(
            f"scale {scale} too small: a grid line carries {heaviest} edges"
            f" (needs more than {4 * heaviest})"
        )
    coord: dict[tuple[int, int], int] = {}
    for key in sorted(groups):
        members = groups[key]
        offsets = rng.sample(range(1, scale // 2), len(members))
        for (ri, ei), off in zip(members, offsets):
            coord[(ri, ei)] = key[1] * scale + off
    new_rings = []
    for ri, verts in enumerate(rings):
        count = len(verts)
        out = []
        for k in range(count):
            e_prev, e_cur = (k - 1) % count, k
            p, q = verts[k], verts[(k + 1) % count]
            if p[0] == q[0]:  # current edge vertical: x from it, y from previous edge
                out.append((coord[(ri, e_cur)], coord[(ri, e_prev)]))
            else:
                out.append((coord[(ri, e_prev)], coord[(ri, e_cur)]))
        new_rings.append(out)
    return new_rings


def gen_domain(params: GenParams) -> Domain:
    """Deterministic random domain for the given parameters.

    The result always passes :func:`rectilink.geometry.validate`.
    """
    params.check()
    rng = random.Random(params.seed)
    mask = _grow_polyomino(rng, params.width, params.height, params.cells)
    while True:
        changed = _fill_enclosed(mask)
        changed |= _repair_pinches(mask)
        if not changed:
            break
    if params.holes:
        _punch_holes(rng, mask, params.holes)
    rings = _extract_rings(mask)
    areas = [geometry.signed_area2(np.array(r)) for r in rings]
    outer = [r for r, area in zip(rings, areas) if area > 0]
    holes = [r for r, area in zip(rings, areas) if area < 0]
    if len(outer) != 1 or len(holes) != params.holes:
        raise ValueError(
            f"generation produced {len(outer)} outer rings and {len(holes)} holes"
            f" (wanted 1 and {params.holes}); try another seed"
        )
    perturbed = _perturb_rings(rng, [outer[0]] + holes, params.scale)
    instance = {
        "outer": [[x, y] for x, y in perturbed[0]],
        "holes": [[[x, y] for x, y in ring] for ring in perturbed[1:]],
    }
    domain = geometry.parse_domain(instance)
    violations = geometry.validate(domain)
    if violations:  # pragma: no cover - construction guarantees validity
        raise RuntimeError(f"generated domain failed validation: {violations}")
    return domain
