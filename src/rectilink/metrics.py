"""Point-to-point link distance and the diameter/radius engines.

Distances between points reduce to a four-way minimum of oriented distances
over the rectangles containing them.  For the global extremes, the oriented
diameter and radius pin the answer to one of two candidates; each engine
decides between them by searching for a witness configuration of crossing
rectangle pairs:

* ``edge-scan``: direct scan over pairs of graph edges,
* ``matmul``: the same condition phrased as thresholded boolean matrix
  products over bit-packed rows,
* ``fast`` (diameter only): per-source far sets explored through a
  report-and-remove crossing store, visiting each candidate pair once.

Both decisions are only valid when the oriented value is at least 4; below
that the exact answer comes from enumerating overlay faces
(:func:`small_case_fallback`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .crossing import CrossingStore
from .errors import PreconditionError, UnknownChoiceError
from .geometry import Decomposition, Domain, Orientation, Point, locate
from .graph import DistanceMatrix, GraphSummary, OrientedGraph, middle_segment

EDGE_SCAN = "edge-scan"
MATMUL = "matmul"
FAST = "fast"
FALLBACK = "fallback"
ORACLE = "oracle"

DIAMETER_ALGOS = (EDGE_SCAN, MATMUL, FAST)
RADIUS_ALGOS = (EDGE_SCAN, MATMUL)

_EDGE_CHUNK = 512


@dataclass(frozen=True)
class DiameterResult:
    value: int
    pair: tuple[Point, Point]
    witness_rects: tuple[int, ...]  # (i, i', j, j') in the -1 case, (i, j) otherwise
    engine: str


@dataclass(frozen=True)
class RadiusResult:
    value: int
    center: Point
    witness: tuple[str, tuple[int, ...]]  # ("edge", (i, i')) / ("rect", (i,)) / ("face", (h, v))
    engine: str


@dataclass(frozen=True)
class Face:
    """Overlay face: the full intersection box of one graph edge."""

    h: int
    v: int
    box: tuple[int, int, int, int]  # xmin, xmax, ymin, ymax

    @property
    def center(self) -> Point:
        xmin, xmax, ymin, ymax = self.box
        return ((xmin + xmax) // 2, (ymin + ymax) // 2)


def intersection_box(graph: OrientedGraph, a: int, b: int) -> tuple[int, int, int, int]:
    ra, rb = graph.rects[a], graph.rects[b]
    return (
        max(ra.xmin, rb.xmin),
        min(ra.xmax, rb.xmax),
        max(ra.ymin, rb.ymin),
        min(ra.ymax, rb.ymax),
    )


def overlay_faces(graph: OrientedGraph) -> list[Face]:
    """One face per graph edge; faces partition the domain."""
    return [Face(h, v, intersection_box(graph, h, v)) for h, v in graph.edges]


def face_center(graph: OrientedGraph, a: int, b: int) -> Point:
    xmin, xmax, ymin, ymax = intersection_box(graph, a, b)
    return ((xmin + xmax) // 2, (ymin + ymax) // 2)


def generic_pair_in_box(box: tuple[int, int, int, int]) -> tuple[Point, Point]:
    """Two points of the box sharing no coordinate (distance exactly 2)."""
    xmin, xmax, ymin, ymax = box
    cx, cy = (xmin + xmax) // 2, (ymin + ymax) // 2
    if xmax - xmin >= 4 and ymax - ymin >= 4:
        return ((cx, cy), (cx - 1, cy - 1))
    # Box too thin for two generic interior lattice points: fall back to the
    # boundary, which still belongs to the (closed) domain.
    return ((xmin, ymin + 1), (xmin + 1, ymin))


def point_distance(
    domain: Domain,
    hdec: Decomposition,
    vdec: Decomposition,
    graph: OrientedGraph,
    dm: DistanceMatrix,
    p: Point,
    q: Point,
) -> int:
    """Link distance between two points of the domain (doubled coordinates).

    Coincident points are 0 by convention.  Points sharing a rectangle need 1
    link when axis-aligned, else 2; otherwise the four-way minimum of oriented
    distances over all containing rectangles (several on slab boundaries).
    """
    if p == q:
        return 0
    rp = locate(domain, hdec, p) | {graph.nh + i for i in locate(domain, vdec, p)}
    rq = locate(domain, hdec, q) | {graph.nh + i for i in locate(domain, vdec, q)}
    if rp & rq:
        return 1 if (p[0] == q[0] or p[1] == q[1]) else 2
    return int(min(dm[a, b] for a in rp for b in rq))


def _far_pair_result(graph: OrientedGraph, engine: str, value: int, i: int, j: int) -> DiameterResult:
    """Witness for the off-by-two case: centers of any faces of i and of j."""
    pi = face_center(graph, i, graph.adj[i][0])
    pj = face_center(graph, j, graph.adj[j][0])
    return DiameterResult(value=value, pair=(pi, pj), witness_rects=(i, j), engine=engine)


def _quad_result(graph: OrientedGraph, engine: str, value: int, quad: tuple[int, int, int, int]) -> DiameterResult:
    i, ip, j, jp = quad
    return DiameterResult(
        value=value,
        pair=(face_center(graph, i, ip), face_center(graph, j, jp)),
        witness_rects=quad,
        engine=engine,
    )


def _center_rect_result(graph: OrientedGraph, engine: str, value: int, rect: int) -> RadiusResult:
    return RadiusResult(
        value=value,
        center=face_center(graph, rect, graph.adj[rect][0]),
        witness=("rect", (rect,)),
        engine=engine,
    )


def _center_edge_result(graph: OrientedGraph, engine: str, value: int, edge: tuple[int, int]) -> RadiusResult:
    return RadiusResult(
        value=value,
        center=face_center(graph, edge[0], edge[1]),
        witness=("edge", edge),
        engine=engine,
    )


def diameter_edge_scan(graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary) -> DiameterResult:
    """Scan pairs of graph edges for two far pairs covering each other."""
    big = summary.ordiam
    if big < 4:
        raise PreconditionError(f"edge-scan diameter needs oriented diameter >= 4, got {big}")
    edges = np.asarray(graph.edges)
    e0, e1 = edges[:, 0], edges[:, 1]
    flat = dm == big
    for start in range(0, len(edges), _EDGE_CHUNK):
        stop = min(start + _EDGE_CHUNK, len(edges))
        a0, a1 = e0[start:stop], e1[start:stop]
        straight = flat[np.ix_(a0, e0)] & flat[np.ix_(a1, e1)]
        crossed = flat[np.ix_(a0, e1)] & flat[np.ix_(a1, e0)]
        hit = straight | crossed
        if hit.any():
            r, c = np.argwhere(hit)[0]
            i, ip = int(a0[r]), int(a1[r])
            if straight[r, c]:
                j, jp = int(e0[c]), int(e1[c])
            else:
                j, jp = int(e1[c]), int(e0[c])
            return _quad_result(graph, EDGE_SCAN, big - 1, (i, ip, j, jp))
    i, j = summary.diam_pair
    return _far_pair_result(graph, EDGE_SCAN, big - 2, i, j)


def radius_edge_scan(graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary) -> RadiusResult:
    """For every edge, search an edge whose two far conditions both hold."""
    small = summary.orrad
    if small < 4:
        raise PreconditionError(f"edge-scan radius needs oriented radius >= 4, got {small}")
    edges = np.asarray(graph.edges)
    e0, e1 = edges[:, 0], edges[:, 1]
    far = dm >= small
    for start in range(0, len(edges), _EDGE_CHUNK):
        stop = min(start + _EDGE_CHUNK, len(edges))
        a0, a1 = e0[start:stop], e1[start:stop]
        ok = (
            (far[np.ix_(a0, e0)] & far[np.ix_(a1, e1)])
            | (far[np.ix_(a0, e1)] & far[np.ix_(a1, e0)])
        ).any(axis=1)
        if not ok.all():
            bad = int(np.nonzero(~ok)[0][0]) + start
            edge = (int(e0[bad]), int(e1[bad]))
            return _center_edge_result(graph, EDGE_SCAN, small - 2, edge)
    return _center_rect_result(graph, EDGE_SCAN, small - 1, summary.center_rect)


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

    def get(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.ncols
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= bit
                row ^= low
        return BitMatrix(cols, self.nrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )


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


def _crossing_bits(graph: OrientedGraph) -> BitMatrix:
    rows = [0] * graph.m
    for i, j in graph.edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return BitMatrix(rows, graph.m)


def diameter_matmul(graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary) -> DiameterResult:
    """Boolean matrix-product phrasing of the diameter witness condition."""
    big = summary.ordiam
    if big < 4:
        raise PreconditionError(f"matmul diameter needs oriented diameter >= 4, got {big}")
    cross = _crossing_bits(graph)
    far = BitMatrix.from_bool(dm == big)
    mid = bool_product(cross, far)
    prod = bool_product(far, mid)
    hit = None
    for i in range(graph.m):
        both = cross.rows[i] & prod.rows[i]
        if both:
            hit = (i, (both & -both).bit_length() - 1)
            break
    if hit is None:
        i, j = summary.diam_pair
        return _far_pair_result(graph, MATMUL, big - 2, i, j)
    i, ip = hit
    mid_t = mid.transpose()
    j_candidates = far.rows[i] & mid_t.rows[ip]
    j = (j_candidates & -j_candidates).bit_length() - 1
    jp_candidates = cross.rows[j] & far.rows[ip]  # far is symmetric
    jp = (jp_candidates & -jp_candidates).bit_length() - 1
    return _quad_result(graph, MATMUL, big - 1, (i, ip, j, jp))


def radius_matmul(graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary) -> RadiusResult:
    """Boolean matrix-product phrasing of the radius witness condition."""
    small = summary.orrad
    if small < 4:
        raise PreconditionError(f"matmul radius needs oriented radius >= 4, got {small}")
    cross = _crossing_bits(graph)
    far = BitMatrix.from_bool(dm >= small)
    mid = bool_product(cross, far)
    prod = bool_product(far, mid)
    for i in range(graph.m):
        missed = cross.rows[i] & ~prod.rows[i]
        if missed:
            ip = (missed & -missed).bit_length() - 1
            edge = (i, ip) if i < graph.nh else (ip, i)
            return _center_edge_result(graph, MATMUL, small - 2, edge)
    return _center_rect_result(graph, MATMUL, small - 1, summary.center_rect)


def diameter_fast(
    graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary, store_cls=CrossingStore
) -> DiameterResult:
    """Far-set sweep over the candidate pair set through a crossing store.

    For each source the rectangles covering its far set are collected by
    loading middle segments of the opposite orientation and popping crossings,
    then the reverse map drives one more pop round that enumerates each
    candidate pair exactly once.
    """
    big = summary.ordiam
    if big < 4:
        raise PreconditionError(f"fast diameter needs oriented diameter >= 4, got {big}")
    mids = [middle_segment(r) for r in graph.rects]
    segments = {
        orient: [mids[k] for k in graph.ids_of(orient)]
        for orient in (Orientation.HORIZONTAL, Orientation.VERTICAL)
    }
    reverse: dict[int, list[int]] = defaultdict(list)
    provenance: dict[tuple[int, int], int] = {}
    far_rows = dm == big
    for i in range(graph.m):
        far_ids = np.nonzero(far_rows[i])[0]
        if not len(far_ids):
            continue
        far_orient = graph.orientation_of(int(far_ids[0]))
        store = store_cls.reset(segments[far_orient.opposite], axis=far_orient.opposite)
        for j in far_ids:
            for seg in store.pop_crossing(mids[int(j)]):
                reverse[seg.owner].append(i)
                provenance[(i, seg.owner)] = int(j)
    for jp in sorted(reverse):
        by_orient: dict[Orientation, list[int]] = defaultdict(list)
        for i in reverse[jp]:
            by_orient[graph.orientation_of(i)].append(i)
        for orient in sorted(by_orient, key=lambda o: o.value):
            store = store_cls.reset(segments[orient.opposite], axis=orient.opposite)
            for i in sorted(by_orient[orient]):
                for seg in store.pop_crossing(mids[i]):
                    ip = seg.owner
                    if dm[ip, jp] == big:
                        j = provenance[(i, jp)]
                        return _quad_result(graph, FAST, big - 1, (i, ip, j, jp))
    i, j = summary.diam_pair
    return _far_pair_result(graph, FAST, big - 2, i, j)


def small_case_fallback(graph: OrientedGraph, dm: DistanceMatrix, which: str):
    """Exact diameter or radius by enumerating overlay faces.

    Covers the small oriented values the witness engines refuse: each face
    contributes one representative; face pairs sharing a rectangle are capped
    at 2, others use the four-way minimum.  The enumeration is exact for any
    oriented value, so no upper precondition is enforced.
    """
    if which not in ("diameter", "radius"):
        raise UnknownChoiceError(f"unknown fallback target {which!r} (choose from diameter, radius)")
    faces = overlay_faces(graph)
    hs = np.array([f.h for f in faces])
    vs = np.array([f.v for f in faces])
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

    if which == "diameter":
        flat = int(np.argmax(values))
        a, b = divmod(flat, len(faces))
        value = max(2, int(values[a, b]))
        if a != b and not shared[a, b]:
            pair = (faces[a].center, faces[b].center)
            witness = (faces[a].h, faces[a].v, faces[b].h, faces[b].v)
        else:
            biggest = max(faces, key=lambda f: (f.box[1] - f.box[0]) * (f.box[3] - f.box[2]))
            pair = generic_pair_in_box(biggest.box)
            witness = (biggest.h, biggest.v)
        return DiameterResult(value=value, pair=pair, witness_rects=witness, engine=FALLBACK)

    ecc = values.max(axis=1)
    best = int(np.argmin(ecc))
    face = faces[best]
    return RadiusResult(
        value=max(2, int(ecc[best])),
        center=face.center,
        witness=("face", (face.h, face.v)),
        engine=FALLBACK,
    )


def compute_diameter(
    graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary, algo: str = EDGE_SCAN
) -> tuple[DiameterResult, bool]:
    """Route to the requested engine, or to the fallback below its validity range.

    ``summary`` is ``summarize(dm)``, computed once by :func:`~rectilink.pipeline.prepare`.
    Returns (result, routed_to_fallback); routing is always explicit.
    """
    if algo not in DIAMETER_ALGOS:
        raise UnknownChoiceError(
            f"unknown diameter algorithm {algo!r} (choose from {', '.join(DIAMETER_ALGOS)})"
        )
    if summary.ordiam < 4:
        return small_case_fallback(graph, dm, "diameter"), True
    engine = {EDGE_SCAN: diameter_edge_scan, MATMUL: diameter_matmul, FAST: diameter_fast}[algo]
    return engine(graph, dm, summary), False


def compute_radius(
    graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary, algo: str = EDGE_SCAN
) -> tuple[RadiusResult, bool]:
    """Radius counterpart of :func:`compute_diameter`."""
    if algo not in RADIUS_ALGOS:
        raise UnknownChoiceError(
            f"unknown radius algorithm {algo!r} (choose from {', '.join(RADIUS_ALGOS)})"
        )
    if summary.orrad < 4:
        return small_case_fallback(graph, dm, "radius"), True
    engine = {EDGE_SCAN: radius_edge_scan, MATMUL: radius_matmul}[algo]
    return engine(graph, dm, summary), False
