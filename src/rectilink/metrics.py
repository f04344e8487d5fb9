"""Point-to-point link distance and the diameter/radius engines.

Distances between points reduce to a four-way minimum of oriented distances
over the rectangles containing them.  For the global extremes, the oriented
diameter ``ordiam`` pins the diameter to ``ordiam - 1`` or ``ordiam - 2``, and
the oriented radius ``orrad`` pins the radius to ``orrad - 1`` or ``orrad - 2``.
Each engine decides between the two on the far relation ``dm >= ordiam`` (or
``dm >= orrad``) and returns only its decision, a witness configuration of
crossing rectangle pairs or ``None``:

* ``edge-scan``: direct scan over pairs of graph edges, with the cover test
  packed into bits; the diameter scan visits only the edges between far rows,
* ``matmul``: the same condition phrased as thresholded boolean matrix
  products over bit-packed rows,
* ``fast`` (diameter only): per-source far sets explored through a
  report-and-remove crossing store, visiting each candidate pair once.

The decision is only valid when the oriented value is at least 4.  The one
router, :func:`compute`, sends smaller values to :func:`small_case_fallback`
(exact enumeration of overlay faces), builds the far relation once for the
engine, and turns its decision into the result and witness points.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .crossing import CrossingStore
from .errors import UnknownChoiceError
from .geometry import Decomposition, Orientation, Point, locate
from .graph import DistanceMatrix, GraphSummary, OrientedGraph, bfs_from, middle_segment

EDGE_SCAN = "edge-scan"
MATMUL = "matmul"
FAST = "fast"
FALLBACK = "fallback"
ORACLE = "oracle"

DIAMETER_ALGOS = (EDGE_SCAN, MATMUL, FAST)
RADIUS_ALGOS = (EDGE_SCAN, MATMUL)
ALGOS = {"diameter": DIAMETER_ALGOS, "radius": RADIUS_ALGOS}  # engines per kind

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


def point_distance(hdec: Decomposition, vdec: Decomposition, graph: OrientedGraph, p: Point, q: Point) -> int:
    """Link distance between two points of the domain (doubled coordinates).

    Coincident points are 0 by convention.  Points sharing a rectangle need 1
    link when axis-aligned, else 2; otherwise the four-way minimum of oriented
    distances over all containing rectangles (several on slab boundaries),
    read from one breadth-first search out of ``p``'s rectangles.
    """
    if p == q:
        return 0
    rp = locate(hdec, p) | {graph.nh + i for i in locate(vdec, p)}
    rq = locate(hdec, q) | {graph.nh + i for i in locate(vdec, q)}
    if rp & rq:
        return 1 if (p[0] == q[0] or p[1] == q[1]) else 2
    row = bfs_from(graph, sorted(rp))
    return int(min(row[b] for b in rq))


def _packed_columns(far: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``far[:, cols]`` packed into bits, eight columns per byte."""
    width = -(-len(cols) // 8) * 8
    out = np.empty((len(far), width // 8), np.uint8)
    for start in range(0, len(far), _EDGE_CHUNK):
        rows = far[start : start + _EDGE_CHUNK, cols]
        block = np.zeros((len(rows), width), dtype=bool)
        block[:, : len(cols)] = rows  # rows padded to whole bytes pack as one flat run
        out[start : start + len(rows)] = np.packbits(block).reshape(len(rows), width // 8)
    return out


def _edge_covers(far: np.ndarray, edges: np.ndarray):
    """Chunks of ``edges`` (a k x 2 array) against each other: (chunk start, packed cover rows).

    Edge (a, a') covers edge (b, b') when a-b and a'-b' are both far
    (straight) or a-b' and a'-b are (crossed).  The two ends' far rows are
    packed into bits once, ``F0 = far[:, b]`` and ``F1 = far[:, b']`` over the
    columns ``edges``, so a chunk's cover rows are
    ``(F0[a] & F1[a']) | (F1[a] & F0[a'])``, eight pairs per byte.  The
    radius scans every edge; the diameter passes only the edges between far
    rows, the only ones that can cover or be covered.
    """
    f0, f1 = _packed_columns(far, edges[:, 0]), _packed_columns(far, edges[:, 1])
    for start in range(0, len(edges), _EDGE_CHUNK):
        a0, a1 = edges[start : start + _EDGE_CHUNK, 0], edges[start : start + _EDGE_CHUNK, 1]
        yield start, (f0[a0] & f1[a1]) | (f1[a0] & f0[a1])


def diameter_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Scan pairs of graph edges for two far pairs covering each other; return them as (i, i', j, j').

    Only edges with both ends in a far row can cover or be covered, so the
    scan visits those alone, in edge order: the first hit is the same quad.
    """
    rows = far.any(axis=1)
    edges = graph.edge_array
    ids = np.flatnonzero(rows[edges[:, 0]] & rows[edges[:, 1]])
    for start, hit in _edge_covers(far, edges[ids]):
        hits = np.flatnonzero(hit.any(axis=1))
        if len(hits):
            r = hits[0]
            c = np.flatnonzero(np.unpackbits(hit[r], count=len(ids)))[0]
            (i, ip), (j, jp) = graph.edges[ids[start + r]], graph.edges[ids[c]]
            return (i, ip, j, jp) if far[i, j] and far[ip, jp] else (i, ip, jp, j)
    return None


def radius_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int] | None:
    """For every edge, search an edge whose two far conditions both hold; return the first without one."""
    for start, hit in _edge_covers(far, graph.edge_array):
        covered = hit.any(axis=1)
        if not covered.all():
            return graph.edges[start + int(np.argmin(covered))]
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
    for i, j in graph.edges:
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


def diameter_fast(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Far-set sweep over the candidate pair set through a crossing store.

    For each source the rectangles covering its far set are collected by
    popping crossings from the store of middle segments of the opposite
    orientation, then the reverse map drives one more pop round that
    enumerates each candidate pair exactly once.  One store is built per axis;
    every round restores the segments it popped.
    """
    mids = [middle_segment(r) for r in graph.rects]
    stores = {
        orient: CrossingStore.reset([mids[k] for k in graph.ids_of(orient)], axis=orient)
        for orient in (Orientation.HORIZONTAL, Orientation.VERTICAL)
    }
    reverse: dict[int, list[int]] = defaultdict(list)
    provenance: dict[tuple[int, int], int] = {}
    for i in range(graph.m):
        far_ids = np.nonzero(far[i])[0]
        if not len(far_ids):
            continue
        store = stores[graph.orientation_of(int(far_ids[0])).opposite]
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
            store = stores[orient.opposite]
            popped = []
            for i in sorted(by_orient[orient]):
                for seg in store.pop_crossing(mids[i]):
                    ip = seg.owner
                    if far[ip, jp]:
                        return (i, ip, provenance[(i, jp)], jp)
                    popped.append(seg)
            store.restore(popped)
    return None


def small_case_fallback(graph: OrientedGraph, dm: DistanceMatrix, which: str):
    """Exact diameter or radius by enumerating overlay faces.

    Covers the small oriented values the engines cannot decide: each face
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


def compute(
    kind: str, graph: OrientedGraph, dm: DistanceMatrix, summary: GraphSummary, algo: str = EDGE_SCAN
) -> tuple[DiameterResult | RadiusResult, bool]:
    """The diameter or radius by engine ``algo``, or by the fallback below 4.

    ``summary`` is ``summarize(dm)``, computed once by :func:`~rectilink.pipeline.prepare`.
    Returns (result, routed_to_fallback).  The engine decides on the far
    relation ``dm >= oriented``; its decision becomes the result here.
    """
    if kind not in ALGOS:
        raise UnknownChoiceError(f"unknown kind {kind!r} (choose from {', '.join(ALGOS)})")
    if algo not in ALGOS[kind]:
        raise UnknownChoiceError(f"unknown {kind} algorithm {algo!r} (choose from {', '.join(ALGOS[kind])})")
    oriented = summary.ordiam if kind == "diameter" else summary.orrad
    if oriented < 4:
        return small_case_fallback(graph, dm, kind), True
    engine = {  # looked up per call, so that rebinding a module attribute reaches the engine
        ("diameter", EDGE_SCAN): diameter_edge_scan,
        ("diameter", MATMUL): diameter_matmul,
        ("diameter", FAST): diameter_fast,
        ("radius", EDGE_SCAN): radius_edge_scan,
        ("radius", MATMUL): radius_matmul,
    }[kind, algo]
    decision = engine(graph, dm >= oriented)

    def center(a: int, b: int | None = None) -> Point:
        return face_center(graph, a, graph.adj[a][0] if b is None else b)

    if kind == "diameter":
        if decision is None:  # no witness quad: the far pair itself is at ordiam - 2
            i, j = summary.diam_pair
            return DiameterResult(oriented - 2, (center(i), center(j)), (i, j), algo), False
        i, ip, j, jp = decision
        return DiameterResult(oriented - 1, (center(i, ip), center(j, jp)), decision, algo), False
    if decision is None:  # every edge is covered: the centre rectangle is at orrad - 1
        rect = summary.center_rect
        return RadiusResult(oriented - 1, center(rect), ("rect", (rect,)), algo), False
    return RadiusResult(oriented - 2, center(*decision), ("edge", decision), algo), False
