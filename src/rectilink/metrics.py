"""Point-to-point link distance and the diameter/radius engines.

Distances between points reduce to a four-way minimum of oriented distances
over the rectangles containing them.  For the global extremes, the oriented
diameter ``ordiam`` pins the diameter to ``ordiam - 1`` or ``ordiam - 2``, and
the oriented radius ``orrad`` pins the radius to ``orrad - 1`` or ``orrad - 2``.
Each engine decides between the two on the far relation ``dm >= ordiam`` (or
``dm >= orrad``), packed 64 columns to a machine word as
:meth:`~rectilink.graph.Levels.far` reads it off the level search's planes,
and returns only its decision, a witness configuration of crossing
rectangle pairs or ``None``:

* ``edge-scan``: direct scan over pairs of graph edges, ``_EDGE_CHUNK``
  rows at a time, against one block of at most ``_COLUMN_BLOCK`` edge
  columns at a time, whose two ends' far rows are gathered and transposed
  into the words' own layout, so the block's bits take ``2 * m *
  _COLUMN_BLOCK / 8`` bytes whatever chi; the radius takes the columns by
  the smaller far degree of their two ends, highest first, in blocks
  growing fourfold from ``_COLUMN_BLOCK // 32``, drops the edges each block
  covers, and once no more edges are open than the next block would take,
  tests them against every column left in one pass with the roles swapped;
  the diameter scan visits only the edges between far rows, in edge order,
  and in later blocks only the rows before its lowest hit,
* ``matmul``: the same condition as thresholded boolean matrix products on
  the packed rows: one product ``mid = cross·far``, then
  ``prod = far·mid`` read only on the crossing edges between far rows,
* ``fast`` (diameter only): per-source far sets, unpacked one far row at a
  time, explored through a report-and-remove crossing store, visiting each
  candidate pair once.

The decision is only valid when the oriented value is at least 4.  The one
router, :func:`compute`, sends smaller values to :func:`small_case_fallback`
(the diameter 2 in closed form, the radius by the radius edge-scan with the
cover test's OR turned into an AND, on ``far(3)``, ``far(4)`` and so on
until an overlay face is left uncovered), hands the engine the far relation,
computed once per threshold, and turns its decision into the result and
witness points.  No distance table is built.  Every witness point lies in an
overlay face, the intersection of the boxes of two crossing rectangles.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .crossing import CrossingStore
from .errors import UnknownChoiceError
from .geometry import Decomposition, Point, locate
from .graph import CHUNK, Levels, OrientedGraph, _first_bit, _group_reduce, _groups, _transpose_bits, bfs_from

EDGE_SCAN = "edge-scan"
MATMUL = "matmul"
FAST = "fast"
FALLBACK = "fallback"
ORACLE = "oracle"

DIAMETER_ALGOS = (EDGE_SCAN, MATMUL, FAST)
RADIUS_ALGOS = (EDGE_SCAN, MATMUL)
ALGOS = {"diameter": DIAMETER_ALGOS, "radius": RADIUS_ALGOS}  # engines per kind

_EDGE_CHUNK = 512
_COLUMN_BLOCK = 16 * _EDGE_CHUNK  # the most edge columns the edge-scans transpose at once


def _popcount(far: np.ndarray) -> np.ndarray:
    """Set bits per row of packed words, summed in ``intp``."""
    return np.bitwise_count(far).sum(axis=-1, dtype=np.intp)


log = logging.getLogger("rectilink")


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


def overlay_faces(graph: OrientedGraph) -> np.ndarray:
    """The overlay faces' ``(xmin, xmax, ymin, ymax)`` as one (chi, 4) array; faces partition the domain.

    Face k is the intersection of the two rectangles of edge k, so the faces
    are in edge order.
    """
    h, v = graph.boxes[graph.edges[:, 0]], graph.boxes[graph.edges[:, 1]]
    faces = np.maximum(h, v)
    np.minimum(h[:, 1::2], v[:, 1::2], out=faces[:, 1::2])
    return faces


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


def _far_rows(far: np.ndarray, rows) -> np.ndarray:
    """Rows ``rows`` of the packed far relation, one bool per column."""
    return np.unpackbits(far[rows].view(np.uint8), axis=-1, count=len(far), bitorder="little").view(bool)


def _far_at(far: np.ndarray, i: int, cols: np.ndarray) -> np.ndarray:
    """``far[i, cols]`` read from the packed words, as bools."""
    cols = np.asarray(cols)
    return (far[i, cols >> 6] >> (cols & 63).astype(np.uint64) & np.uint64(1)).astype(bool)


def _far_row_edges(graph: OrientedGraph, rows: np.ndarray) -> np.ndarray:
    """Positions, in edge order, of the edges between far rows (``rows = far.any(axis=1)``).

    A cover needs a far entry at each end of both edges, so no other edge can cover or be covered.
    """
    edges = graph.edges
    return np.flatnonzero(rows[edges[:, 0]] & rows[edges[:, 1]])


def _edge_covers(far: np.ndarray, block: np.ndarray, scanning: np.ndarray, combine=np.bitwise_or):
    """Chunks of the ``scanning`` edges against one ``block`` of column edges: (chunk start, cover words).

    Edge (a, a') covers edge (b, b') when a-b and a'-b' are both far
    (straight) or a-b' and a'-b are (crossed); with ``combine`` set to
    ``np.bitwise_and``, when both pairs of pairs are.  ``far`` is symmetric,
    so the block's ends over every row, ``F0 = far[:, b]`` and ``F1 =
    far[:, b']``, are the far rows of ``b`` and ``b'`` gathered and
    transposed (:func:`~rectilink.graph._transpose_bits`), column k of the
    block at bit k, and a chunk's cover words are ``combine(F0[a] &
    F1[a'], F1[a] & F0[a'])``; the bits past the block are zero and cover
    nothing.  The scans pass at most ``_COLUMN_BLOCK`` columns at a time,
    and one block is live at a time, so its bits take at most ``2 * m *
    _COLUMN_BLOCK / 8`` bytes, whatever chi.  The test is symmetric in the
    two edges, by ``far[x, y] = far[y, x]``, so a caller may swap the roles
    of block and scanning edges.
    """
    f0, f1 = (_transpose_bits(far.take(block[:, k], axis=0), len(far)) for k in (0, 1))
    for start in range(0, len(scanning), _EDGE_CHUNK):
        a0, a1 = scanning[start : start + _EDGE_CHUNK, 0], scanning[start : start + _EDGE_CHUNK, 1]
        yield start, combine(f0[a0] & f1[a1], f1[a0] & f0[a1])


def diameter_edge_scan(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Scan pairs of graph edges for two far pairs covering each other; return them as (i, i', j, j').

    The scan visits only the edges between far rows, the only ones that can
    cover or be covered, in edge order, and returns the lowest row with a
    cover and its lowest column, the first set bit of the row's cover
    words.  Each column block scans only the rows before the lowest hit row
    so far and stops at its first hit: a later block can only find a lower
    row.
    """
    ids = _far_row_edges(graph, far.any(axis=1))
    edges = graph.edges[ids]
    row = col = len(ids)  # the lowest hit row so far, and its first column
    for first in range(0, len(ids), _COLUMN_BLOCK):
        for start, hit in _edge_covers(far, edges[first : first + _COLUMN_BLOCK], edges[:row]):
            hits = np.flatnonzero(hit.any(axis=1))
            if len(hits):
                row = start + int(hits[0])
                col = first + _first_bit(hit[hits[0]])
                break
    if row == len(ids):
        return None
    (i, ip), (j, jp) = graph.edges[[ids[row], ids[col]]].tolist()
    return (i, ip, j, jp) if _far_at(far, i, j) and _far_at(far, ip, jp) else (i, ip, jp, j)


def radius_edge_scan(graph: OrientedGraph, far: np.ndarray, combine=np.bitwise_or) -> tuple[int, int] | None:
    """For every edge, search an edge that covers it (:func:`_edge_covers`); return the first without one.

    A ``covered`` flag per edge is collected over the column blocks; each
    block scans only the edges no earlier block covered, and the scan stops
    once none is left.  Whether an edge is covered does not depend on the
    order of the columns, so they go likeliest to cover first: by far degree
    (the fewer far entries of their two ends), descending, in blocks growing
    from ``_COLUMN_BLOCK // 32`` columns fourfold up to ``_COLUMN_BLOCK``.
    When no more edges are open than the next block would take, the cover
    test's symmetry settles them in one pass that ends the scan: the open
    edges become the block, every column not yet taken is scanned as rows,
    and the hits are OR-reduced along the rows.  This tail counts as one
    block, taking every column left, with the open edges as its rows.  When
    every column fits in the first block, the tail is the whole scan, in
    edge order.  ``combine`` is the cover test's (:func:`_edge_covers`): the
    engine's OR, or the AND with which :func:`small_case_fallback` finds the
    centre face.  Blocks, columns taken and rows scanned, counted on every
    call, go to the ``rectilink`` logger at debug level.
    """
    edges = graph.edges
    chi = len(edges)
    width = max(1, _COLUMN_BLOCK // 32)
    order = np.arange(chi)  # edge order: one block's order cannot matter
    if chi > width:
        degree = _popcount(far)  # far entries per row
        order = np.argsort(-np.minimum(degree[edges[:, 0]], degree[edges[:, 1]]), kind="stable")
    covered = np.zeros(chi, dtype=bool)
    open_ids = np.arange(chi)
    first = blocks = rows = 0
    while first < chi and len(open_ids):
        tail = len(open_ids) <= width  # no more open edges than the block would take: settle them in one pass
        columns = edges[order[first : chi if tail else first + width]]
        if tail:
            cover = np.zeros(-(-len(open_ids) // 64), dtype=np.uint64)
            for _, hit in _edge_covers(far, edges[open_ids], columns, combine):
                cover |= np.bitwise_or.reduce(hit, axis=0)
            covered[open_ids] = np.unpackbits(cover.view(np.uint8), count=len(open_ids), bitorder="little")
        else:
            for start, hit in _edge_covers(far, columns, edges[open_ids], combine):
                covered[open_ids[start : start + len(hit)]] = hit.any(axis=1)
        blocks, rows = blocks + 1, rows + len(open_ids)
        first, width = first + len(columns), min(4 * width, _COLUMN_BLOCK)
        open_ids = np.flatnonzero(~covered)
    log.debug("radius edge-scan: %d blocks, %d/%d columns taken, %d rows scanned", blocks, first, chi, rows)
    return tuple(edges[open_ids[0]].tolist()) if len(open_ids) else None


def _far_products(graph: OrientedGraph, far: np.ndarray):
    """``mid = cross·far`` transposed on the far rows, and the edges ``prod = far·mid`` can be set on.

    Returns ``(mid_t, slot, ids)``.  With R the far rows (those holding any
    entry), ``mid_t[slot[r]]`` is column r of ``mid`` for r in R, in the
    bits of ``far``, row i's column j at bit j; every other column of
    ``mid`` is zero, since ``far`` is symmetric.  ``ids`` are the
    positions, in edge order, of the edges between far rows, and ``prod``
    can be set only there: ``prod[h, v] = any(far[h] & mid_t[slot[v]])``.

    Row j of ``mid`` is the OR of the far rows of j's neighbours, by
    :func:`~rectilink.graph._group_reduce`, so ``mid`` is never whole.
    ``prod`` reads row j of ``mid`` only through bit j of a far row, so only
    the 64-row blocks holding a far row are made; the bits of the others
    stay zero.  A run of consecutive such blocks, up to ``CHUNK`` rows, is
    one range of CSR groups; its rows are stacked and transposed by one
    :func:`~rectilink.graph._transpose_bits` into one word per block, of
    which the rows R go to ``mid_t``.
    """
    m = graph.m
    rows = far.any(axis=1)
    far_rows = np.flatnonzero(rows)
    mid_t = np.zeros((len(far_rows), far.shape[1]), dtype=np.uint64)
    held = np.flatnonzero(np.bincount(far_rows >> 6))  # the blocks holding a far row
    stacks: list[list[int]] = []  # runs of consecutive held blocks, at most CHUNK rows each: one range of rows
    for block in held.tolist():
        if not stacks or block != stacks[-1][-1] + 1 or 64 * len(stacks[-1]) >= CHUNK:
            stacks.append([])
        stacks[-1].append(block)
    for group in stacks:
        lo, hi = 64 * group[0], min(64 * group[-1] + 64, m)
        stack = np.empty((hi - lo, far.shape[1]), dtype=np.uint64)
        for a, b, bits in _group_reduce(np.bitwise_or, far, _groups(graph.indptr[lo : hi + 1], graph.indices)):
            stack[a:b] = bits
        mid_t[:, group] = _transpose_bits(stack, m)[far_rows]
    slot = np.zeros(m, dtype=np.intp)
    slot[far_rows] = np.arange(len(far_rows))
    return mid_t, slot, _far_row_edges(graph, rows)


def _edge_products(graph: OrientedGraph, far: np.ndarray, mid_t: np.ndarray, slot: np.ndarray, ids: np.ndarray):
    """``prod`` on the edges ``ids``, in ``_EDGE_CHUNK`` blocks: (block start in ``ids``, prod)."""
    edges = graph.edges[ids]
    for start in range(0, len(ids), _EDGE_CHUNK):
        h, v = edges[start : start + _EDGE_CHUNK, 0], slot[edges[start : start + _EDGE_CHUNK, 1]]
        yield start, (far[h] & mid_t[v]).any(axis=1)


def diameter_matmul(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Boolean matrix-product phrasing of the diameter witness condition.

    The witness is the first crossing edge (i, i') with ``prod[i, i']`` set,
    ``prod = far·cross·far`` being symmetric; j is the lowest rectangle far
    from i with ``mid[j, i']`` set, and j' the lowest neighbour of j far from i'.
    """
    mid_t, slot, ids = _far_products(graph, far)
    for start, prod in _edge_products(graph, far, mid_t, slot, ids):
        if prod.any():
            i, ip = graph.edges[ids[start + int(np.argmax(prod))]].tolist()
            j = _first_bit(far[i] & mid_t[slot[ip]])
            neighbours = graph.neighbours(j)
            jp = int(neighbours[_far_at(far, ip, neighbours)][0])
            return (i, ip, j, jp)
    return None


def radius_matmul(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int] | None:
    """Boolean matrix-product phrasing of the radius witness condition: the first crossing edge with ``prod`` unset."""
    mid_t, slot, ids = _far_products(graph, far)
    covered = np.zeros(graph.chi, dtype=bool)
    for start, prod in _edge_products(graph, far, mid_t, slot, ids):
        covered[ids[start : start + len(prod)]] = prod
    return None if covered.all() else tuple(graph.edges[int(np.argmin(covered))].tolist())


def diameter_fast(graph: OrientedGraph, far: np.ndarray) -> tuple[int, int, int, int] | None:
    """Far-set sweep over the candidate pair set through a crossing store.

    For each far row i, one round pops from the store of the opposite axis
    the rectangles crossing i's far set, which builds the reverse map; then,
    for each j' in it, one round per orientation of its sources pops the
    sources' crossings, which enumerates each candidate pair exactly once.
    Only the far rows are unpacked from the words, once, and only theirs
    are queried (i, its far set and the sources of j'), so only their middle
    segments become Python ints.  A j' that is no far row has no far entry
    ``far[i', j']``, so its rounds are skipped.
    The store is one :class:`~rectilink.crossing.CrossingStore` per axis,
    built once from ``graph.mids`` and queried with plain ints; every round
    ends with ``restore()``, which makes every segment live again in constant
    time.  Store entries, rounds and pops go to the ``rectilink`` logger at
    debug level.
    """
    nh, far_rows = graph.nh, np.flatnonzero(far.any(axis=1)).tolist()
    mids = dict(zip(far_rows, graph.mids[far_rows].tolist()))
    rows = dict(zip(far_rows, _far_rows(far, far_rows)))  # far row i, one bool per column
    stores = (CrossingStore.reset(graph.mids[:nh], 0), CrossingStore.reset(graph.mids[nh:], nh))
    reverse: dict[int, list[int]] = defaultdict(list)
    provenance: dict[tuple[int, int], int] = {}
    try:
        for i, row in rows.items():
            far_ids = np.flatnonzero(row).tolist()
            store = stores[far_ids[0] < nh]  # the axis opposite to the far set's
            for j in far_ids:
                for jp in store.pop_crossing(*mids[j]):
                    reverse[jp].append(i)
                    provenance[(i, jp)] = j
            store.restore()
        for jp in sorted(reverse.keys() & rows.keys()):
            sources = reverse[jp]  # increasing: the horizontal rectangles, then the vertical ones
            far_jp = rows[jp]  # far[i', j'] = far[j', i']
            split = bisect_left(sources, nh)
            for group in (sources[:split], sources[split:]):
                if not group:
                    continue
                store = stores[group[0] < nh]
                for i in group:
                    for ip in store.pop_crossing(*mids[i]):
                        if far_jp[ip]:
                            return (i, ip, provenance[(i, jp)], jp)
                store.restore()
        return None
    finally:
        if log.isEnabledFor(logging.DEBUG):
            h, v = stores
            rounds, pops = h.rounds + v.rounds, h.pops + v.pops
            log.debug("diameter fast: %d/%d store entries (H/V), %d rounds, %d pops", h.entries, v.entries, rounds, pops)


def _face_center(graph: OrientedGraph, a: int, b: int | None = None) -> Point:
    """The centre of the face of edge (a, b), ``b`` by default ``a``'s lowest neighbour."""
    boxes = graph.boxes[[a, int(graph.neighbours(a)[0]) if b is None else b]]
    low, high = boxes[:, ::2].max(axis=0), boxes[:, 1::2].min(axis=0)  # the face's (xmin, ymin), (xmax, ymax)
    return tuple(((low + high) // 2).tolist())


def small_case_fallback(levels: Levels, which: str):
    """The diameter or radius below the engines' threshold, from the overlay faces of ``levels.graph``.

    Each face stands for its centre; face pairs sharing a rectangle are at
    2, others at the four-way minimum.  Called by the router only when the
    oriented value (``ordiam`` or ``orrad``) is below 4; the diameter relies
    on it, as the engines rely on theirs.  Then two faces (h, v) and (h',
    v') of different rectangles have ``dm[v, h']`` and ``dm[h, v']``, even
    H-V distances of at most 3, at 2, so every face pair is at 2: the
    diameter is 2, witnessed by a generic pair of the first largest face, in
    O(chi), and reads no far relation.  Face a has
    eccentricity at least t exactly when some face b is far at t on all
    four pairs, the edge-scan's cover test with AND for OR; faces sharing a
    rectangle never are, as ``dm[x, x] = 1``.  So the radius is ``t - 1``
    for the least ``t >= 3`` at which :func:`radius_edge_scan` with that
    test leaves an edge uncovered, and the first such face is the centre,
    the first face of least eccentricity.  Exact for any oriented value.
    ``which`` is ``"diameter"`` or ``"radius"``, as :func:`compute` checks.
    """
    graph = levels.graph
    if which == "diameter":
        faces = overlay_faces(graph)
        biggest = int(np.argmax((faces[:, 1] - faces[:, 0]) * (faces[:, 3] - faces[:, 2])))
        pair = generic_pair_in_box(tuple(faces[biggest].tolist()))
        return DiameterResult(value=2, pair=pair, witness_rects=tuple(graph.edges[biggest].tolist()), engine=FALLBACK)

    t = 3  # every face pair is at 2 or more
    while (edge := radius_edge_scan(graph, levels.far(t), np.bitwise_and)) is None:
        t += 1  # ends by ordiam + 1, where nothing is far
    return RadiusResult(value=t - 1, center=_face_center(graph, *edge), witness=("face", edge), engine=FALLBACK)


def compute(kind: str, levels: Levels, algo: str = EDGE_SCAN) -> DiameterResult | RadiusResult:
    """The diameter or radius by engine ``algo``, or by the fallback below 4.

    ``levels`` is ``all_pairs(graph)``, computed once by
    :func:`~rectilink.pipeline.prepare`; the router reads only the extreme
    of ``kind`` from it (:meth:`~rectilink.graph.Levels.extreme`), computed
    on first use.  A routed result has engine ``fallback``.  The engine
    decides on the far relation ``levels.far(oriented)``, which the
    extreme's own test and later calls at the same threshold share; its
    decision becomes the result here.  The route, its reason and the
    far-entry count go to the ``rectilink`` logger at debug level, counted
    only when that level is on.
    """
    if kind not in ALGOS:
        raise UnknownChoiceError(f"unknown kind {kind!r} (choose from {', '.join(ALGOS)})")
    if algo not in ALGOS[kind]:
        raise UnknownChoiceError(f"unknown {kind} algorithm {algo!r} (choose from {', '.join(ALGOS[kind])})")
    graph = levels.graph
    oriented, rects = levels.extreme(kind)
    if log.isEnabledFor(logging.DEBUG):
        name = "ordiam" if kind == "diameter" else "orrad"
        route = f"fallback, {name}={oriented} < 4" if oriented < 4 else f"{algo}, {name}={oriented}"
        far_entries = int(_popcount(levels.far(oriented)).sum())
        log.debug("%s: %s, %d far entries", kind, route, far_entries)
    if oriented < 4:
        return small_case_fallback(levels, kind)
    engine = {  # looked up per call, so that rebinding a module attribute reaches the engine
        ("diameter", EDGE_SCAN): diameter_edge_scan,
        ("diameter", MATMUL): diameter_matmul,
        ("diameter", FAST): diameter_fast,
        ("radius", EDGE_SCAN): radius_edge_scan,
        ("radius", MATMUL): radius_matmul,
    }[kind, algo]
    decision = engine(graph, levels.far(oriented))
    if kind == "diameter":
        if decision is None:  # no witness quad: the far pair itself is at ordiam - 2
            i, j = rects
            return DiameterResult(oriented - 2, (_face_center(graph, i), _face_center(graph, j)), rects, algo)
        i, ip, j, jp = decision
        return DiameterResult(oriented - 1, (_face_center(graph, i, ip), _face_center(graph, j, jp)), decision, algo)
    if decision is None:  # every edge is covered: the centre rectangle is at orrad - 1
        return RadiusResult(oriented - 1, _face_center(graph, *rects), ("rect", rects), algo)
    return RadiusResult(oriented - 2, _face_center(graph, *decision), ("edge", decision), algo)
