"""Bipartite crossing graph over the two decompositions and its distance table.

Vertices are the rectangles of both decompositions (horizontal block first),
edges join pairs of opposite orientation whose interiors overlap.  Two such
rectangles overlap exactly when their middle segments cross, so the edges
come from :func:`rectilink.geometry.crossings`, the closed crossing test that
the validator runs on the boundary edges of the domain's edge table, here run
on the middle segments of the decompositions' box arrays.  The graph is a
few read-only arrays, built once: the rectangles' boxes and middle
segments, the edges sorted by (h, v) and the CSR groups that the searches
and the engines read; it holds no per-rectangle object.  The oriented
distance between two rectangles is the hop distance in this graph plus one;
it equals the fewest links of a path that starts along the first
rectangle's orientation and ends along the second's.

The graph is bipartite and undirected, so the table is symmetric and only the
horizontal sources need a search: the vertical-to-horizontal block is the
transpose of the horizontal-to-vertical one, and the vertical-to-vertical
block follows from one min-plus step over the crossing edges, since every
path out of a vertical rectangle starts with an edge to a horizontal one.
It runs over degree layers, one contiguous ``np.minimum`` per layer.
The search advances every horizontal source one level per pass, 64 sources
to a machine word, and stops gathering for targets that every source has
reached, unless a level bound read off one breadth-first row says the
levels are too many for the edges (a long corridor); then it searches from
each source in turn.  The same bound caps every entry, so the table takes
one byte per entry when the bound (or m) is at most 255, and two
otherwise.  A point query reads one row of the table, which
:func:`bfs_from` computes without it.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DisconnectedGraphError, ResourceLimitError
from .geometry import Decomposition, Orientation, blocks, crossings

DistanceMatrix = np.ndarray  # (m, m) uint8 when every entry fits, else uint16; entry = hop distance + 1

log = logging.getLogger("rectilink")


@dataclass(frozen=True, eq=False)
class OrientedGraph:
    """Crossing graph as read-only arrays, the horizontal rectangles numbered first.

    ``boxes[i]`` is rectangle i's ``(xmin, xmax, ymin, ymax)`` and ``mids[i]``
    its middle segment ``(fixed, lo, hi)``: at height ``fixed`` from ``lo``
    to ``hi`` for a horizontal rectangle, at abscissa ``fixed`` for a
    vertical one.  ``edges`` holds the (horizontal id, vertical id) pairs,
    sorted.  Rectangle i's neighbours, increasing, are ``indices[indptr[i] :
    indptr[i + 1]]``; ``indptr[: nh + 1]`` and ``indptr[nh:]`` are the two
    sides' groups.
    """

    boxes: np.ndarray  # (m, 4)
    mids: np.ndarray  # (m, 3)
    nh: int
    edges: np.ndarray  # (chi, 2)
    indptr: np.ndarray  # (m + 1,)
    indices: np.ndarray  # (2 * chi,)

    @property
    def m(self) -> int:
        return len(self.boxes)

    @property
    def chi(self) -> int:
        return len(self.edges)

    def neighbours(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def orientation_of(self, i: int) -> Orientation:
        return Orientation.HORIZONTAL if i < self.nh else Orientation.VERTICAL


@dataclass(frozen=True)
class GraphSummary:
    ordiam: int
    orrad: int
    diam_pair: tuple[int, int]
    center_rect: int


def build_graph(hdec: Decomposition, vdec: Decomposition) -> OrientedGraph:
    """Assemble the crossing graph from both decompositions of one domain.

    The rectangles are ``hdec.boxes`` followed by ``vdec.boxes``, so the
    horizontal ones keep their ids ``0..nh-1`` and the vertical ones follow.
    A middle segment joins the midpoints of a rectangle's short sides, exact
    because all coordinates are doubled on ingest; two rectangles of
    opposite orientation overlap properly exactly when their middle segments
    cross, both intervals closed.  :func:`rectilink.geometry.crossings`
    finds those pairs with at most ``m`` candidates per block, so no
    temporary outgrows the graph's size.
    """
    nh = len(hdec)
    boxes = np.concatenate([hdec.boxes, vdec.boxes])
    m = len(boxes)
    x, y = boxes[:, :2], boxes[:, 2:]
    mids = np.concatenate(
        [np.column_stack([y[:nh].sum(axis=1) // 2, x[:nh]]), np.column_stack([x[nh:].sum(axis=1) // 2, y[nh:]])]
    )
    edges = crossings(mids[:nh], mids[nh:]) + [0, nh]
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.bincount(edges.ravel(), minlength=m), out=indptr[1:])
    indices = np.concatenate([edges[:, 1], edges[np.argsort(edges[:, 1], kind="stable"), 0]])
    for array in (boxes, mids, edges, indptr, indices):
        array.flags.writeable = False
    return OrientedGraph(boxes=boxes, mids=mids, nh=nh, edges=edges, indptr=indptr, indices=indices)


def _check_table_ceiling(m: int) -> None:
    """Refuse, before allocating, a graph whose distances could overflow uint16."""
    limit = int(np.iinfo(np.uint16).max)
    if m + 1 >= limit:
        raise ResourceLimitError(
            f"{m} rectangles exceed the uint16 distance table ceiling of {limit - 2}"
        )


def _sparse(graph: OrientedGraph) -> csr_matrix:
    """The CSR groups as a scipy matrix; they store both directions, so a directed search is exact.

    The weights are float64, the type scipy's searches convert any other to on every call.
    """
    return csr_matrix((np.ones(len(graph.indices)), graph.indices, graph.indptr), shape=(graph.m,) * 2)


def bfs_from(graph: OrientedGraph, sources: Sequence[int]) -> np.ndarray:
    """Oriented distances (hops + 1) from the nearest of ``sources`` to every rectangle.

    Each source starts at distance 1, so the row is the minimum of the
    sources' rows of the table: a point query searches from the rectangles
    containing its first point and builds no table.
    """
    _check_table_ceiling(graph.m)
    hops = dijkstra(_sparse(graph), directed=True, unweighted=True, indices=sources, min_only=True)
    unreached = np.flatnonzero(np.isinf(hops))
    if len(unreached):
        names = [f"{graph.orientation_of(i).name.lower()} rectangle {i}" for i in (unreached[0], *sources)]
        raise DisconnectedGraphError(
            f"{names[0]} is unreachable from {', '.join(names[1:])}; the domain is not connected"
        )
    return hops.astype(np.uint16) + 1


# all_pairs takes the level search when bound * m <= LEVEL_SEARCH_K * chi;
# the measured crossover behind the constant is in its docstring.  The value
# is provisional: the per-source side serves only long corridors, which no
# benchmark workload exercises yet, so it has been fitted on generated
# domains and on staircase corridors built in the tests alone.
LEVEL_SEARCH_K = 128
# sources per scipy search, rows decoded at once, twice the transpose tile, a quarter of the edges per
# level-search block and of the edges from which the level search skips saturated targets
CHUNK = 256


def _transpose(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[:] = src.T`` in square tiles of ``CHUNK // 2``, so that the rows read and written stay in cache."""
    tile = -(-CHUNK // 2)
    for i in range(0, src.shape[0], tile):
        for j in range(0, src.shape[1], tile):
            dst[j : j + tile, i : i + tile] = src[i : i + tile, j : j + tile].T


def _source_search(graph: OrientedGraph, dm: DistanceMatrix) -> int:
    """Fill ``dm[:nh]`` and ``dm[:, :nh]`` by a scipy search from each horizontal source.

    ``CHUNK`` sources are searched at a time.  Returns 0: no target is skipped.
    """
    nh, sparse = graph.nh, _sparse(graph)
    for start in range(0, nh, CHUNK):
        stop = min(start + CHUNK, nh)
        rows = dijkstra(sparse, directed=True, unweighted=True, indices=np.arange(start, stop))
        dm[start:stop] = rows.astype(dm.dtype) + 1
    _transpose(dm[nh:, :nh], dm[:nh, nh:])
    return 0


def _open_groups(ptr: np.ndarray, nbr: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR groups ``keep`` of ``(ptr, nbr)`` as new groups ``0..len(keep)-1``."""
    lo = ptr[keep]
    degree = ptr[keep + 1] - lo
    kept = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(degree, out=kept[1:])
    return kept, nbr[np.repeat(lo - kept[:-1], degree) + np.arange(kept[-1])]


def _level_search(graph: OrientedGraph, dm: DistanceMatrix) -> int:
    """Fill ``dm[:, :nh]`` and ``dm[:nh]`` by one search from all horizontal sources at once.

    Every rectangle keeps a ``reached`` bitset over the sources, ``W =
    ceil(nh / 64)`` words, source ``s`` at bit ``s``.  Level 1 reaches the
    sources themselves.  Each later level's targets lie on one side of the
    bipartite graph, alternating, and a target's new bits are the OR of its
    neighbours' frontier words, ``& ~reached``: one
    ``np.bitwise_or.reduceat`` over the target's CSR group, for blocks of
    targets that gather at most ``4 * CHUNK`` edges of ``W`` words.

    A target that every source has reached gets no new bit, so its gather is
    wasted; leaving it out is the bottom-up step of multi-source BFS.  When
    the graph has more than ``4 * CHUNK`` edges, each level tests its side's
    open targets against the full source mask, and once more than a quarter
    of them are saturated, it rebuilds the side's CSR groups for the rest;
    later levels on that side gather only those.  Below that size the test
    costs more than it saves.  Returns the number of target gathers skipped,
    counted only when the debug log is on.

    A new bit's level goes into bit planes, plane ``p`` holding bit ``p`` of
    the level, so a level touches only the planes of its set bits.  Bit 0
    is the target's side, horizontal targets sitting at odd levels and
    vertical ones at even levels, so no plane 0 is kept: decoding ``CHUNK``
    rows at a time, in ``dm``'s dtype, sets that bit on the horizontal rows
    and ORs in the planes, writing ``dm[:, :nh]`` in place.  ``dm[:nh, nh:]``
    is its transpose, written in square tiles.  (Scattering each level's new
    bits into the table as they appear measured three times slower.)

    The graph must be connected: ``reduceat`` returns a group's first
    element, not zero, for an empty group, and unreached entries would stay
    unwritten.
    """
    m, nh, chi = graph.m, graph.nh, graph.chi
    words = -(-nh // 64)
    indptr, indices = graph.indptr, graph.indices
    reached = np.zeros((m, words), dtype=np.uint64)
    ids = np.arange(nh)
    reached.view(np.uint8)[ids, ids >> 3] = np.left_shift(1, ids & 7)
    full = np.bitwise_or.reduce(reached[:nh], axis=0)
    prune, debug, skipped = chi > 4 * CHUNK, log.isEnabledFor(logging.DEBUG), 0
    # per target side: its rows, the open targets (None: all), their CSR groups with the neighbours as
    # rows of the other side's frontier, and the groups' blocks
    sides = []
    for rows, ptr, nbr in ((slice(0, nh), indptr[: nh + 1], indices[:chi] - nh), (slice(nh, m), indptr[nh:], indices)):
        sides.append((rows, None, ptr, nbr, list(blocks(ptr, 4 * CHUNK))))
    planes = []
    frontier = reached[:nh].copy()
    for level in range(2, m + 1):
        side = 1 - level % 2
        rows, open_ids, ptr, nbr, spans = sides[side]
        targets = reached[rows]
        new = np.empty_like(targets) if open_ids is None else np.zeros_like(targets)
        for a, b in spans:
            bits = np.bitwise_or.reduceat(frontier[nbr[ptr[a] : ptr[b]]], ptr[a:b] - ptr[a], axis=0)
            at = slice(a, b) if open_ids is None else open_ids[a:b]
            new[at] = bits & ~targets[at]
        if not new.any():
            break
        targets |= new
        for p in range(1, level.bit_length()):
            if level >> p & 1:
                if p > len(planes):
                    planes.append(np.zeros_like(reached))
                planes[p - 1][rows] |= new
        frontier = new
        if open_ids is not None and debug:
            skipped += len(new) - len(open_ids)
        if prune:
            saturated = ((targets if open_ids is None else targets[open_ids]) == full).all(axis=1)
            if 4 * np.count_nonzero(saturated) > len(saturated):
                keep = np.flatnonzero(~saturated)
                ptr, nbr = _open_groups(ptr, nbr, keep)
                keep = keep if open_ids is None else open_ids[keep]
                sides[side] = (rows, keep, ptr, nbr, list(blocks(ptr, 4 * CHUNK)))
    for start in range(0, m, CHUNK):
        stop = min(start + CHUNK, m)
        levels = np.zeros((stop - start, 64 * words), dtype=dm.dtype)
        levels[: max(nh - start, 0)] = 1
        for p, plane in enumerate(planes, 1):
            bits = np.unpackbits(plane[start:stop].view(np.uint8), axis=1, bitorder="little")
            levels |= np.left_shift(bits, p, dtype=dm.dtype)
        dm[start:stop, :nh] = levels[:, :nh]
    _transpose(dm[:nh, nh:], dm[nh:, :nh])
    return skipped


def _select_search(graph: OrientedGraph):
    """The search :func:`all_pairs` takes, and the level bound it chose by.

    Raises :class:`DisconnectedGraphError` from the bounding row.
    """
    bound = 2 * int(bfs_from(graph, [0]).max()) - 1
    if bound * graph.m <= LEVEL_SEARCH_K * graph.chi:
        return _level_search, bound
    return _source_search, bound


def _table(graph: OrientedGraph, search, bound: int) -> DistanceMatrix:
    """The table from ``search``'s horizontal rows and columns and one min-plus step over degree layers.

    Every entry is at most ``min(bound, m)``, so the table is uint8 when that fits, else uint16, and
    ``nearest += 1`` cannot wrap.  Layer k, the k-th neighbour of each vertical of degree above k, is a
    prefix of the verticals ordered by degree, descending.  A vertical with no neighbour would read the
    next one's, so :func:`_select_search`'s connectivity check must run first.
    """
    m, nh = graph.m, graph.nh
    dm = np.empty((m, m), dtype=np.min_scalar_type(min(bound, m)))
    skipped = search(graph, dm)
    offset, neighbours, hv = graph.indptr[nh:], graph.indices, dm[:, nh:]
    degree = np.diff(offset)
    order = np.argsort(-degree, kind="stable")
    first = offset[order]
    nearest = hv[neighbours[first]]
    layers = int(degree.max(initial=0))
    for k in range(1, layers):
        c = np.count_nonzero(degree > k)
        np.minimum(nearest[:c], hv[neighbours[first[:c] + k]], out=nearest[:c])
    nearest += 1
    dm[nh + order, nh:] = nearest
    np.fill_diagonal(dm, 1)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "all_pairs: %s search, level bound %d, %d min-plus layers, %d targets skipped as saturated, m=%d, chi=%d",
            "level" if search is _level_search else "per-source",
            bound,
            layers,
            skipped,
            m,
            graph.chi,
        )
    return dm


def all_pairs(graph: OrientedGraph) -> DistanceMatrix:
    """All oriented distances from a search over the horizontal sources only.

    1. A search fills the horizontal rows and columns, ``dm[H, :]`` and
       ``dm[:, H]``; the table is symmetric, so one half is the transpose of
       the other.
    2. ``dm[v, v'] = 1 + min over h in N(v) of dm[h, v']`` for ``v != v'``,
       and ``dm[v, v] = 1``: a shortest path out of ``v`` starts with an edge
       to some ``h`` in ``N(v)``.  The minimum is one in-place ``np.minimum``
       per degree layer (:func:`_table`), as many as the largest vertical
       degree, which the debug log reports with the targets the level search
       skipped as saturated.

    The search is one of two.  The level search (:func:`_level_search`)
    advances all ``nh`` sources one level per pass, 64 to a machine word,
    for about ``levels * chi * W`` word operations (``W = ceil(nh / 64)``);
    the per-source search, a scipy search from each source, costs about
    ``nh * chi * log m``.  Long corridors have ``levels`` near ``m``, where
    the level search loses badly, so the choice rests on a level bound the
    code can observe: one breadth-first row from rectangle 0 bounds every
    entry by ``bound = 2 * max(row) - 1``.  The level search is taken when
    ``bound * m <= LEVEL_SEARCH_K * chi``.  ``LEVEL_SEARCH_K = 128`` sits
    between the crossovers measured for the whole table with each search
    (2-core x86 host, best of 3): on generated domains, 40x40 to 2000x3
    cells, the level search took 0.2-0.4 of the per-source time up to
    ``bound * m / chi = 51``, 0.4-0.7 at 87-110 and 0.86 at 189; on
    staircase corridors it broke even near 25 (0.5 ms tables) and took
    1.4-2.6 times as long at 34-130 (at most 1.4 ms more), 2.8 at 258
    (``k = 64``), 5.1 at ``k = 500`` and 11 at ``k = 1000``.  One constant
    cannot fit both families, so the value favours generated domains, whose
    traffic the benchmark measures; the corridors it misroutes (ratios 25 to
    128) lose at most 1.4 ms each.  The per-source search is kept only for
    corridors, which no benchmark workload exercises yet, and the constant
    is provisional until one does.  The same row refuses a disconnected
    graph, before the level search's ``reduceat`` or a min-plus layer could
    read an isolated rectangle's empty group.  The bound also sets the
    table's dtype: one byte per entry when ``min(bound, m) <= 255``.

    The min-plus step holds at most ``nv`` squared.
    """
    _check_table_ceiling(graph.m)
    return _table(graph, *_select_search(graph))


def summarize(dm: DistanceMatrix) -> GraphSummary:
    """Extremes of the distance table with witnesses, from one pass over it.

    ``diam_pair`` is the first maximum in row-major order: the first row whose
    maximum is the table's, and that row's first maximal column.
    """
    row_max = dm.max(axis=1)
    i = int(np.argmax(row_max))
    return GraphSummary(
        ordiam=int(row_max[i]),
        orrad=int(row_max.min()),
        diam_pair=(i, int(np.argmax(dm[i]))),
        center_rect=int(np.argmin(row_max)),
    )

