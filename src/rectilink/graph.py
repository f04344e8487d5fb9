"""Bipartite crossing graph over the two decompositions and its distance table.

Vertices are the rectangles of both decompositions (horizontal block first),
edges join pairs of opposite orientation whose interiors overlap.  They are
found by one sweep over the rectangles' middle segments, since two rectangles
of opposite orientation overlap exactly when their middle segments cross.  The
oriented distance between two rectangles is the hop distance in this graph
plus one; it equals the fewest links of a path that starts along the first
rectangle's orientation and ends along the second's.

The graph is bipartite and undirected, so the table is symmetric and only the
horizontal sources need a search: the vertical-to-horizontal block is the
transpose of the horizontal-to-vertical one, and the vertical-to-vertical
block follows from one min-plus step over the crossing edges, since every
path out of a vertical rectangle starts with an edge to a horizontal one.
The search advances every horizontal source one level per pass, 64 sources
to a machine word, unless a level bound read off one breadth-first row says
the levels are too many for the edges (a long corridor); then it searches
from each source in turn.  A point query reads one row of the table, which
:func:`bfs_from` computes without it.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from sortedcontainers import SortedList

from .crossing import StoredSegment
from .errors import DisconnectedGraphError, ResourceLimitError
from .geometry import Decomposition, Orientation, Rect

DistanceMatrix = np.ndarray  # (m, m) uint16, entry = hop distance + 1

log = logging.getLogger("rectilink")


@dataclass(frozen=True)
class OrientedGraph:
    """Crossing graph; ``rects[i].id == i`` for the combined numbering."""

    rects: tuple[Rect, ...]
    nh: int
    nv: int
    adj: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # (horizontal id, vertical id)

    @property
    def m(self) -> int:
        return len(self.rects)

    @property
    def chi(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """``edges`` as one read-only (chi, 2) array, built on first use."""
        edges = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        edges.flags.writeable = False
        return edges

    def orientation_of(self, i: int) -> Orientation:
        return Orientation.HORIZONTAL if i < self.nh else Orientation.VERTICAL

    def ids_of(self, orientation: Orientation) -> range:
        if orientation is Orientation.HORIZONTAL:
            return range(self.nh)
        return range(self.nh, self.nh + self.nv)


@dataclass(frozen=True)
class GraphSummary:
    ordiam: int
    orrad: int
    diam_pair: tuple[int, int]
    center_rect: int


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


def _edges_sweep(rects, nh: int):
    """Middle-segment sweep: O((m + chi) log m) orthogonal crossing reporting."""
    ADD, QUERY, REMOVE = 0, 1, 2
    events = []
    for i in range(nh):
        seg = middle_segment(rects[i])
        events.append((seg.lo, ADD, seg.fixed, i))
        events.append((seg.hi, REMOVE, seg.fixed, i))
    for j in range(nh, len(rects)):
        seg = middle_segment(rects[j])
        events.append((seg.fixed, QUERY, seg.lo, seg.hi, j))
    events.sort(key=lambda e: (e[0], e[1]))
    active = SortedList()
    edges = []
    for ev in events:
        kind = ev[1]
        if kind == ADD:
            active.add((ev[2], ev[3]))
        elif kind == REMOVE:
            active.remove((ev[2], ev[3]))
        else:
            _, _, ylo, yhi, j = ev
            for _, i in active.irange((ylo, -1), (yhi, float("inf"))):
                edges.append((i, j))
    edges.sort()
    return edges


def build_graph(hdec: Decomposition, vdec: Decomposition) -> OrientedGraph:
    """Assemble the crossing graph from both decompositions of one domain.

    The horizontal rectangles keep their ids ``0..nh-1``, as the decomposition
    numbers them; the vertical ones are renumbered after them.  The sweep
    returns the edges sorted, so every adjacency list fills in increasing
    order.
    """
    nh, nv = len(hdec.rects), len(vdec.rects)
    rects = hdec.rects + tuple(dataclasses.replace(r, id=nh + k) for k, r in enumerate(vdec.rects))
    edges = _edges_sweep(rects, nh)
    adj_lists: list[list[int]] = [[] for _ in rects]
    for i, j in edges:
        adj_lists[i].append(j)
        adj_lists[j].append(i)
    return OrientedGraph(rects=rects, nh=nh, nv=nv, adj=tuple(map(tuple, adj_lists)), edges=tuple(edges))


def _check_table_ceiling(m: int) -> None:
    """Refuse, before allocating, a graph whose distances could overflow uint16."""
    limit = int(np.iinfo(np.uint16).max)
    if m + 1 >= limit:
        raise ResourceLimitError(
            f"{m} rectangles exceed the uint16 distance table ceiling of {limit - 2}"
        )


def bfs_from(graph: OrientedGraph, sources: Sequence[int]) -> np.ndarray:
    """Oriented distances (hops + 1) from the nearest of ``sources`` to every rectangle.

    Each source starts at distance 1, so the row is the minimum of the
    sources' rows of the table: a point query searches from the rectangles
    containing its first point and builds no table.
    """
    _check_table_ceiling(graph.m)
    dist = [0] * graph.m  # 0: not reached yet
    queue = deque(sources)
    for s in queue:
        dist[s] = 1
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if not dist[w]:
                dist[w] = dist[u] + 1
                queue.append(w)
    if 0 in dist:
        names = [f"{graph.orientation_of(i).name.lower()} rectangle {i}" for i in (dist.index(0), *sources)]
        raise DisconnectedGraphError(
            f"{names[0]} is unreachable from {', '.join(names[1:])}; the domain is not connected"
        )
    return np.array(dist, dtype=np.uint16)


# all_pairs takes the level search when bound * m <= LEVEL_SEARCH_K * chi;
# the measured crossover behind the constant is in its docstring.  The value
# is provisional: the per-source side serves only long corridors, which no
# benchmark workload exercises yet, so it has been fitted on generated
# domains and on staircase corridors built in the tests alone.
LEVEL_SEARCH_K = 128

Sides = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _blocks(ptr: np.ndarray, cap: int):
    """Consecutive CSR groups ``[a, b)`` holding at most ``cap`` entries; a larger group comes alone."""
    a, n = 0, len(ptr) - 1
    while a < n:
        b = int(np.searchsorted(ptr, ptr[a] + cap, side="right")) - 1
        b = min(max(b, a + 1), n)
        yield a, b
        a = b


def _sides(graph: OrientedGraph) -> Sides:
    """The adjacency as CSR groups per side: (h_ptr, h_nbr, v_ptr, v_nbr).

    Horizontal rectangle h's vertical neighbours are ``h_nbr[h_ptr[h] :
    h_ptr[h + 1]]`` and vertical rectangle ``nh + k``'s horizontal ones are
    ``v_nbr[v_ptr[k] : v_ptr[k + 1]]``, each group increasing, as in ``adj``.
    """
    edges, nh = graph.edge_array, graph.nh
    h_ptr = np.zeros(nh + 1, dtype=np.intp)
    np.cumsum(np.bincount(edges[:, 0], minlength=nh), out=h_ptr[1:])
    v_ptr = np.zeros(graph.nv + 1, dtype=np.intp)
    np.cumsum(np.bincount(edges[:, 1] - nh, minlength=graph.nv), out=v_ptr[1:])
    return h_ptr, edges[:, 1], v_ptr, edges[np.argsort(edges[:, 1], kind="stable"), 0]


def _source_search(graph: OrientedGraph, sides: Sides, dm: DistanceMatrix, chunk: int) -> None:
    """Fill ``dm[:nh]`` and ``dm[:, :nh]`` by a scipy search from each horizontal source.

    The CSR adjacency stores both directions, so a directed search is exact;
    ``chunk`` sources are searched at a time.
    """
    m, nh = graph.m, graph.nh
    h_ptr, h_nbr, v_ptr, v_nbr = sides
    indptr = np.concatenate([h_ptr, v_ptr[1:] + graph.chi])
    indices = np.concatenate([h_nbr, v_nbr])
    sparse = csr_matrix((np.ones(len(indices), dtype=np.uint8), indices, indptr), shape=(m, m))
    for start in range(0, nh, chunk):
        stop = min(start + chunk, nh)
        rows = dijkstra(sparse, directed=True, unweighted=True, indices=np.arange(start, stop))
        dm[start:stop] = rows.astype(np.uint16) + 1
        dm[nh:, start:stop] = dm[start:stop, nh:].T


def _level_search(graph: OrientedGraph, sides: Sides, dm: DistanceMatrix, chunk: int) -> None:
    """Fill ``dm[:, :nh]`` and ``dm[:nh]`` by one search from all horizontal sources at once.

    Every rectangle keeps a ``reached`` bitset over the sources, ``W =
    ceil(nh / 64)`` words, source ``s`` at bit ``s``.  Level 1 reaches the
    sources themselves.  Each later level's targets lie on one side of the
    bipartite graph, alternating, and a target's new bits are the OR of its
    neighbours' frontier words, ``& ~reached``: one
    ``np.bitwise_or.reduceat`` over the target's CSR group, for blocks of
    targets that gather at most ``4 * chunk`` edges of ``W`` words.

    A new bit's level goes into bit planes, plane ``p`` holding bit ``p`` of
    the level, so a level touches only the planes of its set bits.  Decoding
    the planes, ``chunk`` rows at a time, writes ``dm[:, :nh]`` in place;
    ``dm[:nh, nh:]`` is its transpose.  (Scattering each level's new bits
    into the table as they appear measured three times slower.)

    The graph must be connected: ``reduceat`` returns a group's first
    element, not zero, for an empty group, and unreached entries would stay
    unwritten.
    """
    m, nh = graph.m, graph.nh
    words = -(-nh // 64)
    h_ptr, h_nbr, v_ptr, v_nbr = sides
    # per target side: CSR groups, the neighbours as rows of the other side's frontier, the first id
    targets_of = ((h_ptr, h_nbr - nh, 0), (v_ptr, v_nbr, nh))
    reached = np.zeros((m, words), dtype=np.uint64)
    ids = np.arange(nh)
    reached.view(np.uint8)[ids, ids >> 3] = np.left_shift(1, ids & 7)
    planes = [reached.copy()]
    frontier = reached[:nh].copy()
    for level in range(2, m + 1):
        ptr, nbr, first = targets_of[1 - level % 2]
        targets = reached[first : first + len(ptr) - 1]
        new = np.empty_like(targets)
        for a, b in _blocks(ptr, 4 * chunk):
            bits = np.bitwise_or.reduceat(frontier[nbr[ptr[a] : ptr[b]]], ptr[a:b] - ptr[a], axis=0)
            np.bitwise_and(bits, ~targets[a:b], out=new[a:b])
        if not new.any():
            break
        targets |= new
        for p in range(level.bit_length()):
            if level >> p & 1:
                if p == len(planes):
                    planes.append(np.zeros_like(reached))
                planes[p][first : first + len(new)] |= new
        frontier = new
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        levels = np.zeros((stop - start, 64 * words), dtype=np.uint16)
        for p, plane in enumerate(planes):
            bits = np.unpackbits(plane[start:stop].view(np.uint8), axis=1, bitorder="little")
            levels |= bits.astype(np.uint16) << p
        dm[start:stop, :nh] = levels[:, :nh]
    for start in range(0, nh, chunk):
        dm[start : start + chunk, nh:] = dm[nh:, start : start + chunk].T


def _select_search(graph: OrientedGraph):
    """The search :func:`all_pairs` takes, and the level bound it chose by.

    Raises :class:`DisconnectedGraphError` from the bounding row.
    """
    bound = 2 * int(bfs_from(graph, [0]).max()) - 1
    if bound * graph.m <= LEVEL_SEARCH_K * graph.chi:
        return _level_search, bound
    return _source_search, bound


def _table(graph: OrientedGraph, search, chunk: int) -> DistanceMatrix:
    """The table from ``search``'s horizontal rows and columns and one min-plus step."""
    m, nh = graph.m, graph.nh
    sides = _sides(graph)
    dm = np.empty((m, m), dtype=np.uint16)
    search(graph, sides, dm, chunk)
    # Horizontal neighbours grouped by vertical rectangle, as the min-plus step reads them.
    _, _, offset, neighbours = sides
    for a, b in _blocks(offset, chunk):
        block = dm[neighbours[offset[a] : offset[b]], nh:]
        nearest = np.minimum.reduceat(block, offset[a:b] - offset[a], axis=0)
        dm[nh + a : nh + b, nh:] = nearest + 1
    np.fill_diagonal(dm, 1)
    return dm


def all_pairs(graph: OrientedGraph, chunk: int = 256) -> DistanceMatrix:
    """All oriented distances from a search over the horizontal sources only.

    1. A search fills the horizontal rows and columns, ``dm[H, :]`` and
       ``dm[:, H]``; the table is symmetric, so one half is the transpose of
       the other.
    2. ``dm[v, v'] = 1 + min over h in N(v) of dm[h, v']`` for ``v != v'``,
       and ``dm[v, v] = 1``: a shortest path out of ``v`` starts with an edge
       to some ``h`` in ``N(v)``.  The minimum is one ``np.minimum.reduceat``
       over the edges grouped by ``v``.

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
    graph, before any ``reduceat`` could read an isolated rectangle's empty
    group.

    ``chunk`` caps the sources per scipy search, the edges gathered per
    block (``4 * chunk`` of ``W`` words in the level search, ``chunk``
    table rows in the min-plus step) and the rows decoded at once, so no
    temporary grows with ``m`` squared.
    """
    _check_table_ceiling(graph.m)
    search, bound = _select_search(graph)
    log.debug(
        "all_pairs: %s search, level bound %d, m=%d, chi=%d",
        "level" if search is _level_search else "per-source",
        bound,
        graph.m,
        graph.chi,
    )
    return _table(graph, search, chunk)


def summarize(dm: DistanceMatrix) -> GraphSummary:
    """Extremes of the distance table with witnesses."""
    flat = int(np.argmax(dm))
    i, j = divmod(flat, dm.shape[1])
    row_max = dm.max(axis=1)
    return GraphSummary(
        ordiam=int(dm[i, j]),
        orrad=int(row_max.min()),
        diam_pair=(i, j),
        center_rect=int(np.argmin(row_max)),
    )

