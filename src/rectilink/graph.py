"""Bipartite crossing graph over the two decompositions and its distance table.

Vertices are the rectangles of both decompositions (horizontal block first),
edges join pairs of opposite orientation whose interiors overlap.  They are
found by one sweep over the rectangles' middle segments, since two rectangles
of opposite orientation overlap exactly when their middle segments cross.  The
oriented distance between two rectangles is the hop distance in this graph
plus one; it equals the fewest links of a path that starts along the first
rectangle's orientation and ends along the second's.

The graph is bipartite and undirected, so the table is symmetric and only the
horizontal rows need a search: the vertical-to-horizontal block is their
transpose, and the vertical-to-vertical block follows from one min-plus step
over the crossing edges, since every path out of a vertical rectangle starts
with an edge to a horizontal one.  A point query reads one row of the table,
which :func:`bfs_from` computes without it.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from sortedcontainers import SortedList

from .crossing import StoredSegment
from .errors import DisconnectedGraphError, ResourceLimitError
from .geometry import Decomposition, Orientation, Rect

DistanceMatrix = np.ndarray  # (m, m) uint16, entry = hop distance + 1


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
        raise DisconnectedGraphError(
            f"rectangle {dist.index(0)} is unreachable from rectangles {list(sources)}; "
            "the domain is not connected"
        )
    return np.array(dist, dtype=np.uint16)


def all_pairs(graph: OrientedGraph, chunk: int = 256) -> DistanceMatrix:
    """All oriented distances from a search over the horizontal sources only.

    1. A chunked scipy BFS fills the horizontal rows ``dm[H, :]``.  The CSR
       adjacency stores both directions, so a directed search is exact.
    2. ``dm[V, H]`` is the transpose of ``dm[H, V]``, copied chunk by chunk.
    3. ``dm[v, v'] = 1 + min over h in N(v) of dm[h, v']`` for ``v != v'``,
       and ``dm[v, v] = 1``: a shortest path out of ``v`` starts with an edge
       to some ``h`` in ``N(v)``.  The minimum is one ``np.minimum.reduceat``
       over the edges grouped by ``v``.

    ``chunk`` caps both the sources per search and the edges gathered per
    min-plus block, so no temporary grows with ``m`` squared.
    """
    m, nh = graph.m, graph.nh
    _check_table_ceiling(m)
    degree = np.fromiter((len(neigh) for neigh in graph.adj), dtype=np.int64, count=m)
    isolated = np.flatnonzero(degree[nh:] == 0)
    if len(isolated):
        raise DisconnectedGraphError(
            f"vertical rectangle {nh + int(isolated[0])} crosses no horizontal one; "
            "the domain is not connected"
        )
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter(
        (w for neigh in graph.adj for w in neigh), dtype=np.int64, count=indptr[-1]
    )
    sparse = csr_matrix((np.ones(len(indices), dtype=np.uint8), indices, indptr), shape=(m, m))
    dm = np.empty((m, m), dtype=np.uint16)
    for start in range(0, nh, chunk):
        stop = min(start + chunk, nh)
        rows = dijkstra(sparse, directed=True, unweighted=True, indices=np.arange(start, stop))
        if np.isinf(rows).any():
            raise DisconnectedGraphError(
                f"horizontal rectangle {start + int(np.argwhere(np.isinf(rows))[0, 0])} "
                "does not reach every rectangle; the domain is not connected"
            )
        dm[start:stop] = rows.astype(np.uint16) + 1
        dm[nh:, start:stop] = dm[start:stop, nh:].T
    # Horizontal neighbours grouped by vertical rectangle: v's group is
    # neighbours[offset[v - nh] : offset[v - nh + 1]].
    offset = indptr[nh:] - indptr[nh]
    neighbours = indices[indptr[nh] :]
    g = 0
    while g < graph.nv:
        end = int(np.searchsorted(offset, offset[g] + chunk, side="right")) - 1
        end = max(end, g + 1)  # a group larger than the cap is taken whole
        block = dm[neighbours[offset[g] : offset[end]], nh:]
        nearest = np.minimum.reduceat(block, offset[g:end] - offset[g], axis=0)
        dm[nh + g : nh + end, nh:] = nearest + 1
        g = end
    np.fill_diagonal(dm, 1)
    return dm


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

