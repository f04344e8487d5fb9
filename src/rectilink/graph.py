"""Bipartite crossing graph over the two decompositions and its oriented distances as bit planes.

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

The graph is bipartite and undirected, so the distances are symmetric and
only the horizontal sources need a search.  The search advances every
horizontal source one level per pass, 64 sources to a machine word, and
stops gathering for targets that every source has reached, unless a level
bound read off one breadth-first order says the levels are too many for the
edges (a long corridor); then it searches from each source in turn.  A
caller that reads only the radius stops the level search at the least
eccentricity, past which the radius reads no level.  Either way the result
is :class:`Levels`, the levels as bit planes, 64 sources to a word.  No
table is built: the engines decide on a far relation ``dm >= t``, which
:meth:`Levels.far` reads off the planes as packed bits, the
vertical-to-horizontal block by a bit-sliced compare, the
horizontal-to-vertical block as its transpose, and the vertical-to-vertical
block as one AND over the crossing edges, since every path out of a
vertical rectangle starts with an edge to a horizontal one.  The searches
and the AND are one group reduce, :func:`_group_reduce`, which gathers rows
of words with ``take``; the one bit transpose, which the matmul engines
share, moves 8x8 bit tiles held in single words.  :meth:`Levels.extreme`
computes the oriented diameter or radius from the planes and, for the few
verticals that could change the extreme, one read of their rows of the far
relation, mostly at the threshold the engine then reads.  A point query
reads one row of distances, which :func:`bfs_from` computes alone.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import CappedLevelsError, DisconnectedGraphError, ResourceLimitError
from .geometry import Decomposition, Orientation, blocks, crossings

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
    # The vertical side's groups: keys v * nh + h, sorted, hold each v's neighbours in increasing order.
    indices = np.concatenate([edges[:, 1], np.sort(edges[:, 1] * nh + edges[:, 0]) % nh])
    for array in (boxes, mids, edges, indptr, indices):
        array.flags.writeable = False
    return OrientedGraph(boxes=boxes, mids=mids, nh=nh, edges=edges, indptr=indptr, indices=indices)


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
    hops = dijkstra(_sparse(graph), directed=True, unweighted=True, indices=sources, min_only=True)
    unreached = np.flatnonzero(np.isinf(hops))
    if len(unreached):
        raise _disconnected(graph, int(unreached[0]), sources)
    return hops.astype(np.intp) + 1


def _disconnected(graph: OrientedGraph, unreached: int, sources: Sequence[int]) -> DisconnectedGraphError:
    """The error naming rectangle ``unreached``, which the search from ``sources`` did not reach."""
    names = [f"{graph.orientation_of(i).name.lower()} rectangle {i}" for i in (unreached, *sources)]
    return DisconnectedGraphError(
        f"{names[0]} is unreachable from {', '.join(names[1:])}; the domain is not connected"
    )


# all_pairs takes the level search when bound * m <= LEVEL_SEARCH_K * chi;
# the measured crossover behind the constant is in its docstring.  The value
# is provisional: the per-source side serves only long corridors, which no
# benchmark workload exercises yet, so it has been fitted on generated
# domains and on staircase corridors built in the tests alone.
LEVEL_SEARCH_K = 128
# sources per scipy search (rounded up to whole words), rows bit-transposed at once, a quarter of the edges
# per block of a group reduce (the level search's OR, the far relation's AND), and of the edges from which the
# level search skips saturated targets
CHUNK = 256


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_memory(graph: OrientedGraph, bound: int) -> None:
    """Refuse, before the search allocates, a graph whose planes, ``reached`` and one far relation exceed memory.

    Every level is at most ``min(bound, m)``, so the search keeps at most that many bits' planes, less bit 0.
    """
    m, words = graph.m, -(-graph.nh // 64)
    planes = max(min(bound, m).bit_length() - 1, 0)
    need = 8 * m * ((planes + 1) * words + -(-m // 64))
    have = _physical_memory()
    if have is not None and need > have:
        raise ResourceLimitError(
            f"{m} rectangles need {need} bytes for {planes} bit planes, the reached sets and one far relation,"
            f" more than the {have} bytes of physical memory"
        )


def _source_search(graph: OrientedGraph, stop_from: int | None = None) -> tuple[list[np.ndarray], int, None]:
    """The bit planes of :func:`_level_search`, from a scipy search out of each horizontal source.

    ``CHUNK`` sources, rounded up to whole words, are searched at a time,
    and each bit of their levels is packed into its plane.  Each chunk's
    search runs to its last level, so ``stop_from`` changes nothing.
    Returns the planes, 0 (no target is skipped) and None (every level is
    exact).
    """
    m, nh, sparse = graph.m, graph.nh, _sparse(graph)
    words, step = -(-nh // 64), 64 * -(-CHUNK // 64)
    planes: list[np.ndarray] = []
    for start in range(0, nh, step):
        stop = min(start + step, nh)
        levels = dijkstra(sparse, directed=True, unweighted=True, indices=np.arange(start, stop)).T.astype(np.intp) + 1
        for p in range(1, int(levels.max()).bit_length()):
            if p > len(planes):
                planes.append(np.zeros((m, words), dtype=np.uint64))
            bits = np.packbits(levels >> p & 1, axis=1, bitorder="little")
            planes[p - 1].view(np.uint8)[:, start // 8 : start // 8 + bits.shape[1]] = bits
    return planes, 0, None


def _groups(ptr: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """CSR groups ``(ptr, nbr)`` and their blocks of at most ``4 * CHUNK`` entries, cut once for every reduce."""
    return ptr, nbr, list(blocks(ptr, 4 * CHUNK))


def _open_groups(ptr: np.ndarray, nbr: np.ndarray, keep: np.ndarray):
    """The CSR groups ``keep`` of ``(ptr, nbr)`` as new groups ``0..len(keep)-1``, as :func:`_groups` returns them."""
    lo = ptr[keep]
    degree = ptr[keep + 1] - lo
    kept = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(degree, out=kept[1:])
    return _groups(kept, nbr[np.repeat(lo - kept[:-1], degree) + np.arange(kept[-1])])


def _group_reduce(ufunc: np.ufunc, rows: np.ndarray, groups):
    """``ufunc`` over the rows ``rows[nbr[ptr[g] : ptr[g + 1]]]`` of each group g of ``groups = (ptr, nbr, spans)``.

    Yields ``(a, b, out)`` per block ``[a, b)`` of :func:`_groups`, ``out[k]``
    the result of group ``a + k``: one ``take`` and one ``reduceat`` that
    gather at most ``4 * CHUNK`` rows, unless one group is larger.  Every
    group must be non-empty: ``reduceat`` returns the next group's first row,
    not the identity, for an empty one.
    """
    ptr, nbr, spans = groups
    for a, b in spans:
        yield a, b, ufunc.reduceat(rows.take(nbr[ptr[a] : ptr[b]], axis=0), ptr[a:b] - ptr[a], axis=0)


def _level_search(graph: OrientedGraph, stop_from: int | None = None) -> tuple[list[np.ndarray], int, int | None]:
    """The levels from every horizontal source, as bit planes, by one search from all of them at once.

    Every rectangle keeps a ``reached`` bitset over the sources, ``W =
    ceil(nh / 64)`` words, source ``s`` at bit ``s``.  Level 1 reaches the
    sources themselves.  Each later level's targets lie on one side of the
    bipartite graph, alternating, and a target's new bits are the OR of its
    neighbours' frontier words, ``& ~reached``: the OR over the targets' CSR
    groups of :func:`_group_reduce`, whose blocks gather at most ``4 *
    CHUNK`` edges of ``W`` words.

    A target that every source has reached gets no new bit, so its gather is
    wasted; leaving it out is the bottom-up step of multi-source BFS.  When
    the graph has more than ``4 * CHUNK`` edges, each level tests its side's
    open targets against the full source mask, and once more than a quarter
    of them are saturated, it rebuilds the side's CSR groups for the rest;
    later levels on that side gather only those.  Below that size the test
    costs more than it saves, and so it does in a search that stops at the
    radius (below): a target saturates only once every source lies within
    the level, which makes one of its neighbours' or its own eccentricity
    at most two above it, so no target saturates before level ``R - 2``.

    A new bit's level goes into bit planes, plane ``p - 1`` holding bit
    ``p`` of the level, so a level touches only the planes of its set bits.
    Bit 0 is the target's side, horizontal targets sitting at odd levels and
    vertical ones at even levels, so it needs no plane.

    With ``stop_from``, the search stops after the first level ``R`` at
    which some source has reached every rectangle, testing from level
    ``stop_from`` on, which must not exceed ``R``: ``R`` is the least
    eccentricity of a horizontal rectangle, and the radius reads no level
    past it.  Every pair not reached by then is at ``R + 1`` or more, so it
    is written as the least level above ``R`` of its row's side, its bits
    masked to the sources so that the pad bits stay clear.  The planes then
    give every far relation ``dm >= t`` exactly for ``t <= R + 1``, the cap,
    and every eccentricity exactly where it is ``R``.

    Returns the planes, ``(m, W)`` words each, the number of target gathers
    skipped and the cap, or None when every level was searched.  The graph
    must be connected, so that no group is empty.
    """
    m, nh, chi = graph.m, graph.nh, graph.chi
    words = -(-nh // 64)
    indptr, indices = graph.indptr, graph.indices
    reached = np.zeros((m, words), dtype=np.uint64)
    ids = np.arange(nh)
    reached.view(np.uint8)[ids, ids >> 3] = np.left_shift(1, ids & 7)
    full = np.bitwise_or.reduce(reached[:nh], axis=0)
    prune, skipped = chi > 4 * CHUNK and stop_from is None, 0
    # per target side: its rows, the open targets (None: all) and their CSR groups with the neighbours as
    # rows of the other side's frontier
    sides = [
        (slice(0, nh), None, _groups(indptr[: nh + 1], indices[:chi] - nh)),
        (slice(nh, m), None, _groups(indptr[nh:], indices)),
    ]
    planes: list[np.ndarray] = []

    def write(rows: slice, bits: np.ndarray, level: int) -> None:
        """OR ``bits`` into the rows ``rows`` of the planes of ``level``'s set bits, bit 0 aside."""
        for p in range(1, level.bit_length()):
            if level >> p & 1:
                while p > len(planes):
                    planes.append(np.zeros_like(reached))
                planes[p - 1][rows] |= bits

    frontier = reached[:nh].copy()
    for level in range(2, m + 1):
        side = 1 - level % 2
        rows, open_ids, groups = sides[side]
        targets = reached[rows]
        new = np.empty_like(targets) if open_ids is None else np.zeros_like(targets)
        for a, b, bits in _group_reduce(np.bitwise_or, frontier, groups):
            at = slice(a, b) if open_ids is None else open_ids[a:b]
            new[at] = bits & ~targets[at]
        if not new.any():
            break
        targets |= new
        write(rows, new, level)
        frontier = new
        if open_ids is not None:
            skipped += len(new) - len(open_ids)
        if stop_from is not None and level >= stop_from and np.bitwise_and.reduce(reached, axis=0).any():
            for k, (part, _, _) in enumerate(sides):  # horizontal rows sit at odd levels, vertical ones at even
                write(part, full & ~reached[part], level + 1 + (level + k) % 2)
            return planes, skipped, level + 1
        if prune:
            saturated = ((targets if open_ids is None else targets[open_ids]) == full).all(axis=1)
            if 4 * np.count_nonzero(saturated) > len(saturated):
                keep = np.flatnonzero(~saturated)
                sides[side] = (rows, keep if open_ids is None else open_ids[keep], _open_groups(*groups[:2], keep))
    return planes, skipped, None


def _select_search(graph: OrientedGraph):
    """The search :func:`all_pairs` takes, and the level bound it chose by.

    No two rectangles are further apart than their hops to rectangle 0
    together, so with ``e`` the most hops from it, no oriented distance
    exceeds ``bound = 2 * e + 1``.  One breadth-first order from rectangle
    0 gives ``e``: the hops from its last rectangle back to 0 along the
    predecessors.  Raises :class:`DisconnectedGraphError` when the order
    misses a rectangle.
    """
    order, pred = breadth_first_order(_sparse(graph), 0, directed=True, return_predecessors=True)
    if len(order) < graph.m:
        reached = np.zeros(graph.m, dtype=bool)
        reached[order] = True
        raise _disconnected(graph, int(np.argmin(reached)), [0])
    hops, at = 0, int(order[-1])
    while at:
        at, hops = int(pred[at]), hops + 1
    bound = 2 * hops + 1
    if bound * graph.m <= LEVEL_SEARCH_K * graph.chi:
        return _level_search, bound
    return _source_search, bound


# The three rounds of an 8x8 bit transpose in one word, byte i holding row i, as (shift, mask, 1 + 2**shift):
# each swaps the bits of the 1x1, 2x2 and 4x4 blocks off the diagonal that the mask selects with those
# ``shift`` bits above them (Warren, Hacker's Delight 7-3).  The swap bits t and t << shift never overlap, so
# one multiply by 1 + 2**shift makes both.
_TILE_ROUNDS = tuple(
    tuple(np.array(c, dtype=np.uint64) for c in (shift, mask, 1 + (1 << shift)))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose_bits(bits: np.ndarray, ncols: int) -> np.ndarray:
    """The ``(ncols, ceil(rows / 64))`` words of the bit rows ``bits`` transposed, ``CHUNK`` rows at a time.

    Row r's column c is bit c of ``bits[r]``; it becomes bit r of row c.
    Each run of ``CHUNK`` rows, rounded up to eight, is cut into 8x8 tiles,
    eight rows by one byte of columns, each held in one word, byte i for
    row i.  Three mask-shift-xor rounds, through one scratch buffer,
    transpose every tile in place, and byte j of a tile is then column j
    over the tile's eight rows: one output byte.  The tiles start at zero,
    so the bits past the last row are zero.  No temporary outgrows two
    runs of ``CHUNK`` rows of ``ncols`` bits.
    """
    rows, nbytes = len(bits), -(-ncols // 8)
    out = np.zeros((8 * nbytes, -(-rows // 64)), dtype=np.uint64)
    dst = out.view(np.uint8).reshape(nbytes, 8, -1)  # output row 8k + j at [k, j]
    src = bits.view(np.uint8)[:, :nbytes]
    step = 8 * -(-CHUNK // 8)
    for a in range(0, rows, step):
        block = src[a : a + step]
        groups = -(-len(block) // 8)
        tile_bytes = np.zeros((nbytes, groups, 8), dtype=np.uint8)  # tile (k, g): byte k of rows 8g..8g+7
        tile_bytes.reshape(nbytes, 8 * groups).T[: len(block)] = block
        tiles = tile_bytes.view(np.uint64)
        scratch = np.empty_like(tiles)
        for shift, mask, both in _TILE_ROUNDS:
            np.right_shift(tiles, shift, scratch)
            np.bitwise_xor(scratch, tiles, scratch)
            np.bitwise_and(scratch, mask, scratch)
            np.multiply(scratch, both, scratch)
            np.bitwise_xor(tiles, scratch, tiles)
        dst[:, :, a // 8 : a // 8 + groups] = tile_bytes.transpose(0, 2, 1)
    return out[:ncols]


def _join(h_bits: np.ndarray, v_bits: np.ndarray, nh: int, m: int) -> np.ndarray:
    """Rows of bits over the ``nh`` horizontal columns, then the vertical ones from bit ``nh``: ``ceil(m / 64)`` words.

    Both inputs hold zeros past their last column, so the vertical words
    shift into place across a word boundary by two ORs.
    """
    words, shift = h_bits.shape[1], nh % 64
    out = np.zeros((len(h_bits), -(-m // 64)), dtype=np.uint64)
    out[:, :words] = h_bits
    if shift == 0:
        out[:, words:] = v_bits
    else:
        out[:, words - 1 : words - 1 + v_bits.shape[1]] |= v_bits << np.uint64(shift)
        out[:, words:] |= (v_bits >> np.uint64(64 - shift))[:, : out.shape[1] - words]
    return out


def _first_bit(words: np.ndarray) -> int:
    """The lowest set bit of a row of words; the row must have one."""
    return int(np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little"))[0])


@dataclass(frozen=True, eq=False)
class Levels:
    """The oriented distances to the horizontal rectangles as bit planes, and the far relations they give.

    ``planes[p - 1][x]`` holds bit ``p`` of ``dm[x, h]`` at bit ``h``, ``W =
    ceil(nh / 64)`` words per row; bit 0 of ``dm[x, h]`` is 1 exactly when
    ``x`` is horizontal, so it has no plane.  The table is symmetric, so
    these are also the horizontal rows.  :meth:`far` reads the relation
    ``dm >= t`` off the planes, with no table, and keeps each threshold's
    relation for the next caller; the blocks it is made of are not kept.
    :meth:`extreme` computes the oriented diameter or radius on first use,
    from the horizontal eccentricities, computed once, and at most one row
    read of a far relation.

    A search stopped at the radius (``all_pairs(graph, "radius")``) sets
    ``cap``: the levels past it are clamped, so :meth:`far` is exact up to
    ``t = cap`` and refuses any larger ``t``, and :meth:`extreme` gives the
    radius only; both refusals raise :class:`~rectilink.CappedLevelsError`.
    """

    graph: OrientedGraph
    planes: tuple[np.ndarray, ...]
    cap: int | None = None  # the largest exact threshold, or None: every level
    _far: dict = field(default_factory=dict, init=False, repr=False)  # threshold -> far relation
    _extremes: dict = field(default_factory=dict, init=False, repr=False)  # kind -> extreme

    def _far_h(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """``far[:, H]`` at ``t >= 2``, ``(m, W)`` words, and ``far[V, H]`` at ``t - 1``, from one compare.

        Bit 0 of a level is the row's side, so only ``level >> 1`` needs the
        planes, against ``u = t >> 1``: a bit-sliced compare from the top
        plane down keeps the bits already above ``u`` and those still equal
        to it.  A horizontal row (odd levels) reaches ``t`` when ``level >>
        1 >= u``; a vertical row (even levels) reaches ``t - 1`` then, and
        ``t`` too for even ``t``, but only when ``level >> 1 > u`` for odd
        ``t``.  ``u >= 1`` leaves the pad bits past column ``nh`` clear, as
        they sit at level 0 or 1.
        """
        nh, u = self.graph.nh, t >> 1
        shape = (self.graph.m, -(-nh // 64))
        if u >= 1 << len(self.planes):  # above every level
            return np.zeros(shape, dtype=np.uint64), np.zeros((shape[0] - nh, shape[1]), dtype=np.uint64)
        above = np.zeros(shape, dtype=np.uint64)
        equal = np.full(shape, ~np.uint64(0))
        for b in range(len(self.planes) - 1, -1, -1):
            bit = self.planes[b]
            if u >> b & 1:
                equal &= bit
            else:
                above |= equal & bit
                equal &= ~bit
        before = above[nh:] | equal[nh:]
        above[:nh] |= equal[:nh]
        if t % 2 == 0:
            above[nh:] = before
        return above, before

    def far(self, t: int) -> np.ndarray:
        """The far relation ``dm >= t``, ``t >= 2``: ``(m, ceil(m / 64))`` read-only words, row x's column j at bit j.

        On a little-endian host its bytes are ``np.packbits(dm >= t, axis=1,
        bitorder="little")``, padded to whole words.  The columns H come from :meth:`_far_h`,
        ``far[H, V]`` is the bit transpose of ``far[V, H]``, and ``far[V,
        V]`` comes from ``far[H, V]`` at ``t - 1``, the same block for even
        ``t``, as vertical-to-horizontal distances are even: off the
        diagonal ``dm[v, v'] = 1 + min over h in N(v) of dm[h, v']``, so row
        v is the AND of those rows over ``N(v)``, by :func:`_group_reduce`
        over the vertical side's CSR groups.  The same AND puts ``dm[v, v] =
        1`` at 3, so the diagonal is cleared for ``t <= 3``.  For odd ``t``
        both ``far[V, H]`` blocks, at ``t`` and at ``t - 1``, are transposed
        in one :func:`_transpose_bits` call, side by side, so a small graph
        pays its fixed cost once.  Computed once per threshold.
        """
        if self.cap is not None and t > self.cap:
            raise CappedLevelsError(
                f"far({t}) needs levels past {self.cap - 1}, where the search stopped for the radius;"
                " prepare the domain without kind='radius'"
            )
        if t not in self._far:
            g = self.graph
            nh, nv = g.nh, g.m - g.nh
            rows, before = self._far_h(t)
            if t % 2 == 0:  # far[V, H] is the same at t - 1
                hv = hv_before = _transpose_bits(before, nh)
            else:  # both blocks side by side in one transpose, the second's columns from bit 64 * W on
                words = before.shape[1]
                both = _transpose_bits(np.concatenate([rows[nh:], before], axis=1), 64 * words + nh)
                hv, hv_before = both[:nh], both[64 * words :]
            columns = np.empty((g.m, hv.shape[1]), dtype=np.uint64)  # far[:, V]: far[H, V], then far[V, V]
            columns[:nh] = hv
            for a, b, bits in _group_reduce(np.bitwise_and, hv_before, _groups(g.indptr[nh:], g.indices)):
                columns[nh + a : nh + b] = bits
            if t <= 3:
                ids = np.arange(nv)
                columns.view(np.uint8)[nh + ids, ids >> 3] &= ~np.left_shift(1, ids & 7).astype(np.uint8)
            out = _join(rows, columns, nh, g.m)
            out.flags.writeable = False
            self._far[t] = out
        return self._far[t]

    @cached_property
    def _eccentricities(self) -> tuple[np.ndarray, tuple[int, int]]:
        """Each horizontal's eccentricity, the maximum of its column, and the table's first maximum over them.

        Bit-sliced from the top plane down: a column's maximum has bit p when
        one of the rows still attaining its higher bits has bit p, and then
        only those rows stay.  Bit 0 is set when a horizontal row is among
        the last, so the rows at the maximum are the last rows of column h on
        the horizontal side for an odd maximum and on the vertical side for
        an even one.  The first maximum is the first horizontal ``i`` of the
        largest eccentricity and the first of those rows in column ``i``.
        Computed once, for both extremes.
        """
        nh, m = self.graph.nh, self.graph.m
        rows = np.full((m, -(-nh // 64)), ~np.uint64(0))
        hits = np.empty((len(self.planes) + 1, rows.shape[1]), dtype=np.uint64)  # the maxima's bits, top bit first
        for k, plane in enumerate(reversed(self.planes)):
            hits[k] = np.bitwise_or.reduce(rows & plane, axis=0)
            rows &= plane | ~hits[k]
        hits[-1] = np.bitwise_or.reduce(rows[:nh], axis=0)
        bits = np.unpackbits(hits.view(np.uint8), axis=1, count=nh, bitorder="little")
        ecc = np.left_shift(1, np.arange(len(hits) - 1, -1, -1)) @ bits
        i = int(np.argmax(ecc))
        top = int(ecc[i])
        side = nh * (1 - top % 2)  # the first row of the side at odd or even distances from i
        column = rows[side : nh if top % 2 else m, i >> 6] >> np.uint64(i & 63) & np.uint64(1)
        return ecc, (i, side + int(np.flatnonzero(column)[0]))

    def _centred_verticals(self, e: int) -> np.ndarray:
        """The verticals, numbered from 0, whose neighbours all have eccentricity ``e``."""
        g = self.graph
        ecc, _ = self._eccentricities
        return np.flatnonzero(np.logical_and.reduceat(ecc[g.indices[g.chi :]] == e, g.indptr[g.nh : g.m] - g.chi))

    def extreme(self, kind: str) -> tuple[int, tuple[int, ...]]:
        """``(ordiam, diam_pair)`` for ``"diameter"``, else ``(orrad, (center_rect,))``; computed once per kind.

        ``diam_pair`` is the table's first maximum in row-major order and
        ``center_rect`` its first row of least eccentricity.  Let ``D`` and
        ``R`` be the largest and smallest eccentricity of a horizontal.
        Crossing rectangles are at most 1 apart in eccentricity, and every
        vertical crosses a horizontal, so ``ordiam`` is ``D`` or ``D + 1``
        and ``orrad`` is ``R - 1`` or ``R``; only a vertical whose neighbours
        all sit at ``D`` (at ``R``) can reach the other value, a test on its
        row of one far relation, and mostly there is none.
        """
        if kind not in self._extremes:
            if kind == "diameter" and self.cap is not None:
                raise CappedLevelsError(
                    "the diameter needs every level, and the search stopped at the radius;"
                    " prepare the domain without kind='radius'"
                )
            self._extremes[kind] = self._diameter() if kind == "diameter" else self._radius()
        return self._extremes[kind]

    def _diameter(self) -> tuple[int, tuple[int, int]]:
        """``D + 1`` and the first such vertical with a ``far(D + 1)`` entry, with that entry; else ``D``.

        Such verticals reach ``D + 1`` far more often than not, so the engine
        mostly reads the same relation.  For ``D`` the eccentricities give
        the first maximum.
        """
        ecc, pair = self._eccentricities
        top, nh = int(ecc.max()), self.graph.nh
        keep = self._centred_verticals(top)
        if len(keep):
            rows = self.far(top + 1)[nh + keep]
            hits = np.flatnonzero(rows.any(axis=1))
            if len(hits):
                return top + 1, (nh + int(keep[hits[0]]), _first_bit(rows[hits[0]]))
        return top, pair

    def _radius(self) -> tuple[int, tuple[int]]:
        """``R - 1`` and the first such vertical with no ``far(R)`` entry; else ``R`` and the first horizontal there."""
        ecc, _ = self._eccentricities
        low, nh = int(ecc.min()), self.graph.nh
        center = self._centred_verticals(low)
        if len(center):
            center = center[~self.far(low)[nh + center].any(axis=1)]
        if len(center):
            return low - 1, (nh + int(center[0]),)
        return low, (int(np.argmin(ecc)),)


def all_pairs(graph: OrientedGraph, kind: str | None = None) -> Levels:
    """The oriented distances to the horizontal rectangles, as the bit planes of one search from them.

    The table is symmetric and every path out of a vertical rectangle
    starts with an edge to a horizontal one, so these rows determine the
    rest: :meth:`Levels.far` reads any threshold's far relation off them,
    and no table is built.

    ``kind`` is the one extreme the caller will read.  With ``"radius"``,
    the level search stops at the least eccentricity ``R`` of a horizontal
    rectangle, about half of ``ordiam``, since the radius and its engines
    read no far relation past ``R``; the result is capped at ``R + 1``
    (:class:`Levels`).  Any other ``kind`` searches every level.  The
    search tests for ``R`` only from level ``(bound + 1) // 4 + 1`` on,
    with ``bound = 2 * e + 1`` below: by the triangle inequality through
    the rectangle ``e`` hops from rectangle 0, every rectangle has some
    rectangle ``ceil(e / 2)`` hops away, so no eccentricity is lower.

    The search is one of two.  The level search (:func:`_level_search`)
    advances all ``nh`` sources one level per pass, 64 to a machine word,
    for about ``levels * chi * W`` word operations (``W = ceil(nh / 64)``);
    the per-source search, a scipy search from each source, costs about
    ``nh * chi * log m``.  Long corridors have ``levels`` near ``m``, where
    the level search loses badly, so the choice rests on a level bound the
    code can observe: the most hops ``e`` from rectangle 0, read off one
    breadth-first order, bounds every entry by ``bound = 2 * e + 1``.  The
    level search is taken when ``bound * m <= LEVEL_SEARCH_K * chi``.  ``LEVEL_SEARCH_K = 128`` sits
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
    is provisional until one does.  The same order refuses a disconnected
    graph, before the level search's ``reduceat`` could read an isolated
    rectangle's empty group.  The bound also caps the planes, so the bytes
    of the planes, the reached sets and one far relation are checked against
    physical memory before either search allocates.

    The search chosen, its bound, the planes, the targets the level search
    skipped as saturated and where it stopped go to the debug log.
    """
    search, bound = _select_search(graph)
    _check_memory(graph, bound)
    planes, skipped, cap = search(graph, (bound + 1) // 4 + 1 if kind == "radius" else None)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "all_pairs: %s search, level bound %d, %d planes, %d targets skipped as saturated, %s, m=%d, chi=%d",
            "level" if search is _level_search else "per-source",
            bound,
            len(planes),
            skipped,
            "every level" if cap is None else f"stopped at level {cap - 1}, cap {cap}",
            graph.m,
            graph.chi,
        )
    return Levels(graph, tuple(planes), cap)
