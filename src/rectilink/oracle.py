"""Brute-force link distance ground truth on the compressed cut grid.

Completely independent of the decomposition/graph pipeline: the domain is cut
into cells by all vertex coordinates, cells are flagged inside/outside by exact
ray parity, and distances come from a level-synchronous pass over the runs of
inside cells (straight moves along a row or column run are free, each turn and
the initial segment cost one), 64 sources to a machine word.  Distances
between generic points are exact; diameter and radius are evaluated over one
representative per overlay face, which the model derives on its own by merging
stacked grid runs that no boundary chord separates.  The faces are computed
once per grid, as one record array (:meth:`GridModel.faces`): each face's box,
representative and the inside cell the representative lies in.  Both extremes
read each face's eccentricity and the first face at it, kept from one pass over
blocks of source faces: at most ``max(cells, _BLOCK_CELL_WORDS)`` words per word
array and ``2 * faces * block`` level entries at a time, never a faces² table.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

import numpy as np

from .errors import OutsidePointError
from .geometry import Domain, Point, point_out
from .metrics import DiameterResult, ORACLE, RadiusResult, generic_pair_in_box

_INF = np.int64(1) << 40
_MAX_CACHED_SOURCES = 4096
# Inside cells times source words per pass: 256 KiB per word array.  Larger
# blocks measured slower per source once the arrays leave the cache (grid 30
# on a 2-core host: 36 us a source at 2^15 cell-words, 89 us at 2^18).
_BLOCK_CELL_WORDS = 1 << 15


def _runs(line: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run begins, and each cell's run, for cells listed line by line and along each line."""
    new = np.ones(len(line), dtype=bool)
    new[1:] = (line[1:] != line[:-1]) | (pos[1:] != pos[:-1] + 1)
    return np.flatnonzero(new), np.cumsum(new) - 1


def _block_sources(cells: int) -> int:
    """Face sources per pass: as many 64-source words as keep ``cells x words`` within ``_BLOCK_CELL_WORDS``."""
    return 64 * max(1, _BLOCK_CELL_WORDS // cells)


class GridModel:
    """Cut grid of a domain: cuts, inside flags, runs of inside cells, face structure."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, inside: np.ndarray):
        self.xs = xs
        self.ys = ys
        self.inside = inside  # (nrows, ncols) indexed [iy, ix]
        # Inside cells get ids 0.. in C order (row by row); -1 marks an outside cell.
        self._iy, self._ix = np.nonzero(inside)
        n = len(self._iy)
        self._ids = np.full(inside.shape, -1, dtype=np.intp)
        self._ids[self._iy, self._ix] = np.arange(n)
        # Runs of inside cells, the row runs first, then the column runs: each
        # run's cells (``_cells``, from ``_starts[r]``), each cell's two runs,
        # and the run across at each entry of ``_cells``.
        col_x, col_y = np.nonzero(inside.T)
        by_column = self._ids[col_y, col_x]
        h_starts, h_run = _runs(self._iy, self._ix)
        v_starts, v_run = _runs(col_x, col_y)
        self._cells = np.concatenate([np.arange(n), by_column])
        self._starts = np.concatenate([h_starts, n + v_starts])
        self._run_of = np.empty((2, n), dtype=np.intp)
        self._run_of[0] = h_run
        self._run_of[1, by_column] = len(h_starts) + v_run
        self._across = np.concatenate([self._run_of[1], self._run_of[0, by_column]])
        # Each level before the pass settles reaches a new run, so no level reaches the run count.
        self._level_dtype = np.min_scalar_type(len(self._starts))
        self._cost_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def cell_of(self, p: Point) -> tuple[int, int]:
        """Cell containing ``p``; on a cut line, any adjacent inside cell."""
        cands_x = self._axis_candidates(self.xs, p[0])
        cands_y = self._axis_candidates(self.ys, p[1])
        nrows, ncols = self.inside.shape
        for iy in cands_y:
            for ix in cands_x:
                if 0 <= iy < nrows and 0 <= ix < ncols and self.inside[iy, ix]:
                    return (iy, ix)
        raise OutsidePointError(f"point {tuple(point_out(p))} lies outside the domain")

    @staticmethod
    def _axis_candidates(cuts: np.ndarray, value: int) -> list[int]:
        pos = bisect_left(cuts, value)
        if pos < len(cuts) and cuts[pos] == value:
            return [pos - 1, pos]
        return [pos - 1]

    def _levels(self, sources: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Link levels ``(ch, cv)``, (S x T), of the inside cells ``targets`` from each of ``sources``.

        ``ch`` is the least ``k`` with the target in ``H_k``, the cells within
        ``k`` links whose last link is horizontal, and ``cv`` the same for
        ``V_k``; 0 where the pass never reaches the target.  ``H_1`` and
        ``V_1`` are the source's row and column runs, ``H_k`` every row run
        that meets the source or ``V_{k-1}``, and ``V_k`` likewise.  The
        ``sources`` are distinct, and move at once, 64 to a ``uint64`` word
        per run: a level is one gather of the words of the run across at each
        cell and one ``np.bitwise_or.reduceat`` over the runs.  A new bit's
        level goes into bit planes, plane ``p`` holding bit ``p`` of the
        level, decoded at the targets' runs only.
        """
        count, ntargets = len(sources), len(targets)
        src = np.zeros((len(self._iy), -(-count // 64)), dtype=np.uint64)
        ids = np.arange(count)
        src.view(np.uint8)[sources, ids >> 3] = np.left_shift(1, ids & 7)
        reached = np.bitwise_or.reduceat(np.take(src, self._cells, axis=0), self._starts, axis=0)
        planes = [reached.copy()]
        for level in range(2, len(self._starts) + 1):
            new = np.bitwise_or.reduceat(np.take(reached, self._across, axis=0), self._starts, axis=0)
            new &= ~reached
            if not new.any():
                break
            reached |= new
            for p in range(level.bit_length()):
                if level >> p & 1:
                    if p == len(planes):
                        planes.append(np.zeros_like(reached))
                    planes[p] |= new
        else:  # pragma: no cover - the pass always settles within the bound
            raise RuntimeError("turn-cost pass did not settle")
        levels = np.zeros((2 * ntargets, count), dtype=self._level_dtype)
        rows, nbytes = self._run_of[:, targets].ravel(), -(-count // 8)
        for p, plane in enumerate(planes):
            bits = np.unpackbits(plane[rows].view(np.uint8)[:, :nbytes], axis=1, count=count, bitorder="little")
            levels |= np.left_shift(bits, p, dtype=self._level_dtype)
        return levels[:ntargets].T, levels[ntargets:].T

    def _levels_from(self, cell: tuple[int, int], cache: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """``(ch, cv)`` of every inside cell on the pass from ``cell`` alone."""
        if cache and cell in self._cost_cache:
            return self._cost_cache[cell]
        ch, cv = self._levels(self._ids[cell].reshape(1), np.arange(len(self._iy)))
        levels = (ch[0], cv[0])
        if cache and len(self._cost_cache) < _MAX_CACHED_SOURCES:
            self._cost_cache[cell] = levels
        return levels

    def costs_from(self, cell: tuple[int, int], cache: bool = True):
        """Per-cell minimum link counts (last segment horizontal / vertical): the pass from ``cell`` alone.

        ``_INF`` outside the domain and wherever the pass does not reach.
        """
        costs = (np.full(self.inside.shape, _INF, dtype=np.int64), np.full(self.inside.shape, _INF, dtype=np.int64))
        for cost, level in zip(costs, self._levels_from(cell, cache)):
            cost[self.inside] = np.where(level > 0, level, _INF)
        return costs

    def faces(self) -> np.recarray:
        """The overlay faces, computed once, as one read-only record array with a row per face.

        Its fields are ``box`` (k x 4), the faces' ``(xmin, xmax, ymin,
        ymax)``; ``rep`` (k x 2), their representatives, the centres; and
        ``cell_id`` (k), the id of the inside cell each representative lies
        in.  A row holds one face's: ``faces()[i].rep``.
        """
        return self._faces

    def _face_rows(self):
        """The face table's rows, one pass per block of source faces: representatives' distances, 2 on the diagonal."""
        faces = self.faces()
        ids, reps = faces.cell_id, faces.rep
        block = _block_sources(len(self._iy))
        for start in range(0, len(ids), block):
            rows = slice(start, start + block)
            values = _prices(*self._levels(ids[rows], ids), reps[rows], reps)
            np.fill_diagonal(values[:, rows], 2)
            yield values

    @cached_property
    def _farthest(self) -> tuple[np.ndarray, np.ndarray]:
        """Per face, its row maximum in the face table and the first face at it, from one pass over the rows."""
        blocks = [(values.max(axis=1), values.argmax(axis=1)) for values in self._face_rows()]
        return tuple(np.concatenate(part) for part in zip(*blocks))

    def _stack_labels(self) -> np.ndarray:
        """Per run, the lowest run of its stack.

        Two runs on adjacent lines merge when no boundary chord separates
        them, which is exactly when they have the same extent: a longer run
        on either line would put a boundary edge on the cut between them.  So
        a stack is a chain of equal-extent runs of one axis on consecutive
        lines, and its lowest run id is its bottom run's.
        """
        starts = self._starts
        first = self._cells[starts]
        last = self._cells[np.append(starts[1:], len(self._cells)) - 1]
        column = starts >= len(self._iy)
        ln = np.where(column, self._ix[first], self._iy[first])
        lo = np.where(column, self._iy[first], self._ix[first])
        hi = np.where(column, self._iy[last], self._ix[last])
        stack = np.lexsort((ln, hi, lo, column))  # equal extents of one axis together, line by line
        column, lo, hi, ln = column[stack], lo[stack], hi[stack], ln[stack]
        joined = np.zeros(len(stack), dtype=bool)
        joined[1:] = (column[1:] == column[:-1]) & (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]) & (ln[1:] == ln[:-1] + 1)
        bottom = np.maximum.accumulate(np.where(joined, 0, np.arange(len(stack))))
        labels = np.empty_like(stack)
        labels[stack] = stack[bottom]
        return labels

    @cached_property
    def _faces(self) -> np.recarray:
        """Overlay faces, by (row stack, column stack) of their cells, in that key's order."""
        key_h, key_v = self._stack_labels()[self._run_of]
        order = np.lexsort((key_v, key_h))
        key_h, key_v = key_h[order], key_v[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (key_h[1:] != key_h[:-1]) | (key_v[1:] != key_v[:-1])
        starts = np.flatnonzero(new)
        iy, ix = self._iy[order], self._ix[order]
        x0 = self.xs[np.minimum.reduceat(ix, starts)]
        x1 = self.xs[np.maximum.reduceat(ix, starts) + 1]
        y0 = self.ys[np.minimum.reduceat(iy, starts)]
        y1 = self.ys[np.maximum.reduceat(iy, starts) + 1]
        member_area = np.add.reduceat((self.xs[ix + 1] - self.xs[ix]) * (self.ys[iy + 1] - self.ys[iy]), starts)
        if not np.array_equal(member_area, (x1 - x0) * (y1 - y0)):
            raise AssertionError("face cells do not fill their bounding box")
        rx, ry = (x0 + x1) // 2, (y0 + y1) // 2
        # Coordinates are doubled, so a face is at least 2 wide and tall and its
        # centre lies inside it: the cell left of and below the centre, the
        # first that :meth:`cell_of` tries, is a cell of the face.
        cell_y, cell_x = np.searchsorted(self.ys, ry) - 1, np.searchsorted(self.xs, rx) - 1
        faces = np.rec.fromarrays(
            [np.stack([x0, x1, y0, y1], axis=1), np.stack([rx, ry], axis=1), self._ids[cell_y, cell_x]],
            dtype=[("box", np.int64, 4), ("rep", np.int64, 2), ("cell_id", np.intp)],
        )
        faces.flags.writeable = False
        return faces


def build_grid(domain: Domain) -> GridModel:
    """Cut grid with exact inside flags (2D parity of vertical-edge crossings).

    Each vertical ring edge adds one to the cells left of it between its
    ends: four corner updates of a difference array, placed at once by
    ``np.add.at``, then two prefix sums.
    """
    p = domain.vertices
    q = np.roll(p, -1, axis=0)  # each edge p -> q, the last of each ring back to its first vertex
    q[domain.starts[1:] - 1] = p[domain.starts[:-1]]
    xs, ys = np.unique(p[:, 0]), np.unique(p[:, 1])
    vertical = p[:, 0] == q[:, 0]
    col = xs.searchsorted(p[vertical, 0])  # the edge affects the columns left of it
    r1 = ys.searchsorted(np.minimum(p[vertical, 1], q[vertical, 1]))
    r2 = ys.searchsorted(np.maximum(p[vertical, 1], q[vertical, 1]))
    delta = np.zeros((len(ys), len(xs)), dtype=np.int64)
    zero = np.zeros_like(col)
    rows, cols = np.concatenate([r1, r1, r2, r2]), np.concatenate([zero, col, zero, col])
    np.add.at(delta, (rows, cols), np.repeat([1, -1, -1, 1], len(col)))
    counts = delta.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
    return GridModel(xs=xs, ys=ys, inside=(counts % 2 == 1))


def _prices(ch: np.ndarray, cv: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Link distances (S x T) from the points ``p`` (S x 2) to the points ``q`` (T x 2).

    ``ch``/``cv`` (S x T) are the levels of each ``q``'s cell on the pass from
    each ``p``'s cell.  A target is 1 away when the last segment can run
    straight along the shared coordinate, at least 2 otherwise, and 0 when it
    is ``p``.  Targets in the cell of ``p`` (level 1 both ways) are 1 or 2 by
    the same rule.
    """
    if not ch.all():  # a cell of H_k is in V_{k+1}: ch and cv are 0 together, where unreached
        a, b = np.argwhere(ch == 0)[0]
        raise OutsidePointError(
            f"no path between {tuple(p[a].tolist())} and {tuple(q[b].tolist())} (disconnected grid)"
        )
    values = np.minimum(ch, cv)
    np.maximum(values, 2, out=values)
    same_x = p[:, 0, None] == q[:, 0]
    same_y = p[:, 1, None] == q[:, 1]
    values[((ch == 1) & same_y) | ((cv == 1) & same_x)] = 1
    values[same_x & same_y] = 0
    return values


def oracle_distance(grid: GridModel, p: Point, q: Point) -> int:
    """Exact link distance for points interior to faces (doubled coordinates)."""
    cell_p, target = grid.cell_of(p), grid._ids[grid.cell_of(q)]
    ch, cv = (level[target].reshape(1, 1) for level in grid._levels_from(cell_p))
    return int(_prices(ch, cv, np.array([p]), np.array([q]))[0, 0])


def oracle_eccentricity(grid: GridModel, p: Point) -> int:
    """Max link distance from ``p`` to anywhere: max over face representatives, floor 2."""
    faces = grid.faces()
    ch, cv = (level[None, faces.cell_id] for level in grid._levels_from(grid.cell_of(p)))
    return int(_prices(ch, cv, np.array([p]), faces.rep).max(initial=2))


def oracle_diameter(grid: GridModel) -> DiameterResult:
    """Exhaustive max over face representatives (same-face pairs contribute 2), at the table's first maximum."""
    faces, (ecc, farthest) = grid.faces(), grid._farthest
    a = int(np.argmax(ecc))
    b = int(farthest[a])
    if a != b:
        pair = tuple(map(tuple, faces.rep[[a, b]].tolist()))
    else:
        box = faces.box
        biggest = int(np.argmax((box[:, 1] - box[:, 0]) * (box[:, 3] - box[:, 2])))
        pair = generic_pair_in_box(tuple(box[biggest].tolist()))
    return DiameterResult(value=int(ecc[a]), pair=pair, witness_rects=(), engine=ORACLE)


def oracle_radius(grid: GridModel) -> RadiusResult:
    """Exhaustive min-max over face representatives."""
    ecc = grid._farthest[0]
    best = int(np.argmin(ecc))
    return RadiusResult(
        value=int(ecc[best]),
        center=tuple(grid.faces().rep[best].tolist()),
        witness=("face", ()),
        engine=ORACLE,
    )
