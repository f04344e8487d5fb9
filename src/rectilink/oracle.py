"""Brute-force link distance ground truth on the compressed cut grid.

Completely independent of the decomposition/graph pipeline: the domain is cut
into cells by all vertex coordinates, cells are flagged inside/outside by exact
ray parity, and distances come from fixpoint iteration of a turn-cost relaxation
(straight moves through open cell walls are free, each turn and the initial
segment cost one).  Distances between generic points are exact; diameter and
radius are evaluated over one representative per overlay face, which the model
derives on its own by merging grid runs that no boundary chord separates.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import OutsidePointError
from .geometry import Domain, Point
from .metrics import DiameterResult, ORACLE, RadiusResult, generic_pair_in_box

_INF = np.int64(1) << 40
_MAX_CACHED_SOURCES = 4096


@dataclass(frozen=True)
class _RunAxis:
    """reduceat/repeat bookkeeping for one movement axis."""

    starts: np.ndarray
    lengths: np.ndarray
    order: str  # "C" for row-wise (horizontal), "F" for column-wise


@dataclass(frozen=True)
class _OracleFace:
    box: tuple[int, int, int, int]
    rep: Point
    cell: tuple[int, int]


class GridModel:
    """Cut grid of a domain: cuts, inside flags, adjacency runs, face structure."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, inside: np.ndarray):
        self.xs = xs
        self.ys = ys
        self.inside = inside  # (nrows, ncols) indexed [iy, ix]
        self._h_runs = self._build_runs("C")
        self._v_runs = self._build_runs("F")
        self._cost_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._faces: list[_OracleFace] | None = None
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

    def faces(self) -> list[_OracleFace]:
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

    def _compute_faces(self) -> list[_OracleFace]:
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
            faces.append(_OracleFace(box=box, rep=rep, cell=self.cell_of(rep)))
        return faces


def build_grid(domain: Domain) -> GridModel:
    """Cut grid with exact inside flags (2D parity of vertical-edge crossings)."""
    xs = np.array(sorted({x for ring in domain.rings() for x, _ in ring.vertices}), dtype=np.int64)
    ys = np.array(sorted({y for ring in domain.rings() for _, y in ring.vertices}), dtype=np.int64)
    ncols, nrows = len(xs) - 1, len(ys) - 1
    delta = np.zeros((nrows + 1, ncols + 1), dtype=np.int64)
    for ring in domain.rings():
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


def _face_points(faces: list[_OracleFace]) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and their cells, as (k x 2) arrays."""
    return (
        np.array([f.rep for f in faces], dtype=np.int64).reshape(-1, 2),
        np.array([f.cell for f in faces], dtype=np.int64).reshape(-1, 2),
    )


def oracle_distance(grid: GridModel, p: Point, q: Point) -> int:
    """Exact link distance for points interior to faces (doubled coordinates)."""
    cell_p, cell_q = grid.cell_of(p), grid.cell_of(q)
    return int(_prices(grid.costs_from(cell_p), p, np.array([q]), np.array([cell_q]))[0])


def oracle_eccentricity(grid: GridModel, p: Point) -> int:
    """Max link distance from ``p`` to anywhere: max over face representatives, floor 2."""
    costs = grid.costs_from(grid.cell_of(p), cache=False)
    return int(_prices(costs, p, *_face_points(grid.faces())).max(initial=2))


def oracle_diameter(grid: GridModel) -> DiameterResult:
    """Exhaustive max over face representatives (same-face pairs contribute 2)."""
    faces = grid.faces()
    values = grid.face_values()
    flat = int(np.argmax(values))
    a, b = divmod(flat, len(faces))
    value = max(2, int(values[a, b]))
    if a != b and values[a, b] >= 2:
        pair = (faces[a].rep, faces[b].rep)
    else:
        biggest = max(faces, key=lambda f: (f.box[1] - f.box[0]) * (f.box[3] - f.box[2]))
        pair = generic_pair_in_box(biggest.box)
    return DiameterResult(value=value, pair=pair, witness_rects=(), engine=ORACLE)


def oracle_radius(grid: GridModel) -> RadiusResult:
    """Exhaustive min-max over face representatives."""
    faces = grid.faces()
    values = grid.face_values()
    ecc = values.max(axis=1) if len(faces) > 1 else np.array([2])
    best = int(np.argmin(ecc))
    return RadiusResult(
        value=max(2, int(ecc[best])),
        center=faces[best].rep,
        witness=("face", ()),
        engine=ORACLE,
    )
