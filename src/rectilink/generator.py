"""Random rectilinear domains with holes, in general position by construction.

A connected polyomino is grown on a grid, holes are punched strictly inside
it, and the boundary loops are extracted.  Every maximal boundary edge is then
moved to its own coordinate (grid line ``i`` maps to ``i * scale`` plus a
distinct per-edge offset below ``scale / 2``), which preserves the cell
topology while guaranteeing that no two vertices share a coordinate unless an
edge joins them.

A domain is a function of its parameters only through the ``rng`` calls, so
any change here keeps the same ``rng`` calls in the same order with the same
arguments; then every seed gives the same domain as before.  The mask steps
work on whole arrays: growth runs on a mask with a one-cell empty border, so
no neighbour test needs a bounds check; connectivity and the filling of
enclosed regions share one flood fill over a flat list; hole seeds and hole
growth read one ``room`` mask per attempt, built from 3x3 sliding windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import Domain, parse_domain, signed_area2

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class GenParams:
    width: int
    height: int
    cells: int
    holes: int = 0
    scale: int | None = None  # None: smallest safe scale for the instance
    seed: int = 0

    def check(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("grid must be at least 1x1")
        if not (1 <= self.cells <= self.width * self.height):
            raise ValueError(f"cell target {self.cells} does not fit a {self.width}x{self.height} grid")
        if self.holes < 0:
            raise ValueError("hole count must be non-negative")


def _creates_pinch(mask, y: int, x: int) -> bool:
    """Would setting (y, x), a cell off the mask's border, create a diagonal-contact 2x2 block?"""
    for dy in (-1, 1):
        for dx in (-1, 1):
            if mask[y + dy][x + dx] and not mask[y + dy][x] and not mask[y][x + dx]:
                return True
    return False


def _grow_polyomino(rng: random.Random, width: int, height: int, cells: int) -> np.ndarray:
    """Tendril-biased random growth: cells touching one inside cell are added
    freely, blob-forming adds happen rarely, so the boundary stays ragged and
    the vertex count grows with the area."""
    mask = [[False] * (width + 2) for _ in range(height + 2)]  # one empty cell of border all round
    start = (rng.randrange(height) + 1, rng.randrange(width) + 1)
    mask[start[0]][start[1]] = True
    frontier = []
    deferred = []

    def push_neighbors(y, x):
        for dy, dx in _STEPS:
            yy, xx = y + dy, x + dx
            if 1 <= yy <= height and 1 <= xx <= width and not mask[yy][xx]:
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
        if mask[y][x]:
            continue
        if _creates_pinch(mask, y, x):
            deferred.append((y, x))
            continue
        touch = mask[y + 1][x] + mask[y - 1][x] + mask[y][x + 1] + mask[y][x - 1]
        if touch >= 2 and not accept_all and rng.random() >= 0.08:
            deferred.append((y, x))
            continue
        mask[y][x] = True
        count += 1
        added_this_pass = True
        push_neighbors(y, x)
    return np.array(mask)[1:-1, 1:-1]


def _flood(free: np.ndarray, start: int) -> np.ndarray:
    """The cells of ``free`` that no 4-neighbour path through ``free`` joins to
    the cell at flat index ``start``.

    The border of ``free`` must be empty, so no neighbour index leaves the array.
    """
    width = free.shape[1]
    left = free.ravel().tolist()
    left[start] = False
    stack = [int(start)]
    while stack:
        i = stack.pop()
        for j in (i - width, i - 1, i + 1, i + width):
            if left[j]:
                left[j] = False
                stack.append(j)
    return np.array(left).reshape(free.shape)


def _fill_enclosed(mask: np.ndarray, keep: np.ndarray | None = None) -> bool:
    """Fill empty regions not connected to the border; True if anything changed.

    Cells flagged in ``keep`` (already punched holes) are never filled.
    """
    nrows, ncols = mask.shape
    free = np.zeros((nrows + 4, ncols + 4), dtype=bool)
    free[1:-1, 1:-1] = True  # a ring of outside cells, joined to every empty border cell
    free[2:-2, 2:-2] = ~mask
    enclosed = _flood(free, free.shape[1] + 1)[2:-2, 2:-2]
    if keep is not None:
        enclosed &= ~keep
    if enclosed.any():
        mask |= enclosed
        return True
    return False


def _repair_pinches(mask: np.ndarray) -> bool:
    a, b, c, d = mask[:-1, :-1], mask[:-1, 1:], mask[1:, :-1], mask[1:, 1:]  # views: writes reach mask
    changed = False
    while True:
        bad1 = a & d & ~b & ~c
        bad2 = b & c & ~a & ~d
        if not bad1.any() and not bad2.any():
            return changed
        changed = True
        b |= bad1
        a |= bad2


def _settle(mask: np.ndarray, keep: np.ndarray | None = None) -> None:
    """Fill enclosed regions and repair pinches until neither changes the mask."""
    while _fill_enclosed(mask, keep) | _repair_pinches(mask):  # `|`: both run every round
        pass


def _connected(mask: np.ndarray) -> bool:
    free = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    free[1:-1, 1:-1] = mask
    cells = np.flatnonzero(free)
    return cells.size > 0 and not _flood(free, cells[0]).any()


def _room(mask: np.ndarray, reserved: np.ndarray) -> np.ndarray:
    """Interior cells whose 3x3 block lies in ``mask`` and holds no ``reserved`` cell."""
    room = np.zeros_like(mask)
    if min(mask.shape) >= 3:
        inside = sliding_window_view(mask, (3, 3)).all(axis=(2, 3))
        clear = ~sliding_window_view(reserved, (3, 3)).any(axis=(2, 3))
        room[1:-1, 1:-1] = inside & clear
    return room


def _punch_holes(rng: random.Random, mask: np.ndarray, holes: int, attempts: int = 60):
    """Remove small polyominoes strictly interior to the mask, non-touching."""
    reserved = np.zeros_like(mask)  # hole cells plus their 8-rings
    punched = np.zeros_like(mask)  # hole cells only: never refilled

    def thicken() -> bool:
        """Add a 5x5 patch (sparing punched cells) so a hole has room."""
        spots = np.argwhere(mask[2:-2, 2:-2]) + 2
        if not len(spots):
            return False
        y, x = spots[rng.randrange(len(spots))]
        block = np.s_[y - 2 : y + 3, x - 2 : x + 3]
        mask[block] |= ~punched[block]
        _settle(mask, punched)
        return True

    for hole_index in range(holes):
        placed = False
        for _ in range(attempts):
            # Neither mask nor reserved changes within an attempt, so one room mask serves it.
            room = _room(mask, reserved)
            seeds = np.argwhere(room)
            if not len(seeds):
                if not thicken():
                    break
                continue
            seed = tuple(seeds[rng.randrange(len(seeds))].tolist())
            goal = rng.randint(1, 4)
            hole = np.zeros_like(mask)
            hole[seed] = True
            cells = [seed]
            while len(cells) < goal:
                options = []
                for y, x in cells:
                    for dy, dx in _STEPS:
                        yy, xx = y + dy, x + dx
                        if room[yy, xx] and not hole[yy, xx] and not _creates_pinch(hole, yy, xx):
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
                for y, x in cells:
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

    The result always passes :func:`rectilink.geometry.validate`, and holds
    its (empty) :attr:`~rectilink.geometry.Domain.violations`, so it is not
    checked again.
    """
    params.check()
    rng = random.Random(params.seed)
    mask = _grow_polyomino(rng, params.width, params.height, params.cells)
    _settle(mask)
    if params.holes:
        _punch_holes(rng, mask, params.holes)
    rings = _extract_rings(mask)
    areas = [signed_area2(np.array(r)) for r in rings]
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
    domain = parse_domain(instance)
    if domain.violations:  # pragma: no cover - construction guarantees validity
        raise RuntimeError(f"generated domain failed validation: {domain.violations}")
    return domain
