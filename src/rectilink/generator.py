"""Random rectilinear domains with holes, in general position by construction.

A connected polyomino is grown on a grid, holes are punched strictly inside
it, and the boundary loops are extracted.  Every maximal boundary edge is then
moved to its own coordinate (grid line ``i`` maps to ``i * scale`` plus a
distinct per-edge offset below ``scale / 2``), which preserves the cell
topology while guaranteeing that no two vertices share a coordinate unless an
edge joins them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .geometry import Domain, parse_domain, signed_area2, validate


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


def _creates_pinch(mask: np.ndarray, y: int, x: int) -> bool:
    """Would setting (y, x) create a diagonal-contact 2x2 block?"""
    nrows, ncols = mask.shape

    def on(yy, xx):
        return 0 <= yy < nrows and 0 <= xx < ncols and mask[yy, xx]

    for dy in (-1, 1):
        for dx in (-1, 1):
            if on(y + dy, x + dx) and not on(y + dy, x) and not on(y, x + dx):
                return True
    return False


def _grow_polyomino(rng: random.Random, width: int, height: int, cells: int) -> np.ndarray:
    """Tendril-biased random growth: cells touching one inside cell are added
    freely, blob-forming adds happen rarely, so the boundary stays ragged and
    the vertex count grows with the area."""
    mask = np.zeros((height, width), dtype=bool)
    start = (rng.randrange(height), rng.randrange(width))
    mask[start] = True
    frontier = []
    deferred = []

    def push_neighbors(y, x):
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < height and 0 <= xx < width and not mask[yy, xx]:
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
        if mask[y, x]:
            continue
        if _creates_pinch(mask, y, x):
            deferred.append((y, x))
            continue
        touch = sum(
            1
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= y + dy < height and 0 <= x + dx < width and mask[y + dy, x + dx]
        )
        if touch >= 2 and not accept_all and rng.random() >= 0.08:
            deferred.append((y, x))
            continue
        mask[y, x] = True
        count += 1
        added_this_pass = True
        push_neighbors(y, x)
    return mask


def _fill_enclosed(mask: np.ndarray, keep: np.ndarray | None = None) -> bool:
    """Fill empty regions not connected to the border; True if anything changed.

    Cells flagged in ``keep`` (already punched holes) are never filled.
    """
    nrows, ncols = mask.shape
    outside = np.zeros_like(mask)
    stack = []
    for y in range(nrows):
        for x in range(ncols):
            if (y in (0, nrows - 1) or x in (0, ncols - 1)) and not mask[y, x]:
                stack.append((y, x))
                outside[y, x] = True
    while stack:
        y, x = stack.pop()
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < nrows and 0 <= xx < ncols and not mask[yy, xx] and not outside[yy, xx]:
                outside[yy, xx] = True
                stack.append((yy, xx))
    enclosed = ~mask & ~outside
    if keep is not None:
        enclosed &= ~keep
    if enclosed.any():
        mask |= enclosed
        return True
    return False


def _repair_pinches(mask: np.ndarray) -> bool:
    changed = False
    while True:
        a = mask[:-1, :-1]
        b = mask[:-1, 1:]
        c = mask[1:, :-1]
        d = mask[1:, 1:]
        bad1 = a & d & ~b & ~c
        bad2 = b & c & ~a & ~d
        if not bad1.any() and not bad2.any():
            return changed
        changed = True
        ys, xs = np.nonzero(bad1)
        for y, x in zip(ys, xs):
            mask[y, x + 1] = True
        ys, xs = np.nonzero(bad2)
        for y, x in zip(ys, xs):
            mask[y, x] = True


def _connected(mask: np.ndarray) -> bool:
    total = int(mask.sum())
    if total == 0:
        return False
    ys, xs = np.nonzero(mask)
    seen = np.zeros_like(mask)
    stack = [(int(ys[0]), int(xs[0]))]
    seen[stack[0]] = True
    reached = 0
    nrows, ncols = mask.shape
    while stack:
        y, x = stack.pop()
        reached += 1
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if 0 <= yy < nrows and 0 <= xx < ncols and mask[yy, xx] and not seen[yy, xx]:
                seen[yy, xx] = True
                stack.append((yy, xx))
    return reached == total


def _punch_holes(rng: random.Random, mask: np.ndarray, holes: int, attempts: int = 60):
    """Remove small polyominoes strictly interior to the mask, non-touching."""
    nrows, ncols = mask.shape
    reserved = np.zeros_like(mask)  # hole cells plus their 8-rings
    punched = np.zeros_like(mask)  # hole cells only: never refilled

    def deep_inside(y, x):
        if not (1 <= y < nrows - 1 and 1 <= x < ncols - 1):
            return False
        return bool(mask[y - 1 : y + 2, x - 1 : x + 2].all())

    def eligible_seeds():
        return [
            (y, x)
            for y in range(nrows)
            for x in range(ncols)
            if deep_inside(y, x) and not reserved[y - 1 : y + 2, x - 1 : x + 2].any()
        ]

    def thicken() -> bool:
        """Add a 5x5 patch (sparing punched cells) so a hole has room."""
        spots = [
            (y, x)
            for y in range(2, nrows - 2)
            for x in range(2, ncols - 2)
            if mask[y, x]
        ]
        if not spots:
            return False
        y, x = spots[rng.randrange(len(spots))]
        block = np.zeros_like(mask)
        block[y - 2 : y + 3, x - 2 : x + 3] = True
        mask[:] = mask | (block & ~punched)
        while True:
            changed = _fill_enclosed(mask, keep=punched)
            changed |= _repair_pinches(mask)
            if not changed:
                return True

    for hole_index in range(holes):
        placed = False
        for _ in range(attempts):
            seeds = eligible_seeds()
            if not seeds:
                if not thicken():
                    break
                continue
            seed = seeds[rng.randrange(len(seeds))]
            goal = rng.randint(1, 4)
            hole = np.zeros_like(mask)
            hole[seed] = True
            cells = [seed]
            while len(cells) < goal:
                options = []
                for y, x in cells:
                    for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        yy, xx = y + dy, x + dx
                        if (
                            deep_inside(yy, xx)
                            and not hole[yy, xx]
                            and not reserved[yy - 1 : yy + 2, xx - 1 : xx + 2].any()
                            and not _creates_pinch(hole, yy, xx)
                        ):
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
                ys, xs = np.nonzero(hole)
                for y, x in zip(ys, xs):
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

    The result always passes :func:`rectilink.geometry.validate`.
    """
    params.check()
    rng = random.Random(params.seed)
    mask = _grow_polyomino(rng, params.width, params.height, params.cells)
    while True:
        changed = _fill_enclosed(mask)
        changed |= _repair_pinches(mask)
        if not changed:
            break
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
    report = validate(domain)
    if not report.ok:  # pragma: no cover - construction guarantees validity
        raise RuntimeError(f"generated domain failed validation: {report.violations}")
    return domain
