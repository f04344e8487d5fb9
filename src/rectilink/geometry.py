"""Domain model: parsing, validation, slab decompositions and point location.

All coordinates are doubled on ingest, so midpoints of integer intervals
(rectangle centers, middle segments) stay exact integers.  Everything in this
package downstream of :func:`parse_domain` works in those doubled units.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InstanceFormatError, InvalidDomainError, OutsidePointError

SCALE = 2
COORD_LIMIT = 2**30

Point = tuple[int, int]


class Orientation(Enum):
    HORIZONTAL = "H"
    VERTICAL = "V"

    @property
    def opposite(self) -> "Orientation":
        return Orientation.VERTICAL if self is Orientation.HORIZONTAL else Orientation.HORIZONTAL


@dataclass(frozen=True)
class Ring:
    """Closed rectilinear vertex loop; the edge after the last vertex wraps to the first."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self):
        """Yield directed edges (p, q)."""
        pts = self.vertices
        for k in range(len(pts)):
            yield pts[k], pts[(k + 1) % len(pts)]

    def signed_area2(self) -> int:
        """Twice the signed area (positive for counterclockwise)."""
        total = 0
        for (x1, y1), (x2, y2) in self.edges():
            total += x1 * y2 - x2 * y1
        return total

    def reversed(self) -> "Ring":
        return Ring(tuple(reversed(self.vertices)))


@dataclass(frozen=True)
class Domain:
    """Rectilinear polygonal domain: one outer ring plus hole rings.

    The outer ring is counterclockwise and holes are clockwise, so the
    interior always lies to the left of every directed edge.
    """

    outer: Ring
    holes: tuple[Ring, ...]

    @property
    def n(self) -> int:
        return len(self.outer) + sum(len(r) for r in self.holes)

    @property
    def h(self) -> int:
        return len(self.holes)

    def rings(self):
        yield self.outer
        yield from self.holes


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle of a slab decomposition."""

    id: int
    orientation: Orientation
    xmin: int
    xmax: int
    ymin: int
    ymax: int

    def contains(self, p: Point) -> bool:
        """Closure containment."""
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def box(self) -> tuple[int, int, int, int]:
        return (self.xmin, self.xmax, self.ymin, self.ymax)


@dataclass(frozen=True)
class Decomposition:
    orientation: Orientation
    rects: tuple[Rect, ...]

    def __len__(self) -> int:
        return len(self.rects)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _parse_ring(obj, label: str) -> Ring:
    if not isinstance(obj, (list, tuple)) or len(obj) < 3:
        raise InstanceFormatError(f"{label}: expected a list of at least 3 points")
    pts = []
    for item in obj:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in item)
        ):
            raise InstanceFormatError(f"{label}: points must be [int, int] pairs, got {item!r}")
        x, y = item
        if abs(x) * SCALE > COORD_LIMIT or abs(y) * SCALE > COORD_LIMIT:
            raise InstanceFormatError(f"{label}: coordinate overflow at {item!r}")
        pts.append((x * SCALE, y * SCALE))
    if len(pts) > 1 and pts[0] == pts[-1]:  # tolerate explicitly closed rings
        pts.pop()
    if len(pts) < 4:
        raise InstanceFormatError(f"{label}: a rectilinear ring needs at least 4 vertices")
    ring = Ring(tuple(pts))
    for p, q in ring.edges():
        if p == q:
            raise InstanceFormatError(f"{label}: zero-length edge at {p}")
        if p[0] != q[0] and p[1] != q[1]:
            raise InstanceFormatError(f"{label}: non-rectilinear edge {p} -> {q}")
    return ring


def parse_domain(text) -> Domain:
    """Parse an instance document (JSON text or an already-decoded dict).

    Instance format: ``{"outer": [[x, y], ...], "holes": [[[x, y], ...], ...]}``
    with integer coordinates in any ring orientation.  Coordinates are doubled,
    the outer ring is normalized counterclockwise and holes clockwise.
    """
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = text
    if not isinstance(data, dict) or "outer" not in data:
        raise InstanceFormatError('instance must be an object with an "outer" ring')
    outer = _parse_ring(data["outer"], "outer")
    if outer.signed_area2() < 0:
        outer = outer.reversed()
    hole_objs = data.get("holes") or []
    if not isinstance(hole_objs, (list, tuple)):
        raise InstanceFormatError(f'"holes" must be a list of rings, got {hole_objs!r}')
    holes = []
    for k, ring_obj in enumerate(hole_objs):
        hole = _parse_ring(ring_obj, f"holes[{k}]")
        if hole.signed_area2() > 0:
            hole = hole.reversed()
        holes.append(hole)
    return Domain(outer=outer, holes=tuple(holes))


def domain_to_instance(domain: Domain) -> dict:
    """Inverse of :func:`parse_domain`: a JSON-ready dict in original units."""

    def undouble(ring: Ring):
        return [[x // SCALE, y // SCALE] for x, y in ring.vertices]

    return {"outer": undouble(domain.outer), "holes": [undouble(r) for r in domain.holes]}


def _point_in_ring(p: Point, ring: Ring) -> bool:
    """Even-odd test; undefined for points on the ring itself."""
    px, py = p
    inside = False
    for (x1, y1), (x2, y2) in ring.edges():
        if x1 == x2 and (y1 > py) != (y2 > py):
            if x1 > px:
                inside = not inside
    return inside


def _edge_arrays(domain: Domain):
    """Split all boundary edges into horizontal and vertical arrays.

    Returns (h, v, h_meta, v_meta): h rows are (y, xlo, xhi), v rows are
    (x, ylo, yhi); meta rows are (ring index, edge index, ring length).
    """
    hs, vs, hm, vm = [], [], [], []
    for ri, ring in enumerate(domain.rings()):
        nverts = len(ring)
        for ei, (p, q) in enumerate(ring.edges()):
            if p[1] == q[1]:
                hs.append((p[1], min(p[0], q[0]), max(p[0], q[0])))
                hm.append((ri, ei, nverts))
            else:
                vs.append((p[0], min(p[1], q[1]), max(p[1], q[1])))
                vm.append((ri, ei, nverts))
    return (
        np.array(hs, dtype=np.int64).reshape(-1, 3),
        np.array(vs, dtype=np.int64).reshape(-1, 3),
        hm,
        vm,
    )


def validate(domain: Domain) -> ValidationReport:
    """Check alternation, simplicity, hole containment and general position.

    Returns a report; an empty report means the domain is safe for every
    downstream operation.
    """
    violations: list[str] = []

    for ri, ring in enumerate(domain.rings()):
        name = "outer" if ri == 0 else f"hole {ri - 1}"
        if len(ring) % 2 != 0:
            violations.append(f"alternation: {name} has an odd vertex count")
        axes = [("H" if p[1] == q[1] else "V") for p, q in ring.edges()]
        for k in range(len(axes)):
            if axes[k] == axes[(k + 1) % len(axes)]:
                violations.append(f"alternation: {name} has consecutive {axes[k]} edges at vertex {k + 1}")
                break

    # General position: vertices sharing a coordinate must be edge-joined.
    verts = []  # (x, y, ring, index)
    for ri, ring in enumerate(domain.rings()):
        for vi, (x, y) in enumerate(ring.vertices):
            verts.append((x, y, ri, vi))

    def adjacent(a, b) -> bool:
        if a[2] != b[2]:
            return False
        size = len(list(domain.rings())[a[2]])
        return (a[3] - b[3]) % size in (1, size - 1)

    for axis, key in (("x", 0), ("y", 1)):
        groups: dict[int, list] = {}
        for v in verts:
            groups.setdefault(v[key], []).append(v)
        for coord, group in groups.items():
            if len(group) == 2 and adjacent(group[0], group[1]):
                continue
            if len(group) > 1:
                violations.append(
                    f"general position: {len(group)} vertices share {axis}={coord // SCALE}"
                    " without being joined by an edge"
                )

    h, v, hm, vm = _edge_arrays(domain)

    # Horizontal/horizontal and vertical/vertical contacts (only possible when
    # two edges share a supporting line).
    for arr, meta, axis in ((h, hm, "horizontal"), (v, vm, "vertical")):
        by_line: dict[int, list[int]] = {}
        for idx in range(len(arr)):
            by_line.setdefault(int(arr[idx, 0]), []).append(idx)
        for line, idxs in by_line.items():
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    ia, ib = idxs[a], idxs[b]
                    if arr[ia, 1] <= arr[ib, 2] and arr[ib, 1] <= arr[ia, 2]:
                        violations.append(f"simplicity: two {axis} edges touch on line {line // SCALE}")

    # Horizontal/vertical contacts: allowed only at the shared corner of two
    # consecutive edges of one ring.
    if len(h) and len(v):
        hy = h[:, 0][:, None]
        hx1 = h[:, 1][:, None]
        hx2 = h[:, 2][:, None]
        vx = v[:, 0][None, :]
        vy1 = v[:, 1][None, :]
        vy2 = v[:, 2][None, :]
        touching = (hx1 <= vx) & (vx <= hx2) & (vy1 <= hy) & (hy <= vy2)
        for ia, ib in zip(*np.nonzero(touching)):
            ra, ea, na = hm[ia]
            rb, eb, nb = vm[ib]
            if ra == rb and (ea - eb) % na in (1, na - 1):
                continue
            violations.append(
                f"simplicity: edge contact between a horizontal edge of ring {ra}"
                f" and a vertical edge of ring {rb}"
            )

    # Hole containment and hole/hole nesting (touching is caught above).
    for hi, hole in enumerate(domain.holes):
        probe = hole.vertices[0]
        if not _point_in_ring(probe, domain.outer):
            violations.append(f"containment: hole {hi} is not inside the outer ring")
        for hj, other in enumerate(domain.holes):
            if hi != hj and _point_in_ring(probe, other):
                violations.append(f"containment: hole {hi} lies inside hole {hj}")

    return ValidationReport(tuple(violations))


def require_valid(domain: Domain) -> None:
    report = validate(domain)
    if not report.ok:
        raise InvalidDomainError(report.violations)


def _sweep_rects(events):
    """Interval-set sweep shared by both decompositions.

    ``events`` are (coord, lo, hi, opens) with one boundary edge each,
    pre-sorted by coord.  Yields (lo, hi, birth, death) slabs.
    """
    intervals: list[list[int]] = []  # [lo, hi, birth], sorted by lo
    out = []
    for coord, lo, hi, opens in events:
        if opens:
            li = bisect_right(intervals, lo, key=lambda iv: iv[0]) - 1
            left = intervals[li] if li >= 0 and intervals[li][1] == lo else None
            ri = bisect_left(intervals, hi, key=lambda iv: iv[0])
            right = intervals[ri] if ri < len(intervals) and intervals[ri][0] == hi else None
            if (left is None and li >= 0 and intervals[li][1] > lo) or (
                right is None and ri < len(intervals) and intervals[ri][0] < hi
            ):
                raise InvalidDomainError(
                    [f"sweep: opening edge [{lo}, {hi}] at {coord} overlaps the cross-section"]
                )
            new_lo, new_hi = lo, hi
            if left is not None:
                out.append((left[0], left[1], left[2], coord))
                new_lo = left[0]
            if right is not None:
                out.append((right[0], right[1], right[2], coord))
                new_hi = right[1]
            start = li if left is not None else li + 1
            stop = ri + 1 if right is not None else ri
            expected = (left is not None) + (right is not None)
            if stop - start != expected:
                raise InvalidDomainError(
                    [f"sweep: opening edge [{lo}, {hi}] at {coord} overlaps the cross-section"]
                )
            intervals[start:stop] = [[new_lo, new_hi, coord]]
        else:
            li = bisect_right(intervals, lo, key=lambda iv: iv[0]) - 1
            if li < 0 or intervals[li][1] < hi:
                raise InvalidDomainError([f"sweep: closing edge [{lo}, {hi}] at {coord} matches no interval"])
            iv = intervals[li]
            out.append((iv[0], iv[1], iv[2], coord))
            pieces = []
            if iv[0] < lo:
                pieces.append([iv[0], lo, coord])
            if hi < iv[1]:
                pieces.append([hi, iv[1], coord])
            intervals[li : li + 1] = pieces
    if intervals:
        raise InvalidDomainError(["sweep: unterminated intervals (domain is not closed)"])
    return out


def _decomposition(domain: Domain, orientation: Orientation) -> Decomposition:
    """Partition into maximal rectangles between lines through the edges of ``orientation``.

    The sweep crosses the domain over those boundary edges (bottom to top for
    horizontal edges, left to right for vertical ones); the cross-section
    interval touched by each edge is cut, all others continue.  The interior
    lies to the left of every directed edge, so a rightward horizontal edge
    and a downward vertical edge open an interval.  Requires a validated
    domain.
    """
    horizontal = orientation is Orientation.HORIZONTAL
    fixed = 1 if horizontal else 0  # the coordinate the sweep advances along
    span = 1 - fixed
    sign = 1 if horizontal else -1
    events = []
    for ring in domain.rings():
        for p, q in ring.edges():
            if p[fixed] == q[fixed]:
                opens = sign * (q[span] - p[span]) > 0
                events.append((p[fixed], min(p[span], q[span]), max(p[span], q[span]), opens))
    events.sort(key=lambda e: (e[0], not e[3]))
    slabs = _sweep_rects(events)
    slabs.sort(key=lambda s: (s[2], s[0]))
    rects = tuple(
        Rect(i, orientation, *((lo, hi, birth, death) if horizontal else (birth, death, lo, hi)))
        for i, (lo, hi, birth, death) in enumerate(slabs)
    )
    return Decomposition(orientation, rects)


def horizontal_decomposition(domain: Domain) -> Decomposition:
    """Horizontal slabs: the sweep runs bottom to top over the horizontal edges."""
    return _decomposition(domain, Orientation.HORIZONTAL)


def vertical_decomposition(domain: Domain) -> Decomposition:
    """Vertical slabs: the sweep runs left to right over the vertical edges."""
    return _decomposition(domain, Orientation.VERTICAL)


def locate(dec: Decomposition, p: Point) -> set[int]:
    """Ids of all rectangles of ``dec`` whose closure contains ``p``.

    One id for a generic interior point, two across a shared slab boundary.
    Raises :class:`OutsidePointError` if no rectangle contains the point.
    """
    found = {r.id for r in dec.rects if r.contains(p)}
    if not found:
        raise OutsidePointError(f"point {p} lies outside the domain")
    return found
