"""Domain model: parsing, validation, slab decompositions and point location.

All coordinates are doubled on ingest, so midpoints of integer intervals
(rectangle centers, middle segments) stay exact integers.  Everything in this
package downstream of :func:`parse_domain` works in those doubled units.

A domain is one vertex array, every ring after the other, with the ring
offsets beside it.  The parser checks each point's shape and type in one
pass and everything else on the ring's array.  Each domain holds its
boundary edges once, in :attr:`Domain.edge_table`, which :func:`validate`
and both sweeps read, and its validity once, in :attr:`Domain.violations`,
which :func:`require_valid` reads.  One closed crossing test,
:func:`crossings`, finds both the boundary edges that touch and the crossing
graph's edges (:mod:`rectilink.graph`).  It cuts the x-axis into strips of
``STRIP`` verticals each and copies every horizontal into the strips it
meets, so a vertical walks only the horizontals of its own strip in its
y-span: about one candidate per crossing, where a walk over the whole width
takes five or six on generated domains.
"""

from __future__ import annotations

import json
import reprlib
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .errors import InstanceFormatError, InvalidDomainError, OutsidePointError

SCALE = 2
COORD_LIMIT = 2**30

Point = tuple[int, int]


def point_out(p: Point) -> list:
    """Internal (doubled) point to original units, integer when exact."""
    return [c // SCALE if c % SCALE == 0 else c / SCALE for c in p]


class Orientation(Enum):
    HORIZONTAL = "H"
    VERTICAL = "V"


@dataclass(frozen=True, eq=False)
class Domain:
    """Rectilinear polygonal domain as two read-only int64 arrays.

    ``vertices`` (n, 2) holds every ring's vertices in doubled coordinates:
    the outer ring first, counterclockwise, then each hole, clockwise, so the
    interior always lies to the left of every directed edge.  The vertices
    of ring ``r`` are ``vertices[starts[r] : starts[r + 1]]``, so ``starts``
    has h + 2 entries.
    """

    vertices: np.ndarray
    starts: np.ndarray

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def h(self) -> int:
        return len(self.starts) - 2

    @cached_property
    def edge_table(self) -> np.ndarray:
        """The boundary edges as one read-only int64 array, built once: ``(ring, index in ring, px, py, qx, qy)``.

        One row per directed edge, in ring order (outer first); edge ``k`` of a
        ring runs from its vertex ``k`` to the next.
        """
        sizes = np.diff(self.starts)
        ring = np.arange(len(sizes)).repeat(sizes)
        start = self.starts[ring]
        index = np.arange(self.n) - start
        table = np.column_stack([ring, index, self.vertices, self.vertices[start + (index + 1) % sizes[ring]]])
        table.flags.writeable = False
        return table

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """What :func:`validate` finds wrong with the domain, found once; empty when it is valid."""
        return validate(self)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle of a slab decomposition, one row of :attr:`Decomposition.boxes` as an object."""

    id: int
    orientation: Orientation
    xmin: int
    xmax: int
    ymin: int
    ymax: int


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The rectangles of one slab decomposition as a read-only (k, 4) int64 array.

    Row ``i`` of ``boxes`` is rectangle ``i``'s ``(xmin, xmax, ymin, ymax)``.
    """

    orientation: Orientation
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.boxes)

    @cached_property
    def rects(self) -> tuple[Rect, ...]:
        """The rows of ``boxes`` as :class:`Rect` objects, ``rects[i].id == i``, built when first read."""
        return tuple(Rect(i, self.orientation, *box) for i, box in enumerate(self.boxes.tolist()))


def signed_area2(points: np.ndarray) -> int:
    """Twice the signed area of the ring through ``points``, positive for counterclockwise."""
    (x, y), (nx, ny) = points.T, np.concatenate((points[1:], points[:1])).T
    return sum((x * ny - nx * y).tolist())  # each term fits int64; the sum, 2**63 for the largest square, does not


def _typed_prefix(obj) -> int:
    """How many leading items of ``obj`` are ``[int, int]`` pairs, bools not counting as ints."""
    for k, item in enumerate(obj):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            return k
        x, y = item
        if not (isinstance(x, int) and isinstance(y, int)) or isinstance(x, bool) or isinstance(y, bool):
            return k
    return len(obj)


# the most characters of an offending value that a parse error echoes
ECHO_LIMIT = 80


class _Echo(reprlib.Repr):
    """``repr`` of at most ``ECHO_LIMIT`` items per container and as many levels, so no container is written whole.

    Strings and other scalars are written as ``repr`` writes them, dicts
    keep their order, and an int past 256 bits is written as its size.
    """

    def __init__(self):
        super().__init__()
        self.maxlevel = self.maxtuple = self.maxlist = self.maxdict = ECHO_LIMIT
        self.maxstring = self.maxother = sys.maxsize

    def repr_int(self, x: int, level: int) -> str:
        return f"<int of {x.bit_length()} bits>" if x.bit_length() > 256 else repr(x)

    def repr_dict(self, x: dict, level: int) -> str:
        if level <= 0:
            return "{...}"
        pairs = (f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in islice(x.items(), self.maxdict))
        return "{" + ", ".join(pairs) + (", ...}" if len(x) > self.maxdict else "}")


def _echo(value) -> str:
    """``repr(value)``, cut to ``ECHO_LIMIT`` characters and an ellipsis when longer."""
    text = _Echo().repr(value)
    return text if len(text) <= ECHO_LIMIT else text[:ECHO_LIMIT] + "…"


def _parse_ring(obj, label: str) -> np.ndarray:
    """One ring's vertices as a (k, 2) int64 array in doubled coordinates.

    Reports the first point with a type or overflow fault, then the first bad edge in edge order.
    """
    if not isinstance(obj, (list, tuple)) or len(obj) < 3:
        raise InstanceFormatError(f"{label}: expected a list of at least 3 points")
    typed = _typed_prefix(obj)
    try:
        pts = np.fromiter(chain.from_iterable(obj[:typed]), dtype=np.int64, count=2 * typed).reshape(-1, 2)
    except OverflowError:  # beyond int64: compared as Python integers
        pts = np.array(obj[:typed], dtype=object).reshape(-1, 2)
    limit = COORD_LIMIT // SCALE
    if (over := (pts > limit) | (pts < -limit)).any():
        raise InstanceFormatError(f"{label}: coordinate overflow at {_echo(obj[int(over.any(axis=1).argmax())])}")
    if typed < len(obj):
        raise InstanceFormatError(f"{label}: points must be [int, int] pairs, got {_echo(obj[typed])}")
    pts = pts * SCALE
    if len(pts) > 1 and (pts[0] == pts[-1]).all():  # tolerate explicitly closed rings
        pts = pts[:-1]
    if len(pts) < 4:
        raise InstanceFormatError(f"{label}: a rectilinear ring needs at least 4 vertices")
    nxt = np.concatenate((pts[1:], pts[:1]))  # each vertex's successor
    same = pts == nxt
    if (bad := same[:, 0] == same[:, 1]).any():  # a zero-length edge keeps both coordinates, a diagonal one neither
        k = int(bad.argmax())
        p, q = tuple(pts[k].tolist()), tuple(nxt[k].tolist())
        if same[k, 0]:
            raise InstanceFormatError(f"{label}: zero-length edge at {p}")
        raise InstanceFormatError(f"{label}: non-rectilinear edge {p} -> {q}")
    return pts


def parse_domain(text) -> Domain:
    """Parse an instance document (JSON text or an already-decoded dict).

    Instance format: ``{"outer": [[x, y], ...], "holes": [[[x, y], ...], ...]}``
    with integer coordinates in any ring orientation.  Coordinates are doubled,
    the outer ring is normalized counterclockwise and holes clockwise.
    """
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        # ValueError: malformed JSON, or an integer literal past the interpreter's digit limit; RecursionError:
        # nesting too deep for the decoder
        except (ValueError, RecursionError) as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = text
    if not isinstance(data, dict) or "outer" not in data:
        raise InstanceFormatError('instance must be an object with an "outer" ring')
    outer = _parse_ring(data["outer"], "outer")
    rings = [outer if signed_area2(outer) >= 0 else outer[::-1]]
    hole_objs = data.get("holes") or []
    if not isinstance(hole_objs, (list, tuple)):
        raise InstanceFormatError(f'"holes" must be a list of rings, got {_echo(hole_objs)}')
    for k, ring_obj in enumerate(hole_objs):
        hole = _parse_ring(ring_obj, f"holes[{k}]")
        rings.append(hole if signed_area2(hole) <= 0 else hole[::-1])
    vertices = np.concatenate(rings)
    starts = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rings], out=starts[1:])
    vertices.flags.writeable = starts.flags.writeable = False
    return Domain(vertices, starts)


def domain_to_instance(domain: Domain) -> dict:
    """Inverse of :func:`parse_domain`: a JSON-ready dict in original units."""
    points, s = (domain.vertices // SCALE).tolist(), domain.starts.tolist()
    return {"outer": points[: s[1]], "holes": [points[a:b] for a, b in zip(s[1:-1], s[2:])]}


def blocks(ptr: np.ndarray, cap: int):
    """Consecutive CSR groups ``[a, b)`` holding at most ``cap`` entries; a larger group comes alone."""
    a, n = 0, len(ptr) - 1
    while a < n:
        b = int(ptr.searchsorted(ptr[a] + cap, side="right")) - 1
        b = min(max(b, a + 1), n)
        yield a, b
        a = b


# Verticals per x-strip in crossings.  Narrower strips cut the candidates
# further (on grid 120's middle segments, 1.05 per crossing at 32 and 1.0001
# at 4) but copy each horizontal into more strips.  Timed on a shared 2-core
# host at 4, 8, 16, 32 and 64 on both call sites (validate's boundary edges,
# build_graph's middle segments) on grids 40, 120 and 200: 4 and 8 were
# slower everywhere, 16 to 64 within a tenth of one another, and 32 the
# fastest or level on grids 40 and 120, where 64 lost a tenth on grid 40's
# middle segments.
STRIP = 32


def _search(haystack: np.ndarray, needles: np.ndarray, side: str = "left") -> np.ndarray:
    """``haystack.searchsorted(needles, side)``, the needles searched in sorted order and the results scattered back.

    Sorted needles let each search start from the last one's position: on
    grid 120's 1273 verticals, about 16 ns a needle against 75 unsorted,
    which pays for the sort; on a few dozen needles the sort and the
    scatter cost about 2 us more than they save.
    """
    order = needles.argsort()
    out = np.empty(len(needles), dtype=np.intp)
    out[order] = haystack.searchsorted(needles[order], side=side)
    return out


def crossings(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sorted ``(i, j)`` pairs where horizontal ``h[i] = (y, xlo, xhi)`` and vertical ``v[j] = (x, ylo, yhi)`` cross.

    Both intervals are closed.  The x-axis is cut into strips that start at
    every ``STRIP``-th vertical's x, in sorted order, and each horizontal is
    copied into every strip its ``[xlo, xhi]`` meets, the copies sorted by
    (strip, height).  ``v[j]``'s candidates are then one ``searchsorted``
    range of its own strip, and its crossings the candidates whose x-span
    holds ``x``: about one candidate per crossing on generated domains,
    where a search over the whole width walks five or six.  While the copies
    number more than ``4 * (len(h) + len(v))`` the strips widen fourfold; four
    strips make no more than that, so the copies never outgrow the input, and
    no vertical gets more candidates than a search over the whole width
    would give it.  With at most ``STRIP`` verticals there is one strip, and
    the search is that plain height search.  Candidates are made for blocks
    of ``v`` holding at most ``len(h) + len(v)`` of them, so no temporary
    outgrows a constant times the input.
    """
    nh, nv = len(h), len(v)
    x = v[:, 0]
    by_height = h[:, 0].argsort(kind="stable")
    height, left, right = h[by_height].T
    lo = _search(height, v[:, 1])  # the candidates of v[j] are heights lo[j]..hi[j] - 1
    hi = _search(height, v[:, 2], side="right")
    owner = by_height  # owner[k]: the horizontal of candidate position k
    if nv > STRIP:
        by_x, width = x.argsort(), STRIP
        xs = x[by_x]
        while True:  # four strips at most make at most 4 * nh copies, so the strips stop widening there
            bounds = xs[::width]  # strip s is [bounds[s], bounds[s + 1])
            first = np.maximum(bounds.searchsorted(left, side="right") - 1, 0)
            spans = np.maximum(bounds.searchsorted(right, side="right") - first, 0)  # strips met
            if (total := int(spans.sum())) <= 4 * (nh + nv):
                break
            width *= 4
        # One key strip * nh + height rank per copy: copy c, of height rank r, lies in strip first[r] + c - start[r],
        # where start[r] = spans[:r].sum() is rank r's first copy.
        copies = ((first - spans.cumsum() + spans) * nh + np.arange(nh)).repeat(spans) + np.arange(total) * nh
        copies.sort()
        rank = copies % nh
        owner, left, right = by_height[rank], left[rank], right[rank]
        strip = np.empty(nv, dtype=np.intp)
        strip[by_x] = (bounds.searchsorted(xs, side="right") - 1) * nh
        lo, hi = _search(copies, strip + lo), _search(copies, strip + hi)
    count = hi - lo
    ptr = np.zeros(nv + 1, dtype=np.intp)
    count.cumsum(out=ptr[1:])
    lo -= ptr[:-1]  # candidate k of the flat list, for v[j], is at position k + lo[j]
    keys = [np.empty(0, dtype=np.intp)]  # i * nv + j per crossing
    for a, b in blocks(ptr, nh + nv):
        j = np.arange(a, b).repeat(count[a:b])
        k, xj = np.arange(ptr[a], ptr[b]) + lo[j], x[j]
        hit = (left[k] <= xj) & (xj <= right[k])
        keys.append(owner[k[hit]] * nv + j[hit])
    keys = np.sort(np.concatenate(keys))
    pairs = np.empty((len(keys), 2), dtype=np.intp)
    np.floor_divide(keys, max(nv, 1), out=pairs[:, 0])
    np.subtract(keys, pairs[:, 0] * nv, out=pairs[:, 1])
    return pairs


def validate(domain: Domain) -> tuple[str, ...]:
    """Check alternation, simplicity, hole containment and general position, on :attr:`Domain.edge_table`.

    Returns the violations found, one message each; none means the domain
    is safe for every downstream operation.  Each check runs once for both axes, the second
    axis's values shifted past the first's by ``2 * COORD_LIMIT + 1``.
    """
    table = domain.edge_table
    ring, index, flat = table[:, 0], table[:, 1], table[:, 3] == table[:, 5]  # flat: horizontal
    n, shift = len(table), 2 * COORD_LIMIT + 1
    sizes = np.bincount(ring)
    stops = np.cumsum(sizes)
    after = np.arange(1, n + 1)  # the ring's next edge, and next vertex
    after[stops - 1] = stops - sizes
    violations: list[str] = []

    repeat = np.flatnonzero(flat == flat[after])[::-1]  # edges followed by one of the same axis, last first
    first_repeat = dict(zip(ring[repeat].tolist(), repeat.tolist()))  # ring -> its first such edge
    for ri, size in enumerate(sizes.tolist()):
        name = "outer" if ri == 0 else f"hole {ri - 1}"
        if size % 2 != 0:
            violations.append(f"alternation: {name} has an odd vertex count")
        if (row := first_repeat.get(ri)) is not None:
            axis = "H" if flat[row] else "V"
            violations.append(f"alternation: {name} has consecutive {axis} edges at vertex {index[row] + 1}")

    # General position: vertices sharing a coordinate must be edge-joined, so
    # two may share one only if the first one's edge out or in keeps it.
    xy = np.concatenate([table[:, 2], table[:, 3] + shift])  # each vertex's x, then its shifted y
    coords, first, count = np.unique(xy, return_index=True, return_counts=True)
    keeps, before = np.concatenate([~flat, flat]), after.argsort()  # keeps: the edge out keeps x, then y
    joined = (count == 2) & (keeps[first] | keeps[before[first % n] + first // n * n])
    for k in sorted(((count > 1) & ~joined).nonzero()[0].tolist(), key=first.__getitem__):
        axis, coord = ("x", coords[k]) if first[k] < n else ("y", coords[k] - shift)
        violations.append(
            f"general position: {count[k]} vertices share {axis}={coord // SCALE} without being joined by an edge"
        )

    box = np.sort(table[:, 2:6].reshape(-1, 2, 2), axis=1).reshape(-1, 4)  # (xlo, ylo, xhi, yhi)
    hrows, vrows = flat.nonzero()[0], (~flat).nonzero()[0]
    hseg, vseg = box[hrows][:, [1, 0, 2]], box[vrows][:, [0, 1, 3]]  # (y, xlo, xhi) and (x, ylo, yhi)

    # Horizontal/horizontal and vertical/vertical contacts (only possible when two edges share a supporting
    # line), per line in the order of its first edge.  Sorted by (line, lo), an edge meets the later ones up
    # to the first whose lo passes its hi: one searchsorted on a key packing the line's rank with the
    # coordinate, so it stays below (n + 1) * shift.
    seg = np.concatenate([hseg, vseg + [shift, 0, 0]])
    lines, line_first, line_of = np.unique(seg[:, 0], return_index=True, return_inverse=True)
    start, stop = (line_of * shift + COORD_LIMIT + seg[:, k] for k in (1, 2))
    order = start.argsort(kind="stable")
    later = start[order].searchsorted(stop[order], side="right") - np.arange(len(seg)) - 1
    per_line = np.bincount(line_of[order], weights=later, minlength=len(lines)).astype(np.intp)
    by_first = line_first.argsort()
    for line in lines[by_first].repeat(per_line[by_first]).tolist():
        axis, line = ("horizontal", line) if line <= COORD_LIMIT else ("vertical", line - shift)
        violations.append(f"simplicity: two {axis} edges touch on line {line // SCALE}")

    # The vertical edges meet the horizontal edges and, for hole containment,
    # a rightward ray from each hole's first vertex, one unit (half an input
    # unit) above it, (y + 1, x + 1, COORD_LIMIT): all vertex coordinates are
    # even, so the ray meets no vertex, and crosses [ylo, yhi] when ylo <= y < yhi.
    rays = np.column_stack([table[stops[:-1]][:, [3, 2]] + 1, np.full(domain.h, COORD_LIMIT)])
    pairs = crossings(np.concatenate([hseg, rays]), vseg)
    contacts, hits = np.split(pairs, [pairs[:, 0].searchsorted(len(hseg))])

    # Horizontal/vertical contacts: allowed only at the shared corner of two
    # consecutive edges of one ring.
    a, b = hrows[contacts[:, 0]], vrows[contacts[:, 1]]
    contact = (after[a] != b) & (after[b] != a)
    for ra, rb in zip(ring[a[contact]].tolist(), ring[b[contact]].tolist()):
        violations.append(
            f"simplicity: edge contact between a horizontal edge of ring {ra} and a vertical edge of ring {rb}"
        )

    # Hole containment and nesting (touching is caught above): a ring holds a hole when the hole's ray
    # crosses an odd number of the ring's vertical edges.  Counting each hole once more for the outer ring,
    # where it belongs, an odd count of hole * len(sizes) + ring flags a violation.
    hole_ring = (hits[:, 0] - len(hseg)) * len(sizes) + ring[vrows[hits[:, 1]]]
    keys, crossed = np.unique(np.concatenate([hole_ring, np.arange(domain.h) * len(sizes)]), return_counts=True)
    for hi, ri in zip(*(part.tolist() for part in np.divmod(keys[crossed % 2 == 1], len(sizes)))):
        if ri == 0:
            violations.append(f"containment: hole {hi} is not inside the outer ring")
        elif ri != hi + 1:
            violations.append(f"containment: hole {hi} lies inside hole {ri - 1}")
    return tuple(violations)


def require_valid(domain: Domain) -> None:
    """Raise :class:`InvalidDomainError` unless the domain is valid; validates it only on its first check."""
    if domain.violations:
        raise InvalidDomainError(domain.violations)


def _sweep_rects(events):
    """Interval-set sweep shared by both decompositions.

    ``events`` are (coord, lo, hi, opens) with one boundary edge each,
    pre-sorted by coord.  Yields (lo, hi, birth, death) slabs.  The open
    intervals are three parallel lists sorted by ``lo``, spliced together.
    """
    los: list[int] = []
    his: list[int] = []
    births: list[int] = []
    out = []
    for coord, lo, hi, opens in events:
        li = bisect_right(los, lo) - 1
        if opens:
            left = li >= 0 and his[li] == lo
            ri = bisect_left(los, hi)
            right = ri < len(los) and los[ri] == hi
            start = li if left else li + 1
            stop = ri + 1 if right else ri
            inside = not left and li >= 0 and his[li] > lo  # the edge starts inside an interval
            if inside or stop - start != left + right:  # or one starts inside the edge
                raise InvalidDomainError([f"sweep: opening edge [{lo}, {hi}] at {coord} overlaps the cross-section"])
            new_lo, new_hi = lo, hi
            if left:
                out.append((los[li], his[li], births[li], coord))
                new_lo = los[li]
            if right:
                out.append((los[ri], his[ri], births[ri], coord))
                new_hi = his[ri]
            los[start:stop], his[start:stop], births[start:stop] = [new_lo], [new_hi], [coord]
        else:
            if li < 0 or his[li] < hi:
                raise InvalidDomainError([f"sweep: closing edge [{lo}, {hi}] at {coord} matches no interval"])
            a, b = los[li], his[li]
            out.append((a, b, births[li], coord))
            if a < lo and hi < b:  # pieces stay left and right of the edge
                los[li : li + 1], his[li : li + 1], births[li : li + 1] = [a, hi], [lo, b], [coord, coord]
            elif a < lo:
                his[li], births[li] = lo, coord
            elif hi < b:
                los[li], births[li] = hi, coord
            else:
                del los[li], his[li], births[li]
    if los:
        raise InvalidDomainError(["sweep: unterminated intervals (domain is not closed)"])
    return out


def _decomposition(domain: Domain, orientation: Orientation) -> Decomposition:
    """Partition into maximal rectangles between lines through the edges of ``orientation``.

    The sweep crosses the domain over those boundary edges (bottom to top for
    horizontal edges, left to right for vertical ones); the cross-section
    interval touched by each edge is cut, all others continue.  The interior
    lies to the left of every directed edge, so a rightward horizontal edge
    and a downward vertical edge open an interval.  Requires a valid
    domain.
    """
    horizontal = orientation is Orientation.HORIZONTAL
    fixed = 1 if horizontal else 0  # the coordinate the sweep advances along
    span = 1 - fixed
    sign = 1 if horizontal else -1
    p, q = domain.edge_table[:, 2:4], domain.edge_table[:, 4:6]
    mine = p[:, fixed] == q[:, fixed]
    coord, a, b = p[mine, fixed], p[mine, span], q[mine, span]
    opens = sign * (b - a) > 0
    order = np.lexsort((~opens, coord))  # by coord, openings first, else in ring order
    events = zip(*(e[order].tolist() for e in (coord, np.minimum(a, b), np.maximum(a, b), opens)))
    slabs = np.array(_sweep_rects(events), dtype=np.int64).reshape(-1, 4)  # (lo, hi, birth, death)
    slabs = slabs[np.lexsort((slabs[:, 0], slabs[:, 2]))]
    boxes = slabs if horizontal else slabs[:, [2, 3, 0, 1]]
    boxes.flags.writeable = False
    return Decomposition(orientation, boxes)


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
    inside = (dec.boxes[:, ::2] <= p).all(axis=1) & (dec.boxes[:, 1::2] >= p).all(axis=1)
    found = set(np.flatnonzero(inside).tolist())
    if not found:
        raise OutsidePointError(f"point {tuple(point_out(p))} lies outside the domain")
    return found
