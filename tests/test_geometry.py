"""Parsing, validation, decompositions and point location."""

import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rectilink import InstanceFormatError, InvalidDomainError, OutsidePointError, domain_to_instance, geometry, parse_domain
from rectilink.geometry import (
    COORD_LIMIT,
    SCALE,
    STRIP,
    Orientation,
    crossings,
    horizontal_decomposition,
    locate,
    signed_area2,
    validate,
    vertical_decomposition,
)

from conftest import DONUT, LSHAPE, SQUARE, comb


def boxes(dec):
    return set(map(tuple, dec.boxes.tolist()))


def domain_area2(domain):
    return sum(ring.signed_area2() for ring in reference.rings(domain))  # holes are clockwise: negative


def total_area(dec):
    b = dec.boxes
    return int(((b[:, 1] - b[:, 0]) * (b[:, 3] - b[:, 2])).sum())


def contains(box, p):
    """Closure containment of the point ``p`` in the box ``(xmin, xmax, ymin, ymax)``."""
    xmin, xmax, ymin, ymax = box
    return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


class TestParse:
    def test_square(self):
        d = parse_domain(SQUARE)
        assert d.n == 4 and d.h == 0
        assert d.vertices.tolist() == [[0, 0], [20, 0], [20, 20], [0, 20]]
        assert d.starts.tolist() == [0, 4]
        assert d.vertices.dtype == d.starts.dtype == np.int64
        assert not d.vertices.flags.writeable and not d.starts.flags.writeable

    def test_donut(self):
        d = parse_domain(DONUT)
        assert d.n == 8 and d.h == 1

    def test_json_text(self):
        d = parse_domain('{"outer": [[0,0],[10,0],[10,10],[0,10]]}')
        assert d.n == 4

    def test_diagonal_edge(self):
        with pytest.raises(InstanceFormatError, match="non-rectilinear edge"):
            parse_domain({"outer": [[0, 0], [10, 0], [10, 10], [0, 12]]})

    def test_zero_length_edge(self):
        with pytest.raises(InstanceFormatError, match="zero-length"):
            parse_domain({"outer": [[0, 0], [0, 0], [10, 0], [10, 10], [0, 10]]})

    def test_non_integer(self):
        with pytest.raises(InstanceFormatError):
            parse_domain({"outer": [[0, 0], [10.5, 0], [10.5, 10], [0, 10]]})

    def test_overflow(self):
        big = 2**33
        with pytest.raises(InstanceFormatError, match="overflow"):
            parse_domain({"outer": [[0, 0], [big, 0], [big, big], [0, big]]})

    def test_explicitly_closed_ring(self):
        d = parse_domain({"outer": [[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]]})
        assert d.n == 4

    def test_orientation_normalized(self):
        # outer given clockwise, hole counterclockwise: both must be flipped
        inst = {
            "outer": list(reversed(DONUT["outer"])),
            "holes": [list(reversed(DONUT["holes"][0]))],
        }
        d = parse_domain(inst)
        outer, hole = reference.rings(d)
        assert outer.signed_area2() > 0
        assert hole.signed_area2() < 0
        assert d.vertices.tolist() == parse_domain(DONUT).vertices.tolist()

    def test_round_trip(self):
        d = parse_domain(DONUT)
        assert domain_to_instance(parse_domain(domain_to_instance(d))) == domain_to_instance(d)
        assert d == d != parse_domain(DONUT)  # a domain equals only itself

    def test_signed_area_at_the_limit(self):
        """Twice the area of the largest square the parser accepts is 2**63, one past int64: the sum stays exact."""
        limit = COORD_LIMIT // SCALE
        square = [[-limit, -limit], [limit, -limit], [limit, limit], [-limit, limit]]
        for ring in (square, square[::-1]):
            d = parse_domain({"outer": ring})
            assert signed_area2(d.vertices) == 2**63
            assert d.vertices.tolist() == [[SCALE * x, SCALE * y] for x, y in square]

    def test_edge_table(self, fixtures, corpus):
        """One row per directed edge, ``(ring, index, p, q)``, as the ring objects list them."""
        for domain in [inst.domain for inst in fixtures + corpus] + [parse_domain(comb(3))]:
            rings = enumerate(reference.rings(domain))
            expected = [[ri, k, *p, *q] for ri, ring in rings for k, (p, q) in enumerate(ring.edges())]
            assert domain.edge_table.tolist() == expected
            assert not domain.edge_table.flags.writeable


LIMIT = COORD_LIMIT // SCALE  # the largest coordinate the parser accepts, in input units
# one fault each, at point i of a ring of points
POINT_FAULTS = [
    lambda rng, p: [True, p[1]] if rng.random() < 0.5 else [p[0], False],  # a bool
    lambda rng, p: [p[0] + 0.5, p[1]] if rng.random() < 0.5 else [p[0], float(p[1])],  # a float
    lambda rng, p: p[:1],  # short
    lambda rng, p: p + [0],  # long
    lambda rng, p: rng.choice(["1,2", None, 7, {"x": 1}]),  # not a list
    lambda rng, p: [rng.choice([LIMIT + 1, -LIMIT - 1, 2**64, -(2**63)]), p[1]],  # overflow
    lambda rng, p: [p[0], rng.choice([LIMIT, -LIMIT])],  # at the limit, so accepted
    lambda rng, p: [p[0] + 1, p[1]],  # a diagonal edge on each side
    lambda rng, p: tuple(p),  # a tuple point, accepted
]
HOLE_VALUES = [None, [], 3, "holes", {"a": 1}, [[[6, 6], [8, 6], [8, 8]]], [[[6, 6], [8, 6], [8, 8], [6, 8]], 5]]


def fuzz_document(rng: random.Random):
    """A fixture's rings with zero to three faults: bad points, a repeated point, a closing vertex, bad holes."""
    base = rng.choice([SQUARE, LSHAPE, DONUT])
    rings = [[list(p) for p in ring] for ring in [base["outer"], *base["holes"]]]
    if rng.random() < 0.2:  # near the limit, where an off-by-one overflow test shows
        dx = rng.choice([LIMIT - 14, -LIMIT])
        rings = [[[x + dx, y - dx] for x, y in ring] for ring in rings]
    for _ in range(rng.randint(0, 3)):
        ring = rng.choice(rings)
        i, kind = rng.randrange(len(ring)), rng.randrange(len(POINT_FAULTS) + 3)
        if kind < len(POINT_FAULTS):
            point = [*ring[i], 0, 0][:2] if isinstance(ring[i], (list, tuple)) else [0, 0]
            ring[i] = POINT_FAULTS[kind](rng, point)
        elif kind == len(POINT_FAULTS):
            ring.insert(i, ring[i])  # a zero-length edge
        elif kind == len(POINT_FAULTS) + 1:
            ring.append(ring[0])  # an explicit closing vertex
        else:
            del ring[i + 1 :]  # too few points, when i < 2
    doc = {"outer": rings[0], "holes": rings[1:]}
    if rng.random() < 0.1:
        doc["holes"] = rng.choice(HOLE_VALUES)
    return doc


def outcome(parse, doc):
    try:
        domain = parse(doc)
    except InstanceFormatError as exc:
        return str(exc)
    return domain.vertices.tolist(), domain.starts.tolist()


class TestParseMatchesReference:
    """The array parser against the one-point-at-a-time parser: the same arrays, or the same error text."""

    KINDS = [
        "expected a list of at least 3 points",
        "points must be [int, int] pairs",
        "coordinate overflow",
        "needs at least 4 vertices",
        "zero-length edge",
        "non-rectilinear edge",
        '"holes" must be a list',
        "invalid JSON",
    ]

    def test_fuzzed_documents(self):
        rng = random.Random(20261019)
        kinds, accepted = Counter(), 0
        for _ in range(4000):
            doc = fuzz_document(rng)
            if rng.random() < 0.1:
                doc = json.dumps(doc) + rng.choice(["", "", "}"])
            expected = outcome(reference.parse_domain, doc)
            assert outcome(parse_domain, doc) == expected, doc
            if isinstance(expected, str):
                kinds.update(kind for kind in self.KINDS if kind in expected)
            else:
                accepted += 1
        assert all(kinds[kind] for kind in self.KINDS) and accepted, (kinds, accepted)

    def test_first_fault_reported(self):
        """A type fault after an overflow reports the overflow; an overflow after a type fault reports the type."""
        ring = [[0, 0], [10, 0], [10, 10], [0, 10]]
        cases = [
            ({2: [LIMIT + 1, 10], 3: [True, 10]}, "outer: coordinate overflow at [536870913, 10]"),
            ({2: [10, 10.0], 3: [-LIMIT - 1, 10]}, "outer: points must be [int, int] pairs, got [10, 10.0]"),
            ({1: [11, 0], 2: [10, 10, 1]}, "outer: points must be [int, int] pairs, got [10, 10, 1]"),
            ({0: [0, 1], 2: [10, 11]}, "outer: non-rectilinear edge (0, 2) -> (20, 0)"),
            ({1: [0, 0], 2: [10, 11]}, "outer: zero-length edge at (0, 0)"),
            ({3: [0, 2**70]}, f"outer: coordinate overflow at [0, {2**70}]"),
        ]
        for faults, message in cases:
            doc = {"outer": [faults.get(i, p) for i, p in enumerate(ring)]}
            assert outcome(parse_domain, doc) == outcome(reference.parse_domain, doc) == message

    def test_coordinate_limit(self):
        for value in (LIMIT, -LIMIT):
            assert parse_domain({"outer": [[0, 0], [value, 0], [value, 10], [0, 10]]}).n == 4
        for value in (LIMIT + 1, -LIMIT - 1):
            with pytest.raises(InstanceFormatError, match=rf"^outer: coordinate overflow at \[{value}, 0\]$"):
                parse_domain({"outer": [[0, 0], [value, 0], [value, 10], [0, 10]]})

    def test_huge_coordinate_not_formatted(self):
        """A decoded coordinate past the interpreter's digit limit is echoed by its size; both parsers agree."""
        doc = {"outer": [[0, 0], [10**5000, 0], [10, 10], [0, 10]]}
        message = "outer: coordinate overflow at [<int of 16610 bits>, 0]"
        assert outcome(parse_domain, doc) == outcome(reference.parse_domain, doc) == message

    def test_long_values_echoed_alike(self):
        """Long and deep offending values are cut at the same 80 characters by both parsers."""
        deep = [1]
        for _ in range(300):
            deep = [deep]
        ring = [[0, 0], [10, 0], [10, 10]]
        for doc in (
            {"outer": ring + [deep]},
            {"outer": ring + [list(range(100))]},
            {"outer": ring + [[2**300, "x" * 200]]},
            {"outer": ring + [[0, 10]], "holes": {"ring": "y" * 200}},
        ):
            message = outcome(parse_domain, doc)
            assert message == outcome(reference.parse_domain, doc) and message.endswith("…"), doc
            assert len(message.split(" got " if " got " in message else " at ")[1]) == 81, doc


class TestValidate:
    @pytest.mark.parametrize("inst", [SQUARE, LSHAPE, DONUT], ids=["square", "lshape", "donut"])
    def test_fixtures_clean(self, inst):
        assert validate(parse_domain(inst)).ok

    def test_general_position_flagged(self):
        # hole corner shares x=6 with nothing adjacent; outer has a vertex at x=6
        inst = {
            "outer": [[0, 0], [6, 0], [6, -2], [14, -2], [14, 14], [0, 14]],
            "holes": [[[6, 6], [8, 6], [8, 8], [6, 8]]],
        }
        assert validate(parse_domain(inst)).violations == (
            "general position: 4 vertices share x=6 without being joined by an edge",
        )

    def test_alternation_flagged(self):
        inst = {"outer": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]]}
        assert validate(parse_domain(inst)).violations == (
            "alternation: outer has an odd vertex count",
            "alternation: outer has consecutive H edges at vertex 1",
            "general position: 3 vertices share y=0 without being joined by an edge",
            "simplicity: two horizontal edges touch on line 0",
        )

    def test_touching_hole_flagged(self):
        inst = {
            "outer": [[0, 0], [14, 0], [14, 14], [0, 14]],
            "holes": [[[0, 6], [2, 6], [2, 8], [0, 8]]],
        }
        assert validate(parse_domain(inst)).violations == (
            "general position: 4 vertices share x=0 without being joined by an edge",
            "simplicity: two vertical edges touch on line 0",
            "simplicity: edge contact between a horizontal edge of ring 1 and a vertical edge of ring 0",
            "simplicity: edge contact between a horizontal edge of ring 1 and a vertical edge of ring 0",
        )

    def test_hole_outside_flagged(self):
        inst = {
            "outer": [[0, 0], [14, 0], [14, 14], [0, 14]],
            "holes": [[[20, 20], [22, 20], [22, 22], [20, 22]]],
        }
        assert validate(parse_domain(inst)).violations == ("containment: hole 0 is not inside the outer ring",)

    def test_self_touching_ring_flagged(self):
        # bowtie-like rectilinear ring touching itself at (4, 4)
        inst = {
            "outer": [
                [0, 0], [4, 0], [4, 4], [8, 4], [8, 8], [4, 8], [4, 4], [0, 4],
            ]
        }
        assert validate(parse_domain(inst)).violations == (
            "general position: 4 vertices share x=4 without being joined by an edge",
            "general position: 4 vertices share y=4 without being joined by an edge",
            "simplicity: two horizontal edges touch on line 4",
            "simplicity: two vertical edges touch on line 4",
            "simplicity: edge contact between a horizontal edge of ring 0 and a vertical edge of ring 0",
            "simplicity: edge contact between a horizontal edge of ring 0 and a vertical edge of ring 0",
        )


def fuzz_ring(rng: random.Random, size: int) -> list[list[int]]:
    """A random rectilinear ring (x0, y0) -> (x1, y0) -> (x1, y1) -> ... in [0, size), often self-touching.

    Up to two edges are split by a collinear vertex, each half the time,
    which breaks the alternation of horizontal and vertical edges.
    """
    k = rng.randint(2, 5)
    while True:
        xs = [rng.randrange(size) for _ in range(k)]
        ys = [rng.randrange(size) for _ in range(k)]
        if all(xs[i] != xs[i - 1] and ys[i] != ys[i - 1] for i in range(k)):
            break
    ring = []
    for i in range(k):
        ring += [[xs[i], ys[i]], [xs[(i + 1) % k], ys[i]]]
    for _ in range(2):
        i = rng.randrange(len(ring))
        (x1, y1), (x2, y2) = ring[i], ring[(i + 1) % len(ring)]
        if rng.random() < 0.5 and abs(x1 - x2) + abs(y1 - y2) >= 2:
            ring.insert(i + 1, [(x1 + x2) // 2, (y1 + y2) // 2])
    return ring


def fuzz_instance(rng: random.Random) -> dict:
    """An outer ring and 0-3 holes that overlap, touch, nest or sit outside it.

    Holes are random rings or small rectangles on the same small grid.  One
    instance in five has a ring, or the whole domain, moved to within a few
    units of the coordinate limit, where a sort key packing two coordinates
    would overflow.
    """
    size = rng.choice([6, 10, 16])
    rings = [fuzz_ring(rng, size)]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            rings.append(fuzz_ring(rng, size))
        else:
            x, y = rng.randrange(size - 1), rng.randrange(size - 1)
            w, h = rng.randint(1, size - 1 - x), rng.randint(1, size - 1 - y)
            rings.append([[x, y], [x + w, y], [x + w, y + h], [x, y + h]])
    moved = {0: rings, 1: [rng.choice(rings)]}.get(rng.randrange(10), [])
    if moved:
        limit = COORD_LIMIT // SCALE
        # the ring coordinates, in [0, size), end up at most 3 units inside the limit
        dx, dy = (rng.choice([limit - (size - 1) - rng.randint(0, 3), -limit + rng.randint(0, 3)]) for _ in "xy")
        for ring in moved:
            ring[:] = [[x + dx, y + dy] for x, y in ring]
    return {"outer": rings[0], "holes": rings[1:]}


class TestValidateMatchesReference:
    KINDS = {
        "alternation": "alternation:",
        "general position": "general position:",
        "collinear contact": "simplicity: two",
        "crossing contact": "simplicity: edge contact",
        "containment": "containment:",
    }

    def test_fuzzed_domains(self):
        """Violation lists equal the per-line, dense-matrix validator's, in text and order."""
        rng = random.Random(20261018)
        kinds = Counter()
        for _ in range(2500):
            domain = parse_domain(fuzz_instance(rng))
            expected = reference.validate(domain).violations
            assert validate(domain).violations == expected, domain_to_instance(domain)
            for kind, prefix in self.KINDS.items():
                kinds[kind] += sum(v.startswith(prefix) for v in expected)
        assert all(kinds[kind] for kind in self.KINDS), kinds

    def test_comb_memory(self):
        """The contact checks hold no |h| x |v| temporary: comb(2000) has n = 8000."""
        domain = parse_domain(comb(2000))
        tracemalloc.start()
        try:
            report = validate(domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 4 * 2**20, peak


def strip_copies(h: np.ndarray, v: np.ndarray, width: int) -> int:
    """How many strips of ``width`` verticals the horizontals meet, together: the copies ``crossings`` would make."""
    bounds = np.sort(v[:, 0])[::width]
    first = np.maximum(bounds.searchsorted(h[:, 1], side="right") - 1, 0)
    return int(np.maximum(bounds.searchsorted(h[:, 2], side="right") - first, 0).sum())


def segments(rng: np.random.Generator, count: int, span: int) -> np.ndarray:
    """``count`` segments ``(fixed, lo, hi)`` on the coordinates ``0..span``, lo <= hi."""
    fixed = rng.integers(0, span + 1, count)
    ends = np.sort(rng.integers(0, span + 1, (count, 2)), axis=1)
    return np.column_stack([fixed, ends]).astype(np.int64)


class TestCrossings:
    """The x-strip search reports exactly the pairs that a test of every pair does, sorted."""

    def assert_brute_force(self, h, v):
        got = crossings(h, v)
        assert got.dtype == np.intp and got.shape[1:] == (2,)
        assert np.array_equal(got, reference.crossings_quadratic(h, v))

    @settings(max_examples=300, deadline=None)
    @given(
        nh=st.integers(0, 60),
        nv=st.one_of(st.integers(0, 40), st.integers(60, 300)),
        span=st.integers(1, 12),
        spanning=st.one_of(st.integers(0, 40), st.integers(200, 400)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force(self, nh, nv, span, spanning, seed):
        """Few coordinates, so verticals share x, strips share a bound and segment ends fall on bounds.

        ``spanning`` horizontals reach past every vertical and meet every
        strip; a few hundred of them against ten strips or more push the
        copies past their budget.
        """
        rng = np.random.default_rng(seed)
        h, v = segments(rng, nh, span), segments(rng, nv, span)
        wide = np.column_stack([rng.integers(0, span + 1, spanning), np.full((spanning, 2), [-1, span + 1])])
        self.assert_brute_force(np.concatenate([h, wide]), v)

    @pytest.mark.parametrize("nh, nv", [(0, 0), (0, 7), (7, 0), (0, 200), (200, 0)])
    def test_empty(self, nh, nv):
        rng = np.random.default_rng(nh + nv)
        self.assert_brute_force(segments(rng, nh, 9).reshape(-1, 3), segments(rng, nv, 9).reshape(-1, 3))

    def test_bounds_on_segment_ends(self):
        """Every horizontal starts or ends on a strip's bound, and some bounds repeat."""
        rng = np.random.default_rng(1)
        v = segments(rng, 8 * STRIP, 20)
        v[: 3 * STRIP, 0] = 7
        bounds = np.sort(v[:, 0])[::STRIP]
        assert len(np.unique(bounds)) < len(bounds)  # strips that start at one x
        ends = rng.choice(bounds, (300, 2))
        h = np.column_stack([rng.integers(0, 21, 300), ends.min(axis=1), ends.max(axis=1)])
        h[::3, 1] += rng.integers(-1, 2, 100)  # one unit either side of a bound, or on it
        h[1::3, 2] += rng.integers(-1, 2, 100)
        h[:, 1:] = np.sort(h[:, 1:], axis=1)
        self.assert_brute_force(h, v)

    @pytest.mark.parametrize("nh", [200, 900])
    def test_widening(self, nh):
        """Horizontals across the whole width make too many copies; the strips widen once (200) or twice (900)."""
        rng = np.random.default_rng(nh)
        nv = 40 * STRIP
        v = np.column_stack([rng.permutation(nv), np.sort(rng.integers(0, 50, (nv, 2)), axis=1)])
        h = np.column_stack([rng.integers(0, 50, nh), np.full((nh, 2), [-1, nv])])
        assert strip_copies(h, v, STRIP) > 4 * (nh + nv)
        assert (strip_copies(h, v, 4 * STRIP) > 4 * (nh + nv)) == (nh == 900)
        self.assert_brute_force(h, v)


class TestDecompositions:
    def test_square(self, square):
        assert boxes(square.prep.hdec) == {(0, 20, 0, 20)}
        assert boxes(square.prep.vdec) == {(0, 20, 0, 20)}

    def test_lshape(self, lshape):
        assert boxes(lshape.prep.hdec) == {(0, 20, 0, 8), (0, 8, 8, 20)}
        assert boxes(lshape.prep.vdec) == {(0, 8, 0, 20), (8, 20, 0, 8)}

    def test_donut(self, donut):
        assert boxes(donut.prep.hdec) == {
            (0, 28, 0, 12),
            (0, 28, 16, 28),
            (0, 12, 12, 16),
            (16, 28, 12, 16),
        }
        assert boxes(donut.prep.vdec) == {
            (0, 12, 0, 28),
            (16, 28, 0, 28),
            (12, 16, 0, 12),
            (12, 16, 16, 28),
        }

    def test_orientation_tags(self, donut):
        assert all(r.orientation is Orientation.HORIZONTAL for r in donut.prep.hdec.rects)
        assert all(r.orientation is Orientation.VERTICAL for r in donut.prep.vdec.rects)

    def test_rects_view(self, fixtures, corpus):
        """``rects`` is ``boxes`` as objects, built on the first read; a decomposition equals only itself."""
        for inst in fixtures + corpus[:20]:
            for dec in (inst.prep.hdec, inst.prep.vdec):
                rects = [(r.id, r.orientation, r.xmin, r.xmax, r.ymin, r.ymax) for r in dec.rects]
                assert rects == [(i, dec.orientation, *box) for i, box in enumerate(dec.boxes.tolist())]
                assert dec.rects is dec.rects
            assert inst.prep.hdec == inst.prep.hdec != horizontal_decomposition(inst.domain)

    @pytest.mark.parametrize("which", ["hdec", "vdec"])
    def test_area_sum_fixtures(self, fixtures, which):
        for inst in fixtures:
            dec = getattr(inst.prep, which)
            assert 2 * total_area(dec) == domain_area2(inst.domain)

    def test_equal_cardinality_fixtures(self, fixtures):
        for inst in fixtures:
            assert len(inst.prep.hdec) == len(inst.prep.vdec)

    def test_area_and_cardinality_generated(self, corpus):
        for inst in corpus[:60]:
            area2 = domain_area2(inst.domain)
            assert 2 * total_area(inst.prep.hdec) == area2
            assert 2 * total_area(inst.prep.vdec) == area2
            assert len(inst.prep.hdec) == len(inst.prep.vdec)

    def test_cell_level_partition(self, small_corpus):
        # every interior point lies in exactly one rect per decomposition and
        # exterior points in none: checked at grid-cell centers
        import numpy as np

        from rectilink import OutsidePointError

        for inst in small_corpus[:15]:
            grid = inst.grid
            nrows, ncols = grid.inside.shape
            for iy in range(nrows):
                for ix in range(ncols):
                    center = (
                        int(grid.xs[ix] + grid.xs[ix + 1]) // 2,
                        int(grid.ys[iy] + grid.ys[iy + 1]) // 2,
                    )
                    for dec in (inst.prep.hdec, inst.prep.vdec):
                        hits = [box for box in dec.boxes.tolist() if contains(box, center)]
                        assert len(hits) == (1 if grid.inside[iy, ix] else 0)

    def test_disjoint_interiors(self, small_corpus):
        for inst in small_corpus[:20]:
            for dec in (inst.prep.hdec, inst.prep.vdec):
                rects = dec.rects
                for a in range(len(rects)):
                    for b in range(a + 1, len(rects)):
                        ra, rb = rects[a], rects[b]
                        overlap_x = min(ra.xmax, rb.xmax) - max(ra.xmin, rb.xmin)
                        overlap_y = min(ra.ymax, rb.ymax) - max(ra.ymin, rb.ymin)
                        assert overlap_x <= 0 or overlap_y <= 0


def sweep_outcome(sweep, events):
    """The slabs a sweep emits, or the messages of the error it raises."""
    try:
        return sweep(events)
    except InvalidDomainError as exc:
        return exc.violations


class TestSweepMatchesReference:
    """The sweep on three parallel lists emits the one-list sweep's slabs, and raises its errors word for word."""

    @pytest.mark.parametrize("collection", ["fixtures", "corpus", "grid40", "grid60"])
    def test_boxes(self, collection, request, monkeypatch):
        for k, inst in enumerate(request.getfixturevalue(collection)):
            got = [dec(inst.domain).boxes for dec in (horizontal_decomposition, vertical_decomposition)]
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_sweep_rects", reference._sweep_rects)
                want = [dec(inst.domain).boxes for dec in (horizontal_decomposition, vertical_decomposition)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), k

    def test_fuzzed_events(self):
        """Random event runs on a few coordinates, most of them invalid: the same slabs, or the same error word for word."""
        rng = random.Random(5)
        kinds = set()
        for _ in range(4000):
            events = []
            for coord in sorted(rng.randrange(6) for _ in range(rng.randrange(1, 9))):
                lo = rng.randrange(6)
                events.append((coord, lo, lo + rng.randrange(1, 4), rng.random() < 0.5))
            expected = sweep_outcome(reference._sweep_rects, events)
            assert sweep_outcome(geometry._sweep_rects, events) == expected, events
            kinds.add(expected[0].split(" ")[1] if isinstance(expected[0], str) else "slabs")
        assert kinds == {"slabs", "opening", "closing", "unterminated"}


class TestLocate:
    def test_donut_interior(self, donut):
        ids = locate(donut.prep.hdec, (14, 6))  # (7, 3) in input units
        assert len(ids) == 1
        assert donut.prep.hdec.boxes[ids.pop()].tolist() == [0, 28, 0, 12]

    def test_square_center(self, square):
        assert locate(square.prep.hdec, (10, 10)) == {0}

    def test_slab_boundary_two_rects(self, donut):
        ids = locate(donut.prep.hdec, (6, 12))  # (3, 6): chord between bottom and left
        assert len(ids) == 2
        found = {tuple(donut.prep.hdec.boxes[i].tolist()) for i in ids}
        assert found == {(0, 28, 0, 12), (0, 12, 12, 16)}

    def test_hole_edge_point_single_rect(self, donut):
        # (7, 6) sits on the hole's bottom edge: only the bottom slab contains it
        ids = locate(donut.prep.hdec, (14, 12))
        assert {tuple(donut.prep.hdec.boxes[i].tolist()) for i in ids} == {(0, 28, 0, 12)}

    def test_outside_raises(self, donut):
        with pytest.raises(OutsidePointError):
            locate(donut.prep.hdec, (-2, -2))

    def test_hole_interior_raises(self, donut):
        with pytest.raises(OutsidePointError):
            locate(donut.prep.hdec, (14, 14))  # (7, 7): inside the hole

    def test_closure_containment_invariant(self, donut):
        for dec in (donut.prep.hdec, donut.prep.vdec):
            for p in [(14, 6), (6, 12), (2, 2), (26, 26)]:
                for i in locate(dec, p):
                    assert contains(dec.boxes[i].tolist(), p)
