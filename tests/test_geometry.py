"""Parsing, validation, decompositions and point location."""

import random
import tracemalloc
from collections import Counter

import pytest

import reference
from rectilink import InstanceFormatError, OutsidePointError, domain_to_instance, parse_domain
from rectilink.geometry import COORD_LIMIT, SCALE, Orientation, horizontal_decomposition, locate, validate

from conftest import DONUT, LSHAPE, SQUARE, comb


def boxes(dec):
    return set(map(tuple, dec.boxes.tolist()))


def domain_area2(domain):
    total = domain.outer.signed_area2()
    for hole in domain.holes:
        total += hole.signed_area2()  # holes are clockwise: negative
    return total


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
        assert d.outer.vertices == ((0, 0), (20, 0), (20, 20), (0, 20))

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
        assert d.outer.signed_area2() > 0
        assert d.holes[0].signed_area2() < 0

    def test_round_trip(self):
        d = parse_domain(DONUT)
        assert parse_domain(domain_to_instance(d)) == d


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
