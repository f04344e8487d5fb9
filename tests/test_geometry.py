"""Parsing, validation, decompositions and point location."""

import pytest

from rectilink import InstanceFormatError, OutsidePointError, domain_to_instance, parse_domain
from rectilink.geometry import Orientation, locate, validate

from conftest import DONUT, LSHAPE, SQUARE


def boxes(dec):
    return {r.box() for r in dec.rects}


def domain_area2(domain):
    total = domain.outer.signed_area2()
    for hole in domain.holes:
        total += hole.signed_area2()  # holes are clockwise: negative
    return total


def total_area(dec):
    return sum((r.xmax - r.xmin) * (r.ymax - r.ymin) for r in dec.rects)


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
        report = validate(parse_domain(inst))
        assert any("general position" in v for v in report.violations)

    def test_alternation_flagged(self):
        inst = {"outer": [[0, 0], [5, 0], [10, 0], [10, 10], [0, 10]]}
        report = validate(parse_domain(inst))
        assert any("alternation" in v for v in report.violations)

    def test_touching_hole_flagged(self):
        inst = {
            "outer": [[0, 0], [14, 0], [14, 14], [0, 14]],
            "holes": [[[0, 6], [2, 6], [2, 8], [0, 8]]],
        }
        report = validate(parse_domain(inst))
        assert any("simplicity" in v for v in report.violations)

    def test_hole_outside_flagged(self):
        inst = {
            "outer": [[0, 0], [14, 0], [14, 14], [0, 14]],
            "holes": [[[20, 20], [22, 20], [22, 22], [20, 22]]],
        }
        report = validate(parse_domain(inst))
        assert any("containment" in v for v in report.violations)

    def test_self_touching_ring_flagged(self):
        # bowtie-like rectilinear ring touching itself at (4, 4)
        inst = {
            "outer": [
                [0, 0], [4, 0], [4, 4], [8, 4], [8, 8], [4, 8], [4, 4], [0, 4],
            ]
        }
        report = validate(parse_domain(inst))
        assert not report.ok


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
                        hits = [r for r in dec.rects if r.contains(center)]
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
        rect = donut.prep.hdec.rects[ids.pop()]
        assert rect.box() == (0, 28, 0, 12)

    def test_square_center(self, square):
        assert locate(square.prep.hdec, (10, 10)) == {0}

    def test_slab_boundary_two_rects(self, donut):
        ids = locate(donut.prep.hdec, (6, 12))  # (3, 6): chord between bottom and left
        assert len(ids) == 2
        found = {donut.prep.hdec.rects[i].box() for i in ids}
        assert found == {(0, 28, 0, 12), (0, 12, 12, 16)}

    def test_hole_edge_point_single_rect(self, donut):
        # (7, 6) sits on the hole's bottom edge: only the bottom slab contains it
        ids = locate(donut.prep.hdec, (14, 12))
        assert {donut.prep.hdec.rects[i].box() for i in ids} == {(0, 28, 0, 12)}

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
                    assert dec.rects[i].contains(p)
