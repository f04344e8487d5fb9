"""Grid model and turn-cost distances against hand values and the formula."""

import numpy as np
import pytest

from rectilink import GridModel, OutsidePointError, build_grid, oracle_distance, parse_domain, point_distance
from rectilink.oracle import oracle_diameter, oracle_eccentricity, oracle_radius

from conftest import DONUT


class TestBuildGrid:
    def test_square(self, square):
        g = square.grid
        assert g.inside.shape == (1, 1) and g.inside.sum() == 1

    def test_donut(self, donut):
        g = donut.grid
        assert g.inside.shape == (3, 3) and g.inside.sum() == 8
        assert not g.inside[1, 1]  # center cell is the hole

    def test_lshape(self, lshape):
        g = lshape.grid
        assert g.inside.shape == (2, 2) and g.inside.sum() == 3
        assert not g.inside[1, 1]

    def test_cuts(self, donut):
        assert donut.grid.xs.tolist() == [0, 12, 16, 28]
        assert donut.grid.ys.tolist() == [0, 12, 16, 28]


class TestOracleDistance:
    def test_donut_around_hole(self, donut):
        assert oracle_distance(donut.grid, (14, 6), (14, 22)) == 3

    def test_donut_diagonal(self, donut):
        assert oracle_distance(donut.grid, (6, 6), (22, 22)) == 2

    def test_coincident(self, square):
        assert oracle_distance(square.grid, (10, 10), (10, 10)) == 0

    def test_same_cell_generic(self, square):
        assert oracle_distance(square.grid, (2, 2), (14, 6)) == 2

    def test_same_cell_aligned(self, square):
        assert oracle_distance(square.grid, (2, 2), (2, 14)) == 1

    def test_cross_cell_aligned_single_segment(self, donut):
        # (1,1) -> (13,1): straight shot along the bottom band
        assert oracle_distance(donut.grid, (2, 2), (26, 2)) == 1

    def test_cross_cell_same_band_not_aligned(self, donut):
        assert oracle_distance(donut.grid, (2, 2), (26, 4)) == 2

    def test_outside_raises(self, donut):
        with pytest.raises(OutsidePointError):
            oracle_distance(donut.grid, (-4, 2), (2, 2))

    def test_hole_interior_raises(self, donut):
        with pytest.raises(OutsidePointError):
            oracle_distance(donut.grid, (14, 14), (2, 2))

    def test_symmetry(self, donut):
        pts = [(2, 2), (14, 6), (26, 26), (6, 22)]
        for p in pts:
            for q in pts:
                assert oracle_distance(donut.grid, p, q) == oracle_distance(donut.grid, q, p)

    def test_state_count_bound(self, corpus):
        for inst in corpus[:10]:
            grid = inst.grid
            rng = np.random.default_rng(1)
            ys, xs = np.nonzero(grid.inside)
            for _ in range(10):
                a, b = rng.integers(0, len(ys), 2)
                p = (int(grid.xs[xs[a]] + 1), int(grid.ys[ys[a]] + 1))
                q = (int(grid.xs[xs[b]] + 1), int(grid.ys[ys[b]] + 1))
                assert oracle_distance(grid, p, q) <= 2 * int(grid.inside.sum()) + 1


class TestOracleExtremes:
    def test_fixture_values(self, square, lshape, donut):
        for inst, dia, rad in [(square, 2, 2), (lshape, 2, 2), (donut, 3, 2)]:
            assert oracle_diameter(inst.grid).value == dia
            assert oracle_radius(inst.grid).value == rad

    def test_face_count_matches_graph(self, fixtures, corpus):
        for inst in fixtures + corpus[:40]:
            assert len(inst.grid.faces()) == inst.prep.graph.chi

    def test_diameter_pair_realizes_value(self, donut):
        res = oracle_diameter(donut.grid)
        assert oracle_distance(donut.grid, *res.pair) == res.value

    def test_radius_center_realizes_value(self, donut):
        res = oracle_radius(donut.grid)
        assert oracle_eccentricity(donut.grid, res.center) == res.value

    def test_face_values_match_formula(self, fixtures, corpus):
        pairs = 0
        for inst in fixtures + corpus[::10]:
            faces = inst.grid.faces()
            values = inst.grid.face_values()
            prep = inst.prep
            for a, fa in enumerate(faces):
                for b, fb in enumerate(faces):
                    if a != b:
                        args = (prep.hdec, prep.vdec, prep.graph, fa.rep, fb.rep)
                        assert values[a, b] == point_distance(*args), (inst.name, fa.rep, fb.rep)
                        pairs += 1
        assert pairs == 1674

    def test_radius_reuses_face_matrix(self, monkeypatch):
        grid = build_grid(parse_domain(DONUT))
        calls = []
        costs_from = GridModel.costs_from

        def counted(self, cell, cache=True):
            calls.append(cell)
            return costs_from(self, cell, cache)

        monkeypatch.setattr(GridModel, "costs_from", counted)
        oracle_diameter(grid)
        assert len(calls) == len(grid.faces())
        calls.clear()
        assert oracle_radius(grid).value == 2
        assert calls == []


class TestFormulaCrossValidation:
    def test_random_generic_pairs(self, corpus):
        rng = np.random.default_rng(11)
        for inst in corpus[:15]:
            grid = inst.grid
            ys, xs = np.nonzero(grid.inside)
            points = []
            for _ in range(12):
                k = rng.integers(0, len(ys))
                iy, ix = int(ys[k]), int(xs[k])
                points.append(
                    (
                        int(rng.integers(grid.xs[ix] + 1, grid.xs[ix + 1])),
                        int(rng.integers(grid.ys[iy] + 1, grid.ys[iy + 1])),
                    )
                )
            for p in points:
                for q in points:
                    formula = point_distance(inst.prep.hdec, inst.prep.vdec, inst.prep.graph, p, q)
                    assert formula == oracle_distance(grid, p, q), (inst.name, p, q)


class TestIndependenceDetails:
    def test_permissive_on_internal_cut(self):
        # a point on a cut line interior to a face resolves to either side
        domain = parse_domain(DONUT)
        grid = build_grid(domain)
        assert oracle_distance(grid, (12, 6), (26, 2)) in (1, 2)  # x = 12 is a cut

    def test_cache_reuse(self, donut):
        grid = donut.grid
        a = oracle_distance(grid, (2, 2), (26, 26))
        b = oracle_distance(grid, (2, 2), (26, 26))
        assert a == b
