"""Grid model and turn-cost distances against hand values and the formula."""

import numpy as np
import pytest

from rectilink import GridModel, OutsidePointError, build_grid, oracle_distance, parse_domain, point_distance
from rectilink import oracle
from rectilink.oracle import oracle_diameter, oracle_eccentricity, oracle_radius

from conftest import DONUT, DUMBBELL, comb, medium_domain, perforated, spiral, staircase
import reference
from reference import RelaxationGrid


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


class TestBuildGridMatchesEdgeLoop:
    """Cuts and inside flags equal the loop over the ring edges, one ``searchsorted`` per vertical edge."""

    def test_fixtures_corpus_and_grids(self, fixtures, corpus, grid40, grid60):
        domains = [inst.domain for inst in fixtures + corpus] + [prep.domain for prep in grid40 + grid60]
        for k, domain in enumerate(domains):
            assert_same_grid(build_grid(domain), reference.build_grid(domain), k)

    def test_rare_shapes(self):
        shapes = [staircase(k) for k in (1, 2, 7, 20)] + [comb(k) for k in (1, 2, 9, 50)]
        shapes += [spiral(k) for k in (3, 4, 12)] + [perforated(k) for k in (1, 2, 11)] + [DUMBBELL]
        for k, instance in enumerate(shapes):
            domain = parse_domain(instance)
            assert_same_grid(build_grid(domain), reference.build_grid(domain), k)


def assert_same_grid(got: GridModel, want: GridModel, label) -> None:
    for a, b in ((got.xs, want.xs), (got.ys, want.ys), (got.inside, want.inside)):
        assert a.dtype == b.dtype and np.array_equal(a, b), label


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

    def test_faces_computed_once(self, monkeypatch):
        """One read-only face array per grid serves the face table, both extremes and every eccentricity."""
        grid = build_grid(parse_domain(DONUT))
        calls, labels = [], GridModel._stack_labels
        monkeypatch.setattr(GridModel, "_stack_labels", lambda self: calls.append(1) or labels(self))
        diameter, radius = oracle_diameter(grid), oracle_radius(grid)
        assert oracle_eccentricity(grid, radius.center) == radius.value
        assert calls == [1] and grid.faces() is grid.faces() and not grid.faces().flags.writeable
        assert all(type(c) is int for point in (*diameter.pair, radius.center) for c in point)

    def test_diameter_pair_realizes_value(self, donut):
        res = oracle_diameter(donut.grid)
        assert oracle_distance(donut.grid, *res.pair) == res.value

    def test_radius_center_realizes_value(self, donut):
        res = oracle_radius(donut.grid)
        assert oracle_eccentricity(donut.grid, res.center) == res.value

    def test_face_values_match_formula(self, fixtures, corpus):
        pairs = 0
        for inst in fixtures + corpus[::10]:
            reps = list(map(tuple, inst.grid.faces().rep.tolist()))
            values = face_table(inst.grid)
            prep = inst.prep
            for a, pa in enumerate(reps):
                for b, pb in enumerate(reps):
                    if a != b:
                        args = (prep.hdec, prep.vdec, prep.graph, pa, pb)
                        assert values[a, b] == point_distance(*args), (inst.name, pa, pb)
                        pairs += 1
        assert pairs == 1674

    def test_radius_reuses_face_matrix(self, monkeypatch):
        grid = build_grid(parse_domain(DONUT))
        passes = []
        levels = GridModel._levels

        def counted(self, sources, targets):
            passes.append(len(sources))
            return levels(self, sources, targets)

        monkeypatch.setattr(GridModel, "_levels", counted)
        oracle_diameter(grid)
        assert passes == [len(grid.faces())]  # one pass, every face a source
        passes.clear()
        assert oracle_radius(grid).value == 2
        assert passes == []


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


def face_table(grid: GridModel) -> np.ndarray:
    """The face table, the blocks of ``grid._face_rows()`` stacked, once ``grid._farthest`` is checked against it.

    ``_farthest`` holds each row's maximum and first argmax, and the
    diameter's pair, the first face of greatest eccentricity and its first
    farthest face, is the table's first maximum in row-major order.
    """
    values = np.concatenate(list(grid._face_rows()))
    ecc, farthest = grid._farthest
    assert np.array_equal(ecc, values.max(axis=1)) and np.array_equal(farthest, values.argmax(axis=1))
    a = int(np.argmax(ecc))
    assert (a, int(farthest[a])) == divmod(int(np.argmax(values)), len(values))
    return values


def assert_matches_relaxation(grid: GridModel, name: str) -> None:
    """The grid's face arrays, row by row, equal the relaxation's face records, and so do the face tables."""
    ref = RelaxationGrid(grid.xs, grid.ys, grid.inside)
    faces, want = grid.faces(), ref.faces()
    assert faces.box.tolist() == [list(f.box) for f in want], name
    assert faces.rep.tolist() == [list(f.rep) for f in want], name
    assert faces.cell_id.tolist() == [int(grid._ids[f.cell]) for f in want], name
    assert np.array_equal(face_table(grid), ref.face_values()), name


class TestPassMatchesRelaxation:
    """The word-parallel pass and the array-built faces against the Gauss-Seidel relaxation and union-find faces."""

    def test_fixtures_and_corpus(self, fixtures, corpus):
        for inst in fixtures + corpus:
            assert_matches_relaxation(inst.grid, inst.name)

    def test_deeper_instances(self):
        assert_matches_relaxation(build_grid(parse_domain(DUMBBELL)), "DUMBBELL")
        for seed in range(101, 106):
            assert_matches_relaxation(build_grid(medium_domain(seed)), f"medium-{seed}")

    def test_rare_shapes(self):
        shapes = [(f"staircase({k})", staircase(k)) for k in range(1, 7)]
        shapes += [(f"comb({k})", comb(k)) for k in range(1, 6)]
        shapes += [(f"spiral({k})", spiral(k)) for k in (3, 12)]
        shapes += [(f"perforated({k})", perforated(k)) for k in (2, 11)]
        for name, instance in shapes:
            assert_matches_relaxation(build_grid(parse_domain(instance)), name)

    @pytest.mark.parametrize("block", [3, 65])
    def test_forced_source_blocks(self, monkeypatch, corpus, block):
        """Blocks that end inside a machine word, or one source past it."""
        monkeypatch.setattr(oracle, "_block_sources", lambda cells: block)
        domains = [inst.domain for inst in corpus[::25]] + [parse_domain(DUMBBELL), medium_domain(105)]
        assert max(len(build_grid(d).faces()) for d in domains) > 2 * 65
        for domain in domains:
            assert_matches_relaxation(build_grid(domain), f"block {block}")

    def test_one_source_costs(self, corpus):
        """``costs_from`` one face cell at a time equals the relaxation's arrays, from the same face cells."""
        for inst in corpus[:20]:
            grid = inst.grid
            ref = RelaxationGrid(grid.xs, grid.ys, grid.inside)
            cell_ids, faces = grid.faces().cell_id.tolist(), ref.faces()
            assert len(cell_ids) == len(faces), inst.name
            for cell_id, face in zip(cell_ids, faces):
                assert grid._ids[face.cell] == cell_id, (inst.name, face.cell)
                got = grid.costs_from(face.cell, cache=False)
                want = ref.costs_from(face.cell, cache=False)
                assert all(map(np.array_equal, got, want)), (inst.name, face.cell)
