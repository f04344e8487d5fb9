"""Crossing graph construction, BFS distances, bit planes and far relations, summaries, invariants."""

import json
import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectilink import (
    CappedLevelsError,
    Decomposition,
    DisconnectedGraphError,
    GenParams,
    RectilinkError,
    ResourceLimitError,
    domain_to_instance,
    gen_domain,
    parse_domain,
    run_verify,
)
from rectilink import graph as graph_module
from rectilink.geometry import Orientation
from rectilink.cli import main
from rectilink.graph import (
    Levels,
    _level_search,
    _select_search,
    _source_search,
    _transpose_bits,
    all_pairs,
    bfs_from,
    build_graph,
)
from rectilink.metrics import _popcount, compute
from rectilink.pipeline import decompose, prepare

from conftest import comb, perforated, spiral, staircase
from reference import (
    TableSummary,
    crosses,
    edges_quadratic,
    graph_rects,
    levels_table,
    middle_segment,
    packed,
    rects_cross,
    reference_table,
    summarize_table,
    table_reduceat,
    transpose_bits,
)


def rect_by_box(graph, box):
    rows = graph.boxes.tolist()
    assert list(box) in rows, f"no rect with box {box}"
    return rows.index(list(box))


def middle_of(graph, i):
    return (graph.orientation_of(i), *graph.mids[i].tolist())


class TestMiddleSegment:
    def test_donut_bottom(self, donut):
        g = donut.prep.graph
        assert middle_of(g, rect_by_box(g, (0, 28, 0, 12))) == (Orientation.HORIZONTAL, 6, 0, 28)

    def test_square(self, square):
        assert middle_of(square.prep.graph, 0) == (Orientation.HORIZONTAL, 10, 0, 20)

    def test_donut_vertical(self, donut):
        g = donut.prep.graph
        assert middle_of(g, rect_by_box(g, (12, 16, 0, 12))) == (Orientation.VERTICAL, 14, 0, 12)


class TestBuildGraph:
    def test_square(self, square):
        g = square.prep.graph
        assert g.m == 2 and g.chi == 1 and g.edges.tolist() == [[0, 1]]

    def test_lshape(self, lshape):
        g = lshape.prep.graph
        assert g.m == 4 and g.chi == 3
        h1 = rect_by_box(g, (0, 20, 0, 8))
        h2 = rect_by_box(g, (0, 8, 8, 20))
        v1 = rect_by_box(g, (0, 8, 0, 20))
        v2 = rect_by_box(g, (8, 20, 0, 8))
        assert set(map(tuple, g.edges.tolist())) == {(h1, v1), (h1, v2), (h2, v1)}

    def test_donut_adjacency(self, donut):
        g = donut.prep.graph
        assert g.m == 8 and g.chi == 8
        h1 = rect_by_box(g, (0, 28, 0, 12))
        h2 = rect_by_box(g, (0, 28, 16, 28))
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        v1 = rect_by_box(g, (0, 12, 0, 28))
        v2 = rect_by_box(g, (16, 28, 0, 28))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        assert set(g.neighbours(h1).tolist()) == {v1, v2, v3}
        assert set(g.neighbours(h2).tolist()) == {v1, v2, v4}
        assert set(g.neighbours(h3).tolist()) == {v1}
        assert set(g.neighbours(h4).tolist()) == {v2}

    def test_bipartite(self, fixtures):
        for inst in fixtures:
            g = inst.prep.graph
            for i, j in g.edges.tolist():
                assert g.orientation_of(i) is not g.orientation_of(j)

    def test_middle_segments_touching_at_an_end(self):
        """Middle segments that meet at an end of either one still cross: all four interval ends are closed."""
        for h_box, v_box in [
            ((0, 4, 0, 4), (0, 4, 2, 6)),  # horizontal middle height 2 = vertical ymin
            ((0, 4, 4, 8), (0, 4, 2, 6)),  # height 6 = vertical ymax
            ((2, 6, 0, 4), (0, 4, 0, 4)),  # vertical middle line 2 = horizontal xmin
            ((0, 4, 0, 4), (2, 6, 0, 4)),  # line 4 = horizontal xmax
        ]:
            assert graph_of([h_box], [v_box]).edges.tolist() == [[0, 1]], (h_box, v_box)

    def test_edges_match_quadratic(self, fixtures, corpus, grid60):
        """Edges, adjacency and numbering equal the all-pairs area test, in order."""
        for prep in [inst.prep for inst in fixtures + corpus] + grid60:
            g = prep.graph
            assert_rectangle_arrays(prep.hdec, prep.vdec, g)
            rects = prep.hdec.rects + prep.vdec.rects
            edges = edges_quadratic(rects, g.nh)
            assert g.edges.tolist() == [list(e) for e in edges]
            adj = [[] for _ in rects]
            for i, j in edges:
                adj[i].append(j)
                adj[j].append(i)
            assert [g.neighbours(i).tolist() for i in range(g.m)] == [sorted(neigh) for neigh in adj]

    def test_csr_arrays(self, fixtures, corpus, grid60):
        """Read-only edge and CSR arrays; each CSR group is increasing and holds the rectangle's edges."""
        for g in [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid60]:
            assert_csr_matches_edges(g)


def assert_rectangle_arrays(hdec, vdec, g):
    """Read-only boxes and middle segments equal to the decompositions' rectangles and their reference segments."""
    assert not (hdec.boxes.flags.writeable or vdec.boxes.flags.writeable)
    assert not (g.boxes.flags.writeable or g.mids.flags.writeable)
    assert g.boxes.shape == (len(hdec) + len(vdec), 4) and g.mids.shape == (g.m, 3) and g.nh == len(hdec)
    rects = graph_rects(hdec, vdec)
    assert g.boxes.tolist() == [[r.xmin, r.xmax, r.ymin, r.ymax] for r in rects]
    segments = [middle_segment(r) for r in rects]
    assert [s.owner for s in segments] == list(range(g.m))
    assert [s.axis for s in segments] == [g.orientation_of(i) for i in range(g.m)]
    assert g.mids.tolist() == [[s.fixed, s.lo, s.hi] for s in segments]


class TestRectangleArrays:
    """``graph.boxes`` and ``graph.mids`` against the reference middle segments of the rectangle objects.

    ``test_edges_match_quadratic`` checks them on the fixtures, the corpus and grid 60.
    """

    def test_rare_shapes(self):
        shapes = [comb(k) for k in (1, 2, 3, 8, 21, 50)] + [staircase(k) for k in (1, 2, 3, 7, 20)]
        for instance in shapes:
            assert_rectangle_arrays(*decompose(parse_domain(instance)))


def assert_csr_matches_edges(g):
    edges, indptr, indices = g.edges, g.indptr, g.indices
    assert not (edges.flags.writeable or indptr.flags.writeable or indices.flags.writeable)
    assert edges.shape == (g.chi, 2) and indptr.shape == (g.m + 1,) and indices.shape == (2 * g.chi,)
    assert edges.tolist() == sorted(edges.tolist()) and (edges[:, 0] < g.nh).all() and (edges[:, 1] >= g.nh).all()
    groups = [[] for _ in range(g.m)]
    for i, j in edges.tolist():
        groups[i].append(j)
        groups[j].append(i)
    for i, group in enumerate(groups):
        neighbours = g.neighbours(i)
        assert (np.diff(neighbours) > 0).all(), i
        assert neighbours.tolist() == sorted(group), i


class TestDistances:
    def test_square_matrix(self, square):
        assert levels_table(square.prep.levels).tolist() == [[1, 2], [2, 1]]

    def test_donut_bfs_from_bottom(self, donut):
        g = donut.prep.graph
        h1 = rect_by_box(g, (0, 28, 0, 12))
        row = bfs_from(g, [h1])
        assert row[h1] == 1
        for v_box in [(0, 12, 0, 28), (16, 28, 0, 28), (12, 16, 0, 12)]:
            assert row[rect_by_box(g, v_box)] == 2
        for h_box in [(0, 28, 16, 28), (0, 12, 12, 16), (16, 28, 12, 16)]:
            assert row[rect_by_box(g, h_box)] == 3
        assert row[rect_by_box(g, (12, 16, 16, 28))] == 4

    def test_donut_bfs_from_left(self, donut):
        g = donut.prep.graph
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        row = bfs_from(g, [h3])
        assert row.max() == 5 and row[h4] == 5

    def test_all_pairs_equals_bfs(self, corpus):
        for inst in corpus[:25]:
            g = inst.prep.graph
            for source in range(0, g.m, max(1, g.m // 5)):
                assert np.array_equal(levels_table(inst.prep.levels)[source], bfs_from(g, [source]))

    def test_multi_source_row_is_table_minimum(self, fixtures, corpus):
        rng = np.random.default_rng(5)
        for inst in fixtures + corpus:
            g = inst.prep.graph
            for size in (1, 2, 3, 4):
                sources = sorted(rng.choice(g.m, size=min(size, g.m), replace=False).tolist())
                expected = reference_table(g)[sources].min(axis=0)
                assert np.array_equal(bfs_from(g, sources), expected), (inst.name, sources)

    def test_lshape_max(self, lshape):
        g = lshape.prep.graph
        h2 = rect_by_box(g, (0, 8, 8, 20))
        v2 = rect_by_box(g, (8, 20, 0, 8))
        dm = levels_table(lshape.prep.levels)
        assert dm.max() == 4 and dm[h2, v2] == 4

    def test_donut_max_pairs(self, donut):
        g, dm = donut.prep.graph, levels_table(donut.prep.levels)
        pairs = {(int(i), int(j)) for i, j in np.argwhere(dm == 5)}
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        assert pairs == {(h3, h4), (h4, h3), (v3, v4), (v4, v3)}


def graph_of(h_boxes, v_boxes):
    """Crossing graph of hand-placed rectangles; its edges equal the direct area tests."""

    hdec = Decomposition(Orientation.HORIZONTAL, np.array(h_boxes, dtype=np.int64).reshape(-1, 4))
    vdec = Decomposition(Orientation.VERTICAL, np.array(v_boxes, dtype=np.int64).reshape(-1, 4))
    graph = build_graph(hdec, vdec)
    assert graph.edges.tolist() == [list(e) for e in edges_quadratic(hdec.rects + vdec.rects, graph.nh)]
    return graph


# A T shape in doubled coordinates: a top bar over a stem.  Its two ledges
# share a height, which validation refuses, so the graph is built by hand.
T_SHAPE_H = [(0, 20, 14, 20), (6, 14, 0, 14)]
T_SHAPE_V = [(0, 6, 14, 20), (6, 14, 0, 20), (14, 20, 14, 20)]


class TestAllPairsDerivation:
    """The distances read off the planes of a search from the horizontal sources equal a search from all sources."""

    def test_every_row_matches_reference(self, corpus, fixtures, grid60):
        preps = [inst.prep for inst in corpus + fixtures] + grid60
        for prep in preps:
            dm = levels_table(prep.levels)
            assert np.array_equal(dm, reference_table(prep.graph))
            assert np.array_equal(dm, dm.T)
            assert (np.diag(dm) == 1).all()

    def test_square_one_rectangle_per_side(self, square):
        g = square.prep.graph
        assert (g.m, g.nh) == (2, 1)
        assert np.array_equal(levels_table(all_pairs(g)), reference_table(g))

    def test_unequal_sides(self):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert (g.nh, g.m) == (2, 5)
        assert g.edges.tolist() == [[0, 2], [0, 3], [0, 4], [1, 3]]
        dm = levels_table(all_pairs(g))
        assert np.array_equal(dm, reference_table(g))
        assert dm[2, 4] == 3 and dm[1, 2] == 4

    def test_degree_one_verticals(self, lshape):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert [len(g.neighbours(v)) for v in range(g.nh, g.m)] == [1, 2, 1]
        assert np.array_equal(levels_table(all_pairs(g)), reference_table(g))
        g = lshape.prep.graph
        assert 1 in [len(g.neighbours(v)) for v in range(g.nh, g.m)]
        assert np.array_equal(levels_table(all_pairs(g)), reference_table(g))

    def test_independent_of_chunk(self, corpus, monkeypatch, caplog):
        """CHUNK = 1 makes most CSR groups larger than the level search's and the vertical AND's 4 * CHUNK edge
        cap, and CHUNK 1 and 3 put the corpus graphs above the 4 * CHUNK edges from which the level search skips
        saturated targets; the bit transpose runs eight rows at a time."""
        for chunk in (1, 3):
            monkeypatch.setattr(graph_module, "CHUNK", chunk)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="rectilink"):
                for inst in corpus[:20]:
                    assert np.array_equal(levels_table(all_pairs(inst.prep.graph)), levels_table(inst.prep.levels))
            assert sum(skipped_targets(r) for r in caplog.records) > 0, chunk

    def test_grid120_skips_saturated_targets(self, caplog):
        """An extremes-large benchmark instance, where the level search skips saturated targets at the default CHUNK."""
        g = decompose(grid120_domain())[2]
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            levels = all_pairs(g)
        assert skipped_targets(caplog.records[-1]) > 0
        assert np.array_equal(levels_table(levels), reference_table(g))

    def test_grid120_holds_no_table(self):
        """``prepare`` and either engine it feeds on grid 120 stay below m² bytes: any m²-byte array fails this."""
        domain = grid120_domain()
        m = prepare(domain).graph.m
        for kind, algo in (("radius", "matmul"), ("diameter", "fast")):
            tracemalloc.start()
            try:
                prep = prepare(domain)
                compute(kind, prep.levels, algo)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < m * m, (kind, peak, m * m)


def grid120_domain():
    return gen_domain(GenParams(width=120, height=120, cells=6480, holes=3, seed=1005))


def skipped_targets(record):
    return int(re.search(r"(\d+) targets skipped as saturated", record.getMessage()).group(1))


def assert_reduceat_table(graph, levels=None):
    """The distances of ``all_pairs`` (or of ``levels``, when given) equal the ``reduceat`` min-plus step's table."""
    levels = all_pairs(graph) if levels is None else levels
    assert np.array_equal(levels_table(levels), table_reduceat(graph, 256))


class TestLayeredMinPlus:
    """The vertical rows ANDed from ``far[H, V]`` over the crossing edges give the table of a min-plus step."""

    def test_generated(self, fixtures, corpus, grid40, grid60):
        for inst in fixtures + corpus:
            assert_reduceat_table(inst.prep.graph, inst.prep.levels)
        for prep in grid40 + grid60:
            assert_reduceat_table(prep.graph, prep.levels)

    def test_rare_shapes(self):
        shapes = [comb(k) for k in (1, 2, 3, 5, 8, 32, 100)] + [staircase(k) for k in (1, 2, 16, 64)]
        shapes += [spiral(k) for k in (3, 4, 12)] + [perforated(k) for k in (1, 2, 11)]
        for shape in shapes:
            assert_reduceat_table(decompose(parse_domain(shape))[2])

    def test_unequal_degrees(self):
        for h_boxes, v_boxes in [(T_SHAPE_H, T_SHAPE_V), *(ladder(65, seed) for seed in range(3))]:
            g = graph_of(h_boxes, v_boxes)
            assert len(set(np.diff(g.indptr[g.nh :]).tolist())) > 1
            assert_reduceat_table(g)


def ladder(n, seed, dx=0):
    """Boxes of ``n`` horizontal strips and ``n`` vertical columns, connected.

    Strip i spans columns [c_i, d_i] at row i and column j spans rows
    [r_j, s_j], so they cross when j is in the first range and i in the
    second.  Every strip spans columns i - 1 and i and every column rows j
    and j + 1, a chain through all of them; random widening adds edges and
    shortens the levels.  ``dx`` shifts the boxes right.
    """
    rng = np.random.default_rng(seed)
    h_boxes, v_boxes = [], []
    for i in range(n):
        c, d = max(0, i - 1 - rng.integers(0, 4)), min(n - 1, i + rng.integers(0, 4))
        h_boxes.append((dx + 4 * c, dx + 4 * d + 2, 4 * i, 4 * i + 2))
    for j in range(n):
        r, s = max(0, j - rng.integers(0, 4)), min(n - 1, j + 1 + rng.integers(0, 4))
        v_boxes.append((dx + 4 * j, dx + 4 * j + 2, 4 * r, 4 * s + 2))
    return h_boxes, v_boxes


def staircase_graph(k):
    return decompose(parse_domain(staircase(k)))[2]


SEARCHES = [_level_search, _source_search]


def search_table(graph, search):
    """The distances read off the planes of ``search``."""
    return levels_table(Levels(graph, tuple(search(graph)[0])))


@pytest.mark.parametrize("search", SEARCHES, ids=["level", "per-source"])
class TestSearches:
    """Each search, called directly, builds the reference table."""

    def test_generated(self, search, corpus, fixtures, grid60):
        for prep in [inst.prep for inst in corpus + fixtures] + grid60:
            assert np.array_equal(search_table(prep.graph, search), reference_table(prep.graph))

    def test_staircases(self, search):
        for k in (1, 2, 3, 5, 8, 16, 63, 64):
            g = staircase_graph(k)
            assert np.array_equal(search_table(g, search), reference_table(g)), k

    @pytest.mark.parametrize("nh", [63, 64, 65, 128, 129])
    def test_word_boundaries(self, search, nh, monkeypatch):
        for seed in range(3):
            g = graph_of(*ladder(nh, seed))
            assert g.nh == nh
            expected = reference_table(g)
            for chunk in (3, 256):
                monkeypatch.setattr(graph_module, "CHUNK", chunk)
                dm = search_table(g, search)
                assert np.array_equal(dm, expected), (seed, chunk)


class TestSelection:
    """The level bound sends corridors to the per-source search and generated domains to the level search."""

    def test_staircases_per_source(self):
        for k in (64, 100, 250):
            g = staircase_graph(k)
            search, bound = _select_search(g)
            assert search is _source_search, k
            assert bound == 4 * k + 1

    def test_generated_level(self, grid40, grid60):
        assert len(grid40) == 32  # the cli-defaults instances of benchmark seed 1
        for prep in grid40 + grid60:
            search, bound = _select_search(prep.graph)
            assert search is _level_search
            assert levels_table(prep.levels).max() <= bound

    def test_choice_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            all_pairs(staircase_graph(64))
            all_pairs(staircase_graph(2))
        assert [r.getMessage().split(",")[0] for r in caplog.records] == [
            "all_pairs: per-source search",
            "all_pairs: level search",
        ]
        assert "level bound 257" in caplog.records[0].getMessage()


def stop_of(record):
    """The level where the search stopped and its cap, read off the ``all_pairs`` debug line; None for every level."""
    message = record.getMessage()
    if ", every level," in message:
        return None
    level, cap = re.search(r"stopped at level (\d+), cap (\d+)", message).groups()
    return int(level), int(cap)


class TestRadiusCap:
    """``all_pairs(g, "radius")`` stops the level search at the least horizontal eccentricity and is exact to it."""

    def capped_and_full(self, g, caplog):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            capped = all_pairs(g, "radius")
            full = all_pairs(g)
        return capped, full, [stop_of(r) for r in caplog.records]

    def test_matches_full_search(self, corpus, grid40, caplog):
        """The corpus, the grid-40 seeds 1000-1003, combs with ``orrad < 4`` (which the fallback takes) and short
        corridors, spirals and perforated squares, where the least eccentricity can sit at the level from which
        the search tests for it: the same radius and centre, and the same far words at every threshold up to the
        cap, which the log names."""
        assert len(grid40) == 32  # seeds 1000-1031 all generate, so the first four are seeds 1000-1003
        graphs = [inst.prep.graph for inst in corpus] + [prep.graph for prep in grid40[:4]]
        shapes = [staircase(k) for k in (1, 2, 3, 16, 31)] + [spiral(k) for k in (3, 4, 12)]
        graphs += [decompose(parse_domain(shape))[2] for shape in shapes + [perforated(k) for k in (1, 2, 11)]]
        graphs += [decompose_comb(k)[2] for k in (2, 5, 20)]
        for k, g in enumerate(graphs):
            capped, full, stops = self.capped_and_full(g, caplog)
            least = int(full._eccentricities[0].min())
            assert stops == [(least, least + 1), None], k
            assert capped.cap == least + 1
            assert capped.extreme("radius") == full.extreme("radius"), k
            for t in range(2, capped.cap + 1):
                assert np.array_equal(capped.far(t), full.far(t)), (k, t)
        assert all(all_pairs(g, "radius").extreme("radius")[0] < 4 for g in graphs[-3:])

    def test_corridors_search_every_level(self, caplog):
        """The per-source search has no early stop: staircase corridors get the full planes, uncapped."""
        for k in (64, 100):
            g = staircase_graph(k)
            capped, full, stops = self.capped_and_full(g, caplog)
            assert stops == [None, None] and capped.cap is None
            assert all(np.array_equal(a, b) for a, b in zip(capped.planes, full.planes, strict=True))
            assert capped.extreme("radius") == full.extreme("radius")
            assert capped.extreme("diameter") == full.extreme("diameter")

    def test_pad_bits_clear(self, grid40):
        """The pairs filled in past the stop are masked to the sources: no plane sets a bit past column ``nh``."""
        g = grid40[0].graph
        for plane in all_pairs(g, "radius").planes:
            bits = np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")
            assert not bits[:, g.nh :].any()

    def test_refused_past_the_cap(self, donut, grid40):
        assert issubclass(CappedLevelsError, RectilinkError)
        for g in (donut.prep.graph, grid40[0].graph):
            levels = all_pairs(g, "radius")
            levels.far(levels.cap)
            with pytest.raises(CappedLevelsError, match=f"far\\({levels.cap + 1}\\)"):
                levels.far(levels.cap + 1)
            with pytest.raises(CappedLevelsError, match="diameter"):
                levels.extreme("diameter")
            assert all_pairs(g, "diameter").cap is None


class TestStaircase:
    def test_shape(self):
        for k in (1, 4, 16):
            prep = prepare(parse_domain(staircase(k)))
            assert prep.domain.n == 4 * k + 2
            assert prep.levels.extreme("diameter")[0] == 2 * k + 2

    def test_against_oracle(self):
        for k in (1, 2, 3, 4, 6):
            report = run_verify(parse_domain(staircase(k)))
            assert report["verdict"] == "ok", k


def decompose_comb(k):
    return decompose(parse_domain(comb(k)))


class TestComb:
    """Combs: chi of order k squared, with every horizontal rectangle a candidate of every tall tooth."""

    def test_shape(self):
        for k in (1, 2, 5, 32):
            g = decompose_comb(k)[2]
            assert (g.nh, g.m, g.chi) == (2 * k - 1, 4 * k - 2, k * k + k - 1), k
            heights = (g.boxes[: g.nh, 2] + g.boxes[: g.nh, 3]) // 2
            teeth = g.boxes[g.nh :][g.boxes[g.nh :, 3] >= 4 * k]  # tops at 2k + i, doubled
            assert len(teeth) == k and (teeth[:, 2] <= heights.min()).all() and (heights.max() <= teeth[:, 3]).all(), k

    def test_edges_and_table(self):
        for k in (1, 2, 3, 5, 8, 32, 100):
            hdec, vdec, g = decompose_comb(k)
            assert g.edges.tolist() == [list(e) for e in edges_quadratic(hdec.rects + vdec.rects, g.nh)], k
            assert_csr_matches_edges(g)
            assert np.array_equal(levels_table(all_pairs(g)), reference_table(g)), k

    def test_against_oracle(self):
        for k in (1, 2, 3, 4, 5):
            report = run_verify(parse_domain(comb(k)))
            assert report["verdict"] == "ok", k


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(3, 12),
    height=st.integers(3, 12),
    holes=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_generated_graph_property(width, height, holes, seed, data):
    """On small generated domains: the edges equal the area test, the CSR groups match them, and a
    multi-source row is the minimum of the sources' rows of the reference table, and the table equals the
    ``reduceat`` min-plus step's."""
    cells = data.draw(st.integers(1, width * height), label="cells")
    try:
        domain = gen_domain(GenParams(width=width, height=height, cells=cells, holes=holes, seed=seed))
    except ValueError:
        assume(False)
    hdec, vdec, g = decompose(domain)
    assert g.edges.tolist() == [list(e) for e in edges_quadratic(hdec.rects + vdec.rects, g.nh)]
    assert_csr_matches_edges(g)
    sources = data.draw(st.lists(st.integers(0, g.m - 1), min_size=1, max_size=4, unique=True), label="sources")
    assert np.array_equal(bfs_from(g, sources), reference_table(g)[sources].min(axis=0))
    assert_reduceat_table(g)


class TestTypedFailures:
    def test_counts_past_uint16(self, donut):
        """No count wraps at 65536: a row of 70401 set bits counts exactly, and a point query's row is ``intp``."""
        row = np.full((1, 1101), ~np.uint64(0))
        row[0, -1] = np.uint64(1)
        assert _popcount(row).tolist() == [64 * 1100 + 1]
        assert bfs_from(donut.prep.graph, [0]).dtype == np.intp
        assert issubclass(ResourceLimitError, RectilinkError)

    def test_unreachable_horizontal(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4)], [(0, 4, 0, 4)])
        assert len(g.neighbours(1)) == 0
        with pytest.raises(DisconnectedGraphError, match="horizontal rectangle 0"):
            all_pairs(g)
        with pytest.raises(DisconnectedGraphError):
            bfs_from(g, [0])

    def test_isolated_horizontal_first(self):
        g = graph_of([(10, 14, 0, 4), (0, 4, 0, 4)], [(0, 4, 0, 4)])
        assert len(g.neighbours(0)) == 0
        message = (
            "horizontal rectangle 1 is unreachable from horizontal rectangle 0; "
            "the domain is not connected"
        )
        with pytest.raises(DisconnectedGraphError, match=f"^{re.escape(message)}$"):
            all_pairs(g)

    def test_isolated_horizontal_middle(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4), (0, 4, 10, 14)], [(0, 4, 0, 14)])
        assert len(g.neighbours(1)) == 0 and g.neighbours(3).tolist() == [0, 2]
        with pytest.raises(DisconnectedGraphError, match="horizontal rectangle 1 is unreachable"):
            all_pairs(g)

    @pytest.mark.parametrize("at", [0, 32, 64])
    def test_isolated_horizontal_in_ladder(self, at):
        h_boxes, v_boxes = ladder(64, seed=at)
        h_boxes.insert(at, (1000, 1004, 1, 3))  # right of every column
        g = graph_of(h_boxes, v_boxes)
        assert g.nh == 65 and len(g.neighbours(at)) == 0
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)

    def test_two_components(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4)], [(0, 4, 0, 4), (10, 14, 0, 4)])
        assert np.diff(g.indptr).all()
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)
        a, b = ladder(64, seed=1), ladder(65, seed=2, dx=1000)
        g = graph_of(a[0] + b[0], a[1] + b[1])
        assert g.nh == 129 and np.diff(g.indptr).all()
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)

    def test_isolated_vertical(self):
        g = graph_of([(0, 4, 0, 4)], [(0, 4, 0, 4), (10, 14, 0, 4)])
        assert len(g.neighbours(2)) == 0
        with pytest.raises(DisconnectedGraphError, match="vertical rectangle 2"):
            all_pairs(g)
        with pytest.raises(DisconnectedGraphError):
            bfs_from(g, [0])
        assert issubclass(DisconnectedGraphError, RectilinkError)


def extremes(levels) -> TableSummary:
    """Both extremes of ``levels`` with their witnesses, in the reference's form."""
    (ordiam, diam_pair), (orrad, (center_rect,)) = levels.extreme("diameter"), levels.extreme("radius")
    return TableSummary(ordiam=ordiam, orrad=orrad, diam_pair=diam_pair, center_rect=center_rect)


class TestSummary:
    def test_square(self, square):
        s = extremes(square.prep.levels)
        assert (s.ordiam, s.orrad) == (2, 2)

    def test_lshape(self, lshape):
        s = extremes(lshape.prep.levels)
        assert (s.ordiam, s.orrad) == (4, 3)

    def test_donut(self, donut):
        s = extremes(donut.prep.levels)
        assert (s.ordiam, s.orrad) == (5, 4)
        assert sorted(levels_table(donut.prep.levels).max(axis=1).tolist()) == [4, 4, 4, 4, 5, 5, 5, 5]

    def test_diam_pair_attains_max(self, corpus):
        for inst in corpus[:30]:
            s = extremes(inst.prep.levels)
            dm = levels_table(inst.prep.levels)
            assert dm[s.diam_pair] == s.ordiam
            assert dm[s.center_rect].max() == s.orrad

    def test_matches_table_summary(self, fixtures, corpus, grid60):
        """The extremes from the planes equal one pass over the reference table: the extremes, the first maximum
        in row-major order and the first row of least eccentricity, on both sides of both tests on the verticals.

        With ``D`` and ``R`` the largest and smallest eccentricity of a horizontal rectangle, the corpus has
        instances with ``ordiam = D + 1`` and with ``orrad = R - 1``.
        """
        graphs = [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid60] + rare_graphs()
        branches = {"ordiam = D + 1": 0, "orrad = R - 1": 0}
        for k, g in enumerate(graphs):
            dm = reference_table(g)
            s = extremes(all_pairs(g))
            assert s == summarize_table(dm), k
            ecc = dm[: g.nh].max(axis=1)
            branches["ordiam = D + 1"] += s.ordiam == ecc.max() + 1
            branches["orrad = R - 1"] += s.orrad == ecc.min() - 1
        assert min(branches.values()) >= 10, branches


def rare_graphs():
    """Combs, and staircases on both searches, each on both sides of a word of horizontal rectangles."""
    shapes = [comb(k) for k in (1, 2, 3, 5, 8, 32, 33)] + [staircase(k) for k in (1, 2, 16, 31, 32, 64, 100)]
    graphs = [decompose(parse_domain(shape))[2] for shape in shapes]
    assert {_select_search(g)[0] for g in graphs} == {_level_search, _source_search}
    return graphs


class TestFarRelation:
    """``Levels.far(t)`` is the reference table's ``dm >= t``, packed, at every threshold."""

    def test_matches_reference_table(self, fixtures, corpus, grid60):
        graphs = [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid60] + rare_graphs()
        for k, g in enumerate(graphs):
            dm, levels = reference_table(g), all_pairs(g)
            for t in range(2, int(dm.max()) + 2):
                assert np.array_equal(levels.far(t), packed(dm >= t)), (k, t)

    def test_cached_read_only(self, donut):
        levels = donut.prep.levels
        far = levels.far(4)
        assert levels.far(4) is far and not far.flags.writeable
        with pytest.raises(ValueError):
            far[0, 0] = 0


class TestTransposeBits:
    """``_transpose_bits`` equals the unpack, ``.T`` and pack reference, with zero bits past the last row."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.02, 0.5, 0.98]))
    def test_matches_reference(self, seed, density):
        """Rows and columns either side of a byte and of a word; CHUNK 1 and 3 run several eight-row runs and
        a short last one.  The bits past ``ncols`` are random too: neither side may read them."""
        rng = np.random.default_rng(seed)
        for chunk in (1, 3, graph_module.CHUNK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(graph_module, "CHUNK", chunk)
                for rows in (0, 1, 7, 8, 9, 63, 64, 65, 129, 200):
                    for ncols in (1, 7, 8, 9, 63, 64, 65, 200):
                        words = -(-ncols // 64)
                        bits = np.packbits(rng.random((rows, 64 * words)) < density, axis=1).view(np.uint64)
                        out = _transpose_bits(bits, ncols)
                        assert out.shape == (ncols, -(-rows // 64)), (chunk, rows, ncols)
                        assert out.tobytes() == transpose_bits(bits, ncols).tobytes(), (chunk, rows, ncols)
                        pad = np.unpackbits(out.view(np.uint8), axis=1, bitorder="little")[:, rows:]
                        assert not pad.any(), (chunk, rows, ncols)


class TestMemoryBudget:
    """Planes, reached sets and one far relation are priced before the search allocates any of them."""

    def test_refused_before_allocation(self, capsys, tmp_path, monkeypatch, donut):
        g = decompose(grid120_domain())[2]
        words = -(-g.nh // 64)
        tracemalloc.start()
        try:
            _select_search(g)
            bounding = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(graph_module, "_physical_memory", lambda: 64)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"\d+ bytes for \d+ bit planes.* more than the \d+ bytes"):
                all_pairs(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bounding + 8 * g.m * words  # no plane beyond what the bounding row needs
        path = tmp_path / "donut.json"
        path.write_text(json.dumps(domain_to_instance(donut.domain)))
        assert main(["diameter", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bytes of physical memory" in err


class TestFarSet:
    def test_donut(self, donut):
        g, dm = donut.prep.graph, levels_table(donut.prep.levels)
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        assert np.nonzero(dm[h3] == 5)[0].tolist() == [h4]
        assert np.nonzero(dm[v3] == 5)[0].tolist() == [v4]

    def test_square(self, square):
        assert np.nonzero(levels_table(square.prep.levels)[0] == 2)[0].tolist() == [1]

    def test_parity(self, corpus):
        # distance parity matches orientation: odd iff same side of the bipartition
        for inst in corpus[:30]:
            g, dm = inst.prep.graph, levels_table(inst.prep.levels)
            horiz = np.arange(g.m) < g.nh
            same = horiz[:, None] == horiz[None, :]
            assert np.array_equal((dm % 2) == 1, same)


class TestOrientedDistanceLaws:
    def test_symmetry(self, corpus):
        for inst in corpus[:30]:
            dm = levels_table(inst.prep.levels)
            assert np.array_equal(dm, dm.T)

    def test_edge_flip_is_one(self, corpus):
        for inst in corpus[:30]:
            dm = levels_table(inst.prep.levels).astype(np.int64)
            edges = np.asarray(inst.prep.graph.edges)
            diff = np.abs(dm[edges[:, 0]] - dm[edges[:, 1]])
            assert (diff == 1).all()

    def test_edge_pair_flip_in_0_2(self, corpus):
        rng = np.random.default_rng(7)
        for inst in corpus[:30]:
            dm = levels_table(inst.prep.levels).astype(np.int64)
            edges = np.asarray(inst.prep.graph.edges)
            a = edges[rng.integers(0, len(edges), 2000)]
            b = edges[rng.integers(0, len(edges), 2000)]
            delta = dm[a[:, 0], b[:, 0]] - dm[a[:, 1], b[:, 1]]
            assert set(np.unique(np.abs(delta))) <= {0, 2}

    def test_entry_bounds(self, corpus):
        for inst in corpus[:30]:
            dm = levels_table(inst.prep.levels)
            assert dm.min() == 1 and dm.max() <= inst.prep.graph.m + 1
            assert (np.diag(dm) == 1).all()


class TestCrossingCharacterization:
    def test_triple_equivalence(self, small_corpus):
        # positive-area intersection <=> middle segments cross <=> range containment
        for inst in small_corpus[:15]:
            g = inst.prep.graph
            rects = inst.prep.hdec.rects + inst.prep.vdec.rects
            edge_set = set(map(tuple, g.edges.tolist()))
            for h in range(g.nh):
                rh = rects[h]
                mh = middle_segment(rh)
                for v in range(g.nh, g.m):
                    rv = rects[v]
                    mv = middle_segment(rv)
                    area = rects_cross(rh, rv)
                    crossing = crosses(mh, mv)
                    contained = (
                        rh.xmin <= rv.xmin
                        and rv.xmax <= rh.xmax
                        and rv.ymin <= rh.ymin
                        and rh.ymax <= rv.ymax
                    )
                    assert area == crossing == contained == ((h, v) in edge_set)
