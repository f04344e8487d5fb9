"""Crossing graph construction, BFS distances, summaries, invariants."""

import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from rectilink import (
    Decomposition,
    DisconnectedGraphError,
    GenParams,
    RectilinkError,
    ResourceLimitError,
    gen_domain,
    parse_domain,
    run_verify,
)
from rectilink import graph as graph_module
from rectilink.geometry import Orientation
from rectilink.graph import (
    _level_search,
    _select_search,
    _source_search,
    _table,
    all_pairs,
    bfs_from,
    build_graph,
    summarize,
)
from rectilink.pipeline import decompose, prepare

from conftest import comb, perforated, spiral, staircase
from reference import crosses, edges_quadratic, graph_rects, middle_segment, rects_cross, table_reduceat


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
        assert square.prep.dm.tolist() == [[1, 2], [2, 1]]

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
                assert np.array_equal(inst.prep.dm[source], bfs_from(g, [source]))

    def test_multi_source_row_is_table_minimum(self, fixtures, corpus):
        rng = np.random.default_rng(5)
        for inst in fixtures + corpus:
            g = inst.prep.graph
            for size in (1, 2, 3, 4):
                sources = sorted(rng.choice(g.m, size=min(size, g.m), replace=False).tolist())
                expected = inst.prep.dm[sources].min(axis=0)
                assert np.array_equal(bfs_from(g, sources), expected), (inst.name, sources)

    def test_lshape_max(self, lshape):
        g = lshape.prep.graph
        h2 = rect_by_box(g, (0, 8, 8, 20))
        v2 = rect_by_box(g, (8, 20, 0, 8))
        dm = lshape.prep.dm
        assert dm.max() == 4 and dm[h2, v2] == 4

    def test_donut_max_pairs(self, donut):
        g, dm = donut.prep.graph, donut.prep.dm
        pairs = {(int(i), int(j)) for i, j in np.argwhere(dm == 5)}
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        assert pairs == {(h3, h4), (h4, h3), (v3, v4), (v4, v3)}


def table_dtype(graph):
    """The dtype the level bound selects: uint8 when every entry, at most ``min(bound, m)``, fits in a byte."""
    return np.uint8 if min(_select_search(graph)[1], graph.m) <= 255 else np.uint16


def reference_table(graph):
    """Undirected scipy search from every one of the m sources, over the edge list."""
    h, v = graph.edges.T
    sparse = csr_matrix((np.ones(2 * graph.chi, dtype=np.uint8), (np.r_[h, v], np.r_[v, h])), shape=(graph.m, graph.m))
    return shortest_path(sparse, method="D", directed=False, unweighted=True).astype(np.uint16) + 1


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
    """The table built from horizontal sources equals a search from all sources."""

    def test_every_row_matches_reference(self, corpus, fixtures, grid60):
        preps = [inst.prep for inst in corpus + fixtures] + grid60
        for prep in preps:
            dm = prep.dm
            assert dm.dtype == table_dtype(prep.graph)
            assert np.array_equal(dm, reference_table(prep.graph))
            assert np.array_equal(dm, dm.T)
            assert (np.diag(dm) == 1).all()

    def test_square_one_rectangle_per_side(self, square):
        g = square.prep.graph
        assert (g.m, g.nh) == (2, 1)
        assert np.array_equal(all_pairs(g), reference_table(g))

    def test_unequal_sides(self):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert (g.nh, g.m) == (2, 5)
        assert g.edges.tolist() == [[0, 2], [0, 3], [0, 4], [1, 3]]
        dm = all_pairs(g)
        assert np.array_equal(dm, reference_table(g))
        assert dm[2, 4] == 3 and dm[1, 2] == 4

    def test_degree_one_verticals(self, lshape):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert [len(g.neighbours(v)) for v in range(g.nh, g.m)] == [1, 2, 1]
        assert np.array_equal(all_pairs(g), reference_table(g))
        g = lshape.prep.graph
        assert 1 in [len(g.neighbours(v)) for v in range(g.nh, g.m)]
        assert np.array_equal(all_pairs(g), reference_table(g))

    def test_independent_of_chunk(self, corpus, monkeypatch, caplog):
        """CHUNK = 1 makes most CSR groups larger than the level search's 4 * CHUNK edge cap, and CHUNK 1 and 3
        put the corpus graphs above the 4 * CHUNK edges from which the level search skips saturated targets."""
        for chunk in (1, 3):
            monkeypatch.setattr(graph_module, "CHUNK", chunk)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="rectilink"):
                for inst in corpus[:20]:
                    assert np.array_equal(all_pairs(inst.prep.graph), inst.prep.dm)
            assert sum(skipped_targets(r) for r in caplog.records) > 0, chunk

    def test_dtype_follows_bound(self):
        """Staircases on either side of bound 255: a uint8 table at 253, a uint16 one at 257, both exact."""
        for k, bound, dtype in ((63, 253, np.uint8), (64, 257, np.uint16)):
            g = staircase_graph(k)
            assert _select_search(g)[1] == bound, k
            dm = all_pairs(g)
            assert dm.dtype == dtype, k
            assert np.array_equal(dm, reference_table(g)), k

    def test_grid120_skips_saturated_targets(self, caplog):
        """An extremes-large benchmark instance, where the level search skips saturated targets at the default CHUNK."""
        g = decompose(gen_domain(GenParams(width=120, height=120, cells=6480, holes=3, seed=1005)))[2]
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            dm = all_pairs(g)
        assert skipped_targets(caplog.records[-1]) > 0
        assert dm.dtype == np.uint8
        assert np.array_equal(dm, reference_table(g))


def skipped_targets(record):
    return int(re.search(r"(\d+) targets skipped as saturated", record.getMessage()).group(1))


def assert_reduceat_table(graph, dm=None):
    """``all_pairs`` (or ``dm``, when given) equals the ``reduceat`` min-plus step's uint16 table in every entry,
    in the dtype the level bound selects."""
    dm = all_pairs(graph) if dm is None else dm
    expected = table_reduceat(graph, _select_search(graph)[0], 256)
    assert dm.dtype == table_dtype(graph)
    assert np.array_equal(dm, expected)


class TestLayeredMinPlus:
    """The min-plus step over degree layers builds the table of the ``reduceat`` step it replaced."""

    def test_generated(self, fixtures, corpus, grid40, grid60):
        for inst in fixtures + corpus:
            assert_reduceat_table(inst.prep.graph, inst.prep.dm)
        for prep in grid40 + grid60:
            assert_reduceat_table(prep.graph, prep.dm)

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
    """The table built with ``search``, in the dtype that the level bound selects."""
    return _table(graph, search, _select_search(graph)[1])


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
                assert dm.dtype == table_dtype(g)
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
            assert prep.dm.max() <= bound

    def test_choice_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            all_pairs(staircase_graph(64))
            all_pairs(staircase_graph(2))
        assert [r.getMessage().split(",")[0] for r in caplog.records] == [
            "all_pairs: per-source search",
            "all_pairs: level search",
        ]
        assert "level bound 257" in caplog.records[0].getMessage()

    def test_layers_logged(self, caplog):
        """The min-plus step's layer count, the largest vertical degree, is k on comb(k) and 3 on a staircase."""
        with caplog.at_level(logging.DEBUG, logger="rectilink"):
            for k in (1, 5, 32):
                all_pairs(decompose_comb(k)[2])
            all_pairs(staircase_graph(64))
        layers = [re.search(r"(\d+) min-plus layers", r.getMessage()).group(1) for r in caplog.records]
        assert layers == ["1", "5", "32", "3"]


class TestStaircase:
    def test_shape(self):
        for k in (1, 4, 16):
            prep = prepare(parse_domain(staircase(k)))
            assert prep.domain.n == 4 * k + 2
            assert prep.summary.ordiam == 2 * k + 2

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
            assert np.array_equal(all_pairs(g), reference_table(g)), k

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
    def test_table_ceiling_before_allocation(self):
        stub = SimpleNamespace(m=65534, nh=32767)
        with pytest.raises(ResourceLimitError, match="65533"):
            all_pairs(stub)
        with pytest.raises(ResourceLimitError):
            bfs_from(stub, [0])
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


class TestSummary:
    def test_square(self, square):
        s = square.prep.summary
        assert (s.ordiam, s.orrad) == (2, 2)

    def test_lshape(self, lshape):
        s = lshape.prep.summary
        assert (s.ordiam, s.orrad) == (4, 3)

    def test_donut(self, donut):
        s = donut.prep.summary
        assert (s.ordiam, s.orrad) == (5, 4)
        assert sorted(donut.prep.dm.max(axis=1).tolist()) == [4, 4, 4, 4, 5, 5, 5, 5]

    def test_diam_pair_attains_max(self, corpus):
        for inst in corpus[:30]:
            s = inst.prep.summary
            assert inst.prep.dm[s.diam_pair] == s.ordiam
            assert inst.prep.dm[s.center_rect].max() == s.orrad

    def test_matches_two_pass_form(self):
        """One pass over the table gives the flat argmax's pair, on random tables full of ties."""
        rng = np.random.default_rng(19)
        for _ in range(3000):
            rows, cols = rng.integers(1, 9, size=2)
            dm = rng.integers(0, rng.integers(1, 5), size=(rows, cols)).astype(np.uint16)
            i, j = divmod(int(np.argmax(dm)), dm.shape[1])
            row_max = dm.max(axis=1)
            s = summarize(dm)
            assert (s.ordiam, s.diam_pair) == (int(dm[i, j]), (i, j))
            assert (s.orrad, s.center_rect) == (int(row_max.min()), int(np.argmin(row_max)))


class TestFarSet:
    def test_donut(self, donut):
        g, dm = donut.prep.graph, donut.prep.dm
        h3 = rect_by_box(g, (0, 12, 12, 16))
        h4 = rect_by_box(g, (16, 28, 12, 16))
        v3 = rect_by_box(g, (12, 16, 0, 12))
        v4 = rect_by_box(g, (12, 16, 16, 28))
        assert np.nonzero(dm[h3] == 5)[0].tolist() == [h4]
        assert np.nonzero(dm[v3] == 5)[0].tolist() == [v4]

    def test_square(self, square):
        assert np.nonzero(square.prep.dm[0] == 2)[0].tolist() == [1]

    def test_parity(self, corpus):
        # distance parity matches orientation: odd iff same side of the bipartition
        for inst in corpus[:30]:
            g, dm = inst.prep.graph, inst.prep.dm
            horiz = np.arange(g.m) < g.nh
            same = horiz[:, None] == horiz[None, :]
            assert np.array_equal((dm % 2) == 1, same)


class TestOrientedDistanceLaws:
    def test_symmetry(self, corpus):
        for inst in corpus[:30]:
            assert np.array_equal(inst.prep.dm, inst.prep.dm.T)

    def test_edge_flip_is_one(self, corpus):
        for inst in corpus[:30]:
            dm = inst.prep.dm.astype(np.int64)
            edges = np.asarray(inst.prep.graph.edges)
            diff = np.abs(dm[edges[:, 0]] - dm[edges[:, 1]])
            assert (diff == 1).all()

    def test_edge_pair_flip_in_0_2(self, corpus):
        rng = np.random.default_rng(7)
        for inst in corpus[:30]:
            dm = inst.prep.dm.astype(np.int64)
            edges = np.asarray(inst.prep.graph.edges)
            a = edges[rng.integers(0, len(edges), 2000)]
            b = edges[rng.integers(0, len(edges), 2000)]
            delta = dm[a[:, 0], b[:, 0]] - dm[a[:, 1], b[:, 1]]
            assert set(np.unique(np.abs(delta))) <= {0, 2}

    def test_entry_bounds(self, corpus):
        for inst in corpus[:30]:
            dm = inst.prep.dm
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
