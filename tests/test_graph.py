"""Crossing graph construction, BFS distances, summaries, invariants."""

import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from rectilink import (
    Decomposition,
    DisconnectedGraphError,
    RectilinkError,
    ResourceLimitError,
    parse_domain,
    run_verify,
)
from rectilink.geometry import Orientation, Rect
from rectilink.graph import (
    _level_search,
    _select_search,
    _sides,
    _source_search,
    _table,
    all_pairs,
    bfs_from,
    build_graph,
    middle_segment,
)
from rectilink.pipeline import decompose, prepare

from conftest import staircase
from reference import crosses, edges_quadratic, rects_cross


def rect_by_box(graph, box):
    for r in graph.rects:
        if r.box() == box:
            return r.id
    raise AssertionError(f"no rect with box {box}")


class TestMiddleSegment:
    def test_donut_bottom(self, donut):
        seg = middle_segment(donut.prep.graph.rects[rect_by_box(donut.prep.graph, (0, 28, 0, 12))])
        assert (seg.axis, seg.fixed, seg.lo, seg.hi) == (Orientation.HORIZONTAL, 6, 0, 28)

    def test_square(self, square):
        seg = middle_segment(square.prep.graph.rects[0])
        assert (seg.axis, seg.fixed, seg.lo, seg.hi) == (Orientation.HORIZONTAL, 10, 0, 20)

    def test_donut_vertical(self, donut):
        seg = middle_segment(donut.prep.graph.rects[rect_by_box(donut.prep.graph, (12, 16, 0, 12))])
        assert (seg.axis, seg.fixed, seg.lo, seg.hi) == (Orientation.VERTICAL, 14, 0, 12)


class TestBuildGraph:
    def test_square(self, square):
        g = square.prep.graph
        assert g.m == 2 and g.chi == 1 and g.edges == ((0, 1),)

    def test_lshape(self, lshape):
        g = lshape.prep.graph
        assert g.m == 4 and g.chi == 3
        h1 = rect_by_box(g, (0, 20, 0, 8))
        h2 = rect_by_box(g, (0, 8, 8, 20))
        v1 = rect_by_box(g, (0, 8, 0, 20))
        v2 = rect_by_box(g, (8, 20, 0, 8))
        assert set(g.edges) == {(h1, v1), (h1, v2), (h2, v1)}

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
        assert set(g.adj[h1]) == {v1, v2, v3}
        assert set(g.adj[h2]) == {v1, v2, v4}
        assert set(g.adj[h3]) == {v1}
        assert set(g.adj[h4]) == {v2}

    def test_bipartite(self, fixtures):
        for inst in fixtures:
            g = inst.prep.graph
            for i, j in g.edges:
                assert g.orientation_of(i) is not g.orientation_of(j)

    def test_sweep_matches_quadratic(self, fixtures, corpus, grid60):
        """Edges, adjacency and numbering equal the all-pairs area test, in order."""
        for prep in [inst.prep for inst in fixtures + corpus] + grid60:
            g = prep.graph
            rects = prep.hdec.rects + prep.vdec.rects
            assert [r.id for r in g.rects] == list(range(g.m))
            assert [r.box() for r in g.rects] == [r.box() for r in rects]
            edges = edges_quadratic(rects, g.nh)
            assert g.edges == tuple(edges)
            adj = [[] for _ in rects]
            for i, j in edges:
                adj[i].append(j)
                adj[j].append(i)
            assert g.adj == tuple(tuple(sorted(neigh)) for neigh in adj)


    def test_edge_array(self, fixtures, corpus, grid60):
        """One cached read-only edge array; the per-side CSR groups equal the adjacency lists."""
        for g in [inst.prep.graph for inst in fixtures + corpus] + [prep.graph for prep in grid60]:
            edges = g.edge_array
            assert edges is g.edge_array and not edges.flags.writeable
            assert edges.shape == (g.chi, 2) and edges.tolist() == [list(e) for e in g.edges]
            h_ptr, h_nbr, v_ptr, v_nbr = _sides(g)
            groups = [h_nbr[h_ptr[i] : h_ptr[i + 1]] for i in range(g.nh)]
            groups += [v_nbr[v_ptr[k] : v_ptr[k + 1]] for k in range(g.nv)]
            assert [tuple(group.tolist()) for group in groups] == list(g.adj)


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


def reference_table(graph):
    """Undirected scipy search from every one of the m sources."""
    rows = [i for i, neigh in enumerate(graph.adj) for _ in neigh]
    cols = [w for neigh in graph.adj for w in neigh]
    sparse = csr_matrix((np.ones(len(cols), dtype=np.uint8), (rows, cols)), shape=(graph.m, graph.m))
    return shortest_path(sparse, method="D", directed=False, unweighted=True).astype(np.uint16) + 1


def graph_of(h_boxes, v_boxes):
    """Crossing graph of hand-placed rectangles; its edges equal the direct area tests."""

    def decomposition(orientation, boxes):
        return Decomposition(orientation, tuple(Rect(k, orientation, *box) for k, box in enumerate(boxes)))

    graph = build_graph(decomposition(Orientation.HORIZONTAL, h_boxes), decomposition(Orientation.VERTICAL, v_boxes))
    assert graph.edges == tuple(edges_quadratic(graph.rects, graph.nh))
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
            assert dm.dtype == np.uint16
            assert np.array_equal(dm, reference_table(prep.graph))
            assert np.array_equal(dm, dm.T)
            assert (np.diag(dm) == 1).all()

    def test_square_one_rectangle_per_side(self, square):
        g = square.prep.graph
        assert (g.m, g.nh, g.nv) == (2, 1, 1)
        assert np.array_equal(all_pairs(g), reference_table(g))

    def test_unequal_sides(self):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert (g.nh, g.nv) == (2, 3)
        assert g.edges == ((0, 2), (0, 3), (0, 4), (1, 3))
        dm = all_pairs(g)
        assert np.array_equal(dm, reference_table(g))
        assert dm[2, 4] == 3 and dm[1, 2] == 4

    def test_degree_one_verticals(self, lshape):
        g = graph_of(T_SHAPE_H, T_SHAPE_V)
        assert [len(g.adj[v]) for v in g.ids_of(Orientation.VERTICAL)] == [1, 2, 1]
        assert np.array_equal(all_pairs(g), reference_table(g))
        g = lshape.prep.graph
        assert 1 in [len(g.adj[v]) for v in g.ids_of(Orientation.VERTICAL)]
        assert np.array_equal(all_pairs(g), reference_table(g))

    def test_independent_of_chunk(self, corpus):
        # chunk=1 makes every vertical rectangle's group larger than the cap
        for inst in corpus[:20]:
            for chunk in (1, 3):
                assert np.array_equal(all_pairs(inst.prep.graph, chunk=chunk), inst.prep.dm)


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


@pytest.mark.parametrize("search", SEARCHES, ids=["level", "per-source"])
class TestSearches:
    """Each search, called directly, builds the reference table."""

    def test_generated(self, search, corpus, fixtures, grid60):
        for prep in [inst.prep for inst in corpus + fixtures] + grid60:
            assert np.array_equal(_table(prep.graph, search, 256), reference_table(prep.graph))

    def test_staircases(self, search):
        for k in (1, 2, 3, 5, 8, 16, 64):
            g = staircase_graph(k)
            assert np.array_equal(_table(g, search, 256), reference_table(g)), k

    @pytest.mark.parametrize("nh", [63, 64, 65, 128, 129])
    def test_word_boundaries(self, search, nh):
        for seed in range(3):
            g = graph_of(*ladder(nh, seed))
            assert g.nh == nh
            expected = reference_table(g)
            for chunk in (3, 256):
                dm = _table(g, search, chunk)
                assert dm.dtype == np.uint16
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


class TestTypedFailures:
    def test_table_ceiling_before_allocation(self):
        stub = SimpleNamespace(m=65534, nh=32767, nv=32767)
        with pytest.raises(ResourceLimitError, match="65533"):
            all_pairs(stub)
        with pytest.raises(ResourceLimitError):
            bfs_from(stub, [0])
        assert issubclass(ResourceLimitError, RectilinkError)

    def test_unreachable_horizontal(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4)], [(0, 4, 0, 4)])
        assert g.adj[1] == ()
        with pytest.raises(DisconnectedGraphError, match="horizontal rectangle 0"):
            all_pairs(g)
        with pytest.raises(DisconnectedGraphError):
            bfs_from(g, [0])

    def test_isolated_horizontal_first(self):
        g = graph_of([(10, 14, 0, 4), (0, 4, 0, 4)], [(0, 4, 0, 4)])
        assert g.adj[0] == ()
        message = (
            "horizontal rectangle 1 is unreachable from horizontal rectangle 0; "
            "the domain is not connected"
        )
        with pytest.raises(DisconnectedGraphError, match=f"^{re.escape(message)}$"):
            all_pairs(g)

    def test_isolated_horizontal_middle(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4), (0, 4, 10, 14)], [(0, 4, 0, 14)])
        assert g.adj[1] == () and g.adj[3] == (0, 2)
        with pytest.raises(DisconnectedGraphError, match="horizontal rectangle 1 is unreachable"):
            all_pairs(g)

    @pytest.mark.parametrize("at", [0, 32, 64])
    def test_isolated_horizontal_in_ladder(self, at):
        h_boxes, v_boxes = ladder(64, seed=at)
        h_boxes.insert(at, (1000, 1004, 1, 3))  # right of every column
        g = graph_of(h_boxes, v_boxes)
        assert g.nh == 65 and g.adj[at] == ()
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)

    def test_two_components(self):
        g = graph_of([(0, 4, 0, 4), (10, 14, 0, 4)], [(0, 4, 0, 4), (10, 14, 0, 4)])
        assert all(g.adj)
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)
        a, b = ladder(64, seed=1), ladder(65, seed=2, dx=1000)
        g = graph_of(a[0] + b[0], a[1] + b[1])
        assert g.nh == 129 and all(g.adj)
        with pytest.raises(DisconnectedGraphError):
            all_pairs(g)

    def test_isolated_vertical(self):
        g = graph_of([(0, 4, 0, 4)], [(0, 4, 0, 4), (10, 14, 0, 4)])
        assert g.adj[2] == ()
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
            edge_set = set(g.edges)
            for h in range(g.nh):
                rh = g.rects[h]
                mh = middle_segment(rh)
                for v in range(g.nh, g.m):
                    rv = g.rects[v]
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
